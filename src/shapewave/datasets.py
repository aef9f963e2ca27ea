"""Deterministic signal generators and CSV ingestion/emission.

All generators are pure functions of their arguments, including the noise
seed: noise streams come from numpy's default PCG64 generator seeded per
call, so equal inputs give bitwise-equal outputs.

CSV formats (UTF-8, LF or CRLF, plain decimal notation):

* signal files:  header ``t,f``, one ``time,value`` record per line
* phase files:   header ``t,theta``
* shape files:   header ``tau,s`` (one period sampled on a uniform grid)
* envelope and residual files: headers ``t,a`` and ``t,r``
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_COUNT, MIN_SAMPLES, Signal, _is_count, validate_signal
from .errors import InvalidArgument, MismatchedLengths, NonFiniteState, ParseError

#: Absolute value beyond which an ODE trajectory counts as blown up.
BLOWUP_LIMIT = 1.0e6

#: Largest gap between a phase file's time and the signal's, in smallest sample steps.
TIME_TOLERANCE = 0.01


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise: standard deviation and RNG seed."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise InvalidArgument(f"sigma must be >= 0, got {self.sigma}")
        if not _is_count(self.seed, 0):
            raise InvalidArgument(f"seed must be >= 0, got {self.seed!r}; seeds are integers, not bools")

    def draw(self, n: int) -> np.ndarray:
        return self.sigma * np.random.default_rng(self.seed).standard_normal(n)


@dataclass(frozen=True)
class DuffingParams:
    """Parameters of the forced oscillator ``u'' + u + eps*u^(1+w) = gamma*cos(beta*t)``.

    The power term is evaluated as ``sign(u) * |u|**(1+w)`` so non-integer
    exponents are well defined; the default exponent 2 gives the cubic case.

    ``epsilon`` defaults to +1, a hardening restoring force.  With the
    softening sign (-1) and the default initial state (1, 1) the motion of
    this undamped system is unbounded (the initial energy exceeds the
    potential barrier at |u| = 1), so integration would stop with
    :class:`NonFiniteState` almost immediately.
    """

    epsilon: float = 1.0
    gamma: float = 0.1
    beta: float = 1.0 / 25.0
    omega_exponent: float = 2.0
    u0: float = 1.0
    v0: float = 1.0
    t_span: float = 400.0
    dt: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise InvalidArgument(f"dt must be positive, got {self.dt}")
        if not 1000 <= self.t_span / self.dt < math.inf:
            raise InvalidArgument("t_span/dt must be at least 1000")
        if not 0.0 < self.omega_exponent < math.inf:
            raise InvalidArgument(f"omega_exponent must be positive, got {self.omega_exponent}")


def integrate_duffing(params: DuffingParams):
    """Integrate the oscillator with classical fixed-step 4th-order Runge-Kutta.

    Returns
    -------
    (times, u, v) : ndarrays of length round(t_span/dt) + 1

    Raises
    ------
    NonFiniteState
        When the state stops being finite or exceeds ``BLOWUP_LIMIT``.
    """
    eps = params.epsilon
    gamma = params.gamma
    beta = params.beta
    pw = 1.0 + params.omega_exponent
    dt = params.dt
    steps = int(round(params.t_span / dt))

    # Python floats, ``math`` and the acceleration
    # ``gamma*cos(beta*t) - u - eps*sign(u)*|u|**pw`` written out in each
    # stage keep the per-step cost low.  A float power too large for a double
    # raises OverflowError; as inf it would leave the state inf or NaN at the
    # end of that step, so it is reported as a blow-up of that step.
    cos, copysign, isfinite = math.cos, math.copysign, math.isfinite
    half = 0.5 * dt
    sixth = dt / 6.0
    u = np.empty(steps + 1)
    v = np.empty(steps + 1)
    u[0], v[0] = params.u0, params.v0
    uk, vk = float(params.u0), float(params.v0)
    try:
        for k in range(steps):
            t = k * dt
            force_half = gamma * cos(beta * (t + half))
            k1u = vk
            k1v = gamma * cos(beta * t) - uk - eps * copysign(abs(uk) ** pw, uk)
            k2u = vk + half * k1v
            x = uk + half * k1u
            k2v = force_half - x - eps * copysign(abs(x) ** pw, x)
            k3u = vk + half * k2v
            x = uk + half * k2u
            k3v = force_half - x - eps * copysign(abs(x) ** pw, x)
            k4u = vk + dt * k3v
            x = uk + dt * k3u
            k4v = gamma * cos(beta * (t + dt)) - x - eps * copysign(abs(x) ** pw, x)
            uk = uk + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            vk = vk + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (isfinite(uk) and isfinite(vk)) or abs(uk) > BLOWUP_LIMIT:
                raise NonFiniteState(f"trajectory blew up at t = {(k + 1) * dt:.4g}")
            u[k + 1], v[k + 1] = uk, vk
    except OverflowError:
        raise NonFiniteState(f"trajectory blew up at t = {(k + 1) * dt:.4g}") from None
    times = np.arange(steps + 1) * dt
    return times, u, v


def _check_samples(n_samples, low: int) -> None:
    """The generators' sample-count rule: an integer from ``low`` to ``MAX_COUNT``."""
    if not _is_count(n_samples, low, MAX_COUNT):
        raise InvalidArgument(f"need an integer sample count from {low} to {MAX_COUNT}, got {n_samples!r}")


def gen_duffing(params: DuffingParams | None = None, noise: NoiseSpec = NoiseSpec(),
                n_samples: int = 8192) -> Signal:
    """Integrate the oscillator and return the (optionally noisy) displacement.

    The dense trajectory is thinned to about ``n_samples`` points, or kept
    whole if it has no more than that.
    """
    _check_samples(n_samples, MIN_SAMPLES)
    if params is None:
        params = DuffingParams()
    times, u, _ = integrate_duffing(params)
    if n_samples < len(times):
        idx = np.unique(np.round(np.linspace(0, len(times) - 1, n_samples)).astype(int))
        times, u = times[idx], u[idx]
    if noise.sigma > 0.0:
        u = u + noise.draw(len(u))
    return validate_signal(times, u)


def example1_shape(tau):
    """The generating shape of the first synthetic benchmark."""
    tau = np.asarray(tau, dtype=float)
    return 1.0 / (1.1 + np.cos(tau + np.cos(2.0 * tau)))


def gen_example1(n_samples: int = 4096, noise: NoiseSpec = NoiseSpec()):
    """First synthetic benchmark: intra-wave FM under a smooth envelope.

    On ``t in [0, 1]``::

        theta(t) = 40*pi*t + 2*cos(6*pi*t)
        a(t)     = 1 / (2 + sin(2*pi*t))
        f(t)     = a(t) / (1.1 + cos(theta + cos(2*theta))) + noise

    Returns
    -------
    (Signal, ndarray, callable)
        The signal, the exact phase samples, and the exact shape evaluator
        ``s(tau) = 1 / (1.1 + cos(tau + cos(2*tau)))``.
    """
    _check_samples(n_samples, 512)
    t = np.linspace(0.0, 1.0, n_samples)
    theta = 40.0 * np.pi * t + 2.0 * np.cos(6.0 * np.pi * t)
    envelope = 1.0 / (2.0 + np.sin(2.0 * np.pi * t))
    f = envelope * example1_shape(theta)
    if noise.sigma > 0.0:
        f = f + noise.draw(n_samples)
    return validate_signal(t, f), theta, example1_shape


def gen_morphing_shape(n_samples: int, shape_a, shape_b, l_theta: int) -> Signal:
    """Signal whose shape blends linearly from ``shape_a`` to ``shape_b``.

    ``f(t) = (1 - t) * shape_a(theta) + t * shape_b(theta)`` with the linear
    phase ``theta = 2*pi*l_theta*t`` on [0, 1].  Both evaluators must be
    2*pi-periodic.
    """
    _check_samples(n_samples, MIN_SAMPLES)
    if not _is_count(l_theta, 1):
        raise InvalidArgument(f"l_theta must be an integer >= 1, got {l_theta!r}")
    t = np.linspace(0.0, 1.0, n_samples)
    theta = 2.0 * np.pi * l_theta * t
    f = (1.0 - t) * np.asarray(shape_a(theta), dtype=float) + t * np.asarray(shape_b(theta), dtype=float)
    return validate_signal(t, f)


# ---- CSV ------------------------------------------------------------------


def _read_two_columns(path, expected_header):
    with open(path, "rb") as handle:
        raw = handle.read()
    rows = []
    try:
        reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if line_no == 1:
                header = tuple(cell.strip() for cell in row)
                if header != expected_header:
                    raise ParseError(f"expected header {','.join(expected_header)!r}, got "
                                     f"{','.join(header)!r} at line 1", line=1)
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 columns, got {len(row)} at line {line_no}", line=line_no)
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise ParseError(f"non-numeric value at line {line_no}", line=line_no) from None
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, with line ends as the reader counts them
        line = len((raw[: exc.start] + b".").splitlines())
        raise ParseError(f"invalid UTF-8 at line {line}", line=line) from None
    except csv.Error as exc:
        raise ParseError(f"{exc} at line {reader.line_num}", line=reader.line_num) from None
    if not rows:
        raise ParseError("no data records", line=1)
    data = np.asarray(rows, dtype=float)
    return data[:, 0], data[:, 1]


def load_signal_csv(path) -> Signal:
    """Read a ``t,f`` file and validate it as a :class:`Signal`."""
    times, values = _read_two_columns(path, ("t", "f"))
    return validate_signal(times, values)


def load_phase_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``t,theta`` file and return its raw times and phase samples."""
    return _read_two_columns(path, ("t", "theta"))


def _check_times(path, times, signal: Signal):
    """Raise ParseError at the first line of ``path`` whose time is off the signal's."""
    tol = TIME_TOLERANCE * np.min(np.diff(signal.times))
    bad = np.flatnonzero(~(np.abs(times - signal.times) <= tol))
    if len(bad):
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            line = [reader.line_num for row in reader if row][bad[0] + 1]
        raise ParseError(f"time at line {line} is not the signal's within {tol:.3g} "
                         f"({TIME_TOLERANCE:g} of its smallest sample step)", line=line)


def _write_two_columns(path, header, col_a, col_b):
    col_a, col_b = np.asarray(col_a), np.asarray(col_b)
    if col_a.shape != col_b.shape or col_a.ndim != 1:
        raise MismatchedLengths(f"columns {header[0]} and {header[1]} must be 1-d and of equal length, "
                                f"got shapes {col_a.shape} and {col_b.shape}")
    # one format over the interleaved Python floats: the digits of a per-row f-string at less cost
    cells = np.stack((col_a, col_b), axis=1).ravel().tolist()
    text = f"{header[0]},{header[1]}\n" + "%.17g,%.17g\n" * len(col_a) % tuple(cells)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_signal_csv(path, signal: Signal):
    _write_two_columns(path, ("t", "f"), signal.times, signal.values)


def write_phase_csv(path, times, phases):
    _write_two_columns(path, ("t", "theta"), times, phases)


def write_shape_csv(path, tau, values):
    _write_two_columns(path, ("tau", "s"), tau, values)


def write_envelope_csv(path, times, envelope):
    _write_two_columns(path, ("t", "a"), times, envelope)


def write_residual_csv(path, times, residual):
    _write_two_columns(path, ("t", "r"), times, residual)
