"""Core domain types, validation and normalization conventions.

The signal model is ``f(t) = a(t) * s(theta(t)) + r(t)`` where ``s`` is an
adaptive 2*pi-periodic shape function, ``a`` a smooth envelope and ``r`` a
small residual.  This module holds the immutable value types shared by the
whole pipeline and the canonical normalization of the rank-1 factors.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    DegenerateFactors,
    MismatchedLengths,
    NonFiniteValue,
    NonIncreasingTimes,
    NonMonotonePhase,
    NotNearIntegerPeriods,
    TooFewPeriods,
    TooShort,
)

#: Minimum number of samples required of any input signal.
MIN_SAMPLES = 16

#: Minimum number of whole oscillation periods required of a phase function.
MIN_PERIODS = 4

#: Tolerated deviation of the record's period count from a whole number.
PERIOD_TOLERANCE = 0.1

#: Size of the reference grid on which shape functions are sampled/normalized.
SHAPE_GRID = 1024

#: Sign convention tag recorded on normalized shape functions.
SIGN_CONVENTION = "nonnegative-envelope-mean"

#: Largest grid size or generated sample count: arrays of that many complex
#: values still have a byte size that an ``intp`` holds.
MAX_COUNT = np.iinfo(np.intp).max // 16


@dataclass(frozen=True)
class Signal:
    """A real-valued signal on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    @property
    def n_samples(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class PhaseFunction:
    """Strictly increasing phase samples aligned with a signal's time grid.

    ``l_theta`` is the number of whole oscillation periods in the record,
    ``round((phases[-1] - phases[0]) / 2pi)``.
    """

    phases: np.ndarray
    l_theta: int

    @property
    def phase_origin(self) -> float:
        return float(self.phases[0])

    @property
    def span(self) -> float:
        return float(self.phases[-1] - self.phases[0])

    def normalized(self) -> np.ndarray:
        """Phase mapped affinely onto [0, 1] over the record."""
        return (self.phases - self.phases[0]) / self.span


@dataclass(frozen=True)
class NormalizedPhaseGrid:
    """Uniform grid phi_j = j/n, j = 0..n-1, on the normalized phase axis."""

    n: int

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) / self.n


@dataclass(frozen=True)
class ShapeFunction:
    """A 2*pi-periodic real function stored as harmonic coefficients.

    ``coeffs[k]`` is the complex coefficient of ``exp(1j * k * tau)`` for
    k = 0..K; negative harmonics are implied by conjugate symmetry, so

        s(tau) = coeffs[0].real + 2 * sum_k Re(coeffs[k] * exp(1j*k*tau)).

    After normalization the peak of ``|s|`` on the reference grid is 1 and
    the paired envelope has nonnegative mean.
    """

    coeffs: np.ndarray
    normalization: ClassVar[dict] = {"peak_abs": 1.0, "sign": SIGN_CONVENTION}

    @property
    def band_limit(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, tau) -> np.ndarray:
        return evaluate_shape(self.coeffs, tau)

    def sample(self, m: int = SHAPE_GRID) -> np.ndarray:
        """Values on the uniform grid tau_i = 2*pi*i/m, i = 0..m-1."""
        return self(2.0 * np.pi * np.arange(m) / m)


@dataclass(frozen=True)
class Envelope:
    """Smooth amplitude factor, in both phase and time coordinates."""

    values_phase: np.ndarray
    values_time: np.ndarray


@dataclass(frozen=True)
class FitDiagnostics:
    singular_values: np.ndarray
    rank1_energy_fraction: float
    objective_value: float


@dataclass(frozen=True)
class ExtractionResult:
    """Everything produced by one shape extraction run."""

    shape: ShapeFunction
    envelope: Envelope
    residual: np.ndarray
    fit: FitDiagnostics
    l_theta: int
    grid_size: int


def evaluate_shape(coeffs: np.ndarray, tau):
    """Evaluate ``c_0 + 2 * sum_{k>=1} Re(c_k exp(1j k tau))`` vectorized.

    The sum is a polynomial in ``z = exp(1j tau)``, summed by Horner's rule
    in place: O(len(tau) * K) multiply-adds and O(len(tau)) memory.  Taking
    powers of ``z`` never rounds the product ``k * tau``, so the result stays
    accurate at large phase.  A stack of coefficient vectors ``(..., K+1)``
    gives one row of values per vector, each equal to its own evaluation.
    """
    coeffs = np.asarray(coeffs)
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    z = np.exp(1j * tau_arr)
    # coefficient k of every stacked vector, shaped to broadcast against z
    column = coeffs.shape[:-1] + (1,) * z.ndim
    acc = np.zeros(coeffs.shape[:-1] + z.shape, dtype=complex)
    for k in range(coeffs.shape[-1] - 1, 0, -1):
        acc += coeffs[..., k].reshape(column)
        acc *= z
    out = 2.0 * acc.real
    out += np.real(coeffs[..., 0]).reshape(column)
    return out if np.ndim(tau) or coeffs.ndim > 1 else float(out[0])


def validate_signal(times, values) -> Signal:
    """Check raw sequences and wrap them as a :class:`Signal`.

    Raises
    ------
    MismatchedLengths
        The sequences are not 1-d or differ in length.
    TooShort
        Fewer than ``MIN_SAMPLES`` samples.
    NonIncreasingTimes
        First index where ``times`` fails to increase is reported.
    NonFiniteValue
        First NaN/Inf in either sequence is reported.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise MismatchedLengths("times and values must be 1-d sequences of equal length")
    _check_sample_count(len(times))
    for name, arr in (("times", times), ("values", values)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if len(bad):
            raise NonFiniteValue(f"non-finite {name} entry at index {bad[0]}")
    steps = np.diff(times)
    bad = np.flatnonzero(steps <= 0)
    if len(bad):
        raise NonIncreasingTimes(f"times not strictly increasing at index {bad[0] + 1}")
    return Signal(times=times, values=values)


def validate_phase(signal: Signal, phases) -> PhaseFunction:
    """Check a raw phase sequence against ``signal`` and compute ``l_theta``.

    The record must contain a near-integer number of whole periods
    (within ``PERIOD_TOLERANCE``), at least ``MIN_PERIODS`` of them, and the
    phase must be strictly increasing, with the shape of ``signal.times``.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != signal.times.shape:
        raise MismatchedLengths(f"phase shape {phases.shape} is not the signal's {signal.times.shape}")
    bad = np.flatnonzero(~np.isfinite(phases))
    if len(bad):
        raise NonFiniteValue(f"non-finite phase entry at index {bad[0]}")
    steps = np.diff(phases)
    bad = np.flatnonzero(steps <= 0)
    if len(bad):
        raise NonMonotonePhase(f"phase not strictly increasing at index {bad[0] + 1}")
    return PhaseFunction(phases=phases, l_theta=_whole_periods(phases))


def _is_count(value, low: int, high: float = np.inf) -> bool:
    """The integer rule of counts: an integer (NumPy's too) but not a bool, ``low <= value <= high``."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and low <= value <= high


def _check_sample_count(count: int) -> None:
    """The sample-count rule of a record or window: at least ``MIN_SAMPLES``."""
    if count < MIN_SAMPLES:
        raise TooShort(f"need at least {MIN_SAMPLES} samples, got {count}")


def _whole_periods(phases: np.ndarray) -> int:
    """``l_theta`` of increasing phases: near a whole number of periods, at least ``MIN_PERIODS``."""
    periods = (phases[-1] - phases[0]) / (2.0 * np.pi)
    l_theta = int(round(periods))
    if abs(periods - l_theta) > PERIOD_TOLERANCE:
        raise NotNearIntegerPeriods(
            f"record spans {periods:.4f} periods, "
            f"more than {PERIOD_TOLERANCE} away from a whole number"
        )
    if l_theta < MIN_PERIODS:
        raise TooFewPeriods(f"need at least {MIN_PERIODS} periods, got {l_theta}")
    return l_theta


def normalize_rank1_factors(a_raw, c_raw, s1):
    """Turn unit-norm rank-1 factors into the canonical envelope and shape.

    The rank-1 solution determines envelope and coefficients only up to a
    joint sign and a scale split.  The convention here folds the singular
    value ``s1`` into the envelope, rebalances so the shape peaks at 1 in
    absolute value on the reference grid, and picks the sign that makes the
    envelope mean nonnegative.  The product envelope * shape is unchanged.

    Every argument may carry the same leading stack axes; each stacked
    factor pair is then normalized on its own, exactly as if alone.

    Parameters
    ----------
    a_raw : ndarray, size=(..., n)
        Unit-norm left factor (envelope samples on the phase grid).
    c_raw : ndarray of complex, size=(..., K+1)
        Unit-norm harmonic coefficients c_0..c_K.
    s1 : float or ndarray, size=(...)
        Leading singular value, > 0.

    Returns
    -------
    values_phase : ndarray, size=(..., n)
        Normalized envelope samples on the phase grid.
    coeffs : ndarray of complex, size=(..., K+1)
        Normalized shape coefficients.

    Raises
    ------
    DegenerateFactors
        If any ``s1`` is not positive or any shape factor is identically zero.
    """
    a_raw = np.asarray(a_raw, dtype=float)
    c_raw = np.asarray(c_raw, dtype=complex)
    s1 = np.asarray(s1, dtype=float)
    if not np.all(s1 > 0.0):
        raise DegenerateFactors("leading singular value must be positive")
    peak = np.max(np.abs(_reference_grid_values(c_raw)), axis=-1)
    if np.any(peak == 0.0):
        raise DegenerateFactors("shape factor is identically zero")
    sign = np.where(np.mean(a_raw, axis=-1) >= 0.0, 1.0, -1.0)
    values_phase = (sign * s1 * peak)[..., None] * a_raw
    coeffs = (sign / peak)[..., None] * c_raw
    return values_phase, coeffs


def _reference_grid_values(coeffs: np.ndarray) -> np.ndarray:
    """Shape values on the ``SHAPE_GRID`` points ``2*pi*j/SHAPE_GRID``, one row per stacked vector.

    On the grid, ``s = 2 * Re(sum_k d_k w^(jk))`` with ``d_0 = Re(c_0)/2``,
    ``d_k = c_k`` and ``w = exp(2j*pi/SHAPE_GRID)``: one inverse FFT per
    vector, with every harmonic k folded onto bin ``k mod SHAPE_GRID``.
    Agrees with :func:`evaluate_shape` to rounding, not bitwise.
    """
    count = -(-coeffs.shape[-1] // SHAPE_GRID)
    bins = np.zeros(coeffs.shape[:-1] + (count * SHAPE_GRID,), dtype=complex)
    bins[..., : coeffs.shape[-1]] = coeffs
    bins[..., 0] = 0.5 * coeffs[..., 0].real
    folded = bins.reshape(coeffs.shape[:-1] + (count, SHAPE_GRID)).sum(axis=-2)
    return 2.0 * np.fft.ifft(folded, norm="forward").real
