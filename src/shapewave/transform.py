"""Phase-space resampling, discrete spectrum and harmonic band splitting.

A signal with phase ``theta`` is resampled onto the uniform normalized-phase
grid ``phi_j = j/n`` where ``phi = (theta - theta[0]) / (theta[-1] - theta[0])``.
On that grid the oscillation is exactly periodic with ``l_theta`` cycles per
record, so its spectrum concentrates near integer multiples of ``l_theta``.
Each harmonic band ``k`` is then shifted down to baseband, where it exposes
the envelope scaled by the k-th shape coefficient.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder

import numpy as np

from .core import MAX_COUNT, NormalizedPhaseGrid, _horner, _is_count
from .errors import BandExceedsNyquist, DegenerateInput, InvalidArgument, NonFiniteValue


def _load_dgtsv():
    """LAPACK ``dgtsv`` from SciPy's compiled wrapper ``_flapack``, loaded without importing SciPy.

    ``scipy.linalg.lapack.dgtsv`` is this same routine, but importing
    ``scipy.linalg`` also loads ``numpy.testing`` and ``numpy.f2py`` and takes
    longer than NumPy's own import.  The wrapper is loaded from SciPy's
    installed package directory; it registers itself under its bare name,
    which is taken out of ``sys.modules`` again.
    """
    scipy = importlib.util.find_spec("scipy")
    linalg = [os.path.join(path, "linalg") for path in scipy.submodule_search_locations] if scipy else []
    spec = PathFinder.find_spec("_flapack", linalg)
    if spec is None:
        raise ModuleNotFoundError("shapewave needs SciPy's LAPACK wrapper scipy.linalg._flapack", name="scipy")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get("_flapack") is module:
        del sys.modules["_flapack"]
    return module.dgtsv


dgtsv = _load_dgtsv()


@dataclass(frozen=True)
class PhaseDomainSignal:
    """Signal resampled to the uniform phase grid, plus its spectrum.

    ``spectrum[i]`` is the coefficient of ``exp(2j*pi*omega*phi)`` for
    ``omega = i - n/2``, i.e. frequencies run over -n/2 .. n/2-1.
    """

    grid: NormalizedPhaseGrid
    values: np.ndarray
    spectrum: np.ndarray
    l_theta: int


@dataclass(frozen=True)
class DemodulatedBand:
    """Harmonic band ``k`` shifted to baseband; a slow complex signal."""

    k: int
    values: np.ndarray


def forward_spectrum(values) -> np.ndarray:
    """Discrete spectrum ``sum_j values[j] * exp(-2j*pi*omega*j/n)``.

    Returned in increasing frequency order, omega = -n/2 .. n/2-1.  A stack
    of records is transformed row by row along its last axis.
    """
    values = np.asarray(values)
    _check_power_of_two(values.shape[-1], "length")
    return np.fft.fftshift(np.fft.fft(values), axes=-1)


def _check_power_of_two(n, name: str) -> None:
    """The grid-size rule: an integer power of two, at most ``MAX_COUNT``."""
    if not _is_count(n, 1, MAX_COUNT) or n & (n - 1):
        raise InvalidArgument(f"{name} must be a power of two no larger than {MAX_COUNT}, got {n!r}")


def natural_cubic_spline(x, y, xq) -> np.ndarray:
    """Natural cubic spline through ``(x, y)``, evaluated at ``xq``.

    ``x`` must be strictly increasing with at least two nodes.  The node
    slopes solve the tridiagonal system of a spline with zero second
    derivative at both ends; each interval is then the cubic Hermite piece
    ``y_i + s_i*u + c1*u**2 + c0*u**3`` in ``u = xq - x_i``.  Queries outside
    ``[x[0], x[-1]]`` are extrapolated with the end pieces.  Built and summed
    in the same order as scipy's ``CubicSpline(x, y, bc_type="natural")``.

    Raises
    ------
    InvalidArgument
        If ``x`` and ``y`` are not 1-d of one length with at least two nodes,
        a node, value or query is not finite, or ``x`` decreases anywhere (the spline core
        would read a new node set there).
    DegenerateInput
        If a node repeats, or LAPACK reports the slope system singular.
    NonFiniteValue
        If a value of the spline exceeds the float range.
    """
    x, y, xq = (np.asarray(a, dtype=float) for a in (x, y, xq))
    if x.ndim != 1 or y.shape != x.shape or len(x) < 2:
        raise InvalidArgument(f"spline needs 1-d nodes and values of one length, at least two; "
                              f"got shapes {x.shape} and {y.shape}")
    for name, a in (("nodes", x), ("values", y), ("queries", xq)):
        if not np.all(np.isfinite(a)):
            raise InvalidArgument(f"spline {name} must be finite")
    if np.any(x[1:] < x[:-1]):
        raise InvalidArgument("spline nodes must be increasing")
    return _spline(x, y, xq.ravel(), np.searchsorted(x[1:-1], xq.ravel(), "right")).reshape(xq.shape)


@np.errstate(over="ignore", invalid="ignore")
def _spline(x, y, xq, i) -> np.ndarray:
    """:func:`natural_cubic_spline` of a stack of node sets, at a 1-D ``xq``.

    ``x`` and ``y`` concatenate the node sets, each increasing with at least
    two nodes; a new set starts wherever ``x`` drops, and a node repeated
    within a set raises :class:`DegenerateInput`.  The caller supplies each
    query's interval as an index into the concatenation: its set's
    ``searchsorted(x_set[1:-1], xq, "right")`` plus the set's offset.  The
    pieces are summed in place, in blocks of at most 8 192 queries, in the
    order ``y_i + s_i*u + c1*u**2 + c0*u**3``.  A value past the float range
    (from a node gap too small for its step) is :class:`NonFiniteValue`.
    """
    s, c1, c0 = _spline_pieces(x, y)
    out = np.empty(len(xq))
    # blocks whose gathers and temporaries stay in cache, split evenly so that a stack's
    # temporaries are no larger than its queries need
    blocks = -(-len(xq) // 8192)
    size = -(-len(xq) // blocks) if blocks else 1
    for lo in range(0, len(xq), size):
        b = slice(lo, lo + size)
        ib = i[b]
        u = np.subtract(xq[b], x.take(ib))
        acc = np.multiply(s.take(ib), u, out=out[b])
        acc += y.take(ib)
        u2 = u * u
        term = c1.take(ib)
        term *= u2
        acc += term
        u2 *= u
        term = c0.take(ib)
        term *= u2
        acc += term
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue("spline values exceed the float range")
    return out


def _spline_pieces(x, y):
    """Node slopes and the u**2 and u**3 coefficients of every interval of :func:`_spline`.

    All slope systems are solved as one block-diagonal tridiagonal system.
    At a seam the coupling entries are 0, and the rows on both sides are the
    natural end rows of their sets.  ``dgtsv`` needs no row interchange
    across a zero sub-diagonal entry, and what it carries across the seam is
    exact zeros, so each set's slopes, and hence its spline, are bitwise
    those of the set solved alone.

    Five length-n buffers serve the whole build, filled in place in the
    single-set operation order.  The secant slopes are computed twice, into
    the sub-diagonal before it is filled and after it is spent, and the
    coefficients take the spent system's buffers.
    """
    n = len(x)
    dx = np.diff(x)
    if np.any(dx == 0.0):  # within a set, since a seam's gap is negative
        raise DegenerateInput("spline nodes must be distinct")
    # rows balance the second derivative across their node; each set's end rows set it to zero
    last = np.append(np.flatnonzero(dx < 0), n - 1)
    first = np.concatenate(([0], last[:-1] + 1))
    lower, diag, upper, rhs = np.empty(n - 1), np.empty(n), np.empty(n - 1), np.empty(n)
    slope = np.subtract(y[1:], y[:-1], out=lower)
    slope /= dx
    np.multiply(dx[1:], slope[:-1], out=rhs[1:-1])
    rhs[1:-1] += np.multiply(dx[:-1], slope[1:], out=diag[1:-1])
    rhs[1:-1] *= 3
    rhs[first] = 3 * (y[first + 1] - y[first])
    rhs[last] = 3 * (y[last] - y[last - 1])
    np.add(dx[:-1], dx[1:], out=diag[1:-1])
    diag[1:-1] *= 2
    diag[first] = 2 * dx[first]
    diag[last] = 2 * dx[last - 1]
    upper[1:] = dx[:-1]
    upper[first] = dx[first]
    upper[last[:-1]] = 0.0
    lower[:-1] = dx[1:]
    lower[last - 1] = dx[last - 1]
    lower[last[:-1]] = 0.0
    lower, diag, upper, s, info = dgtsv(lower, diag, upper, rhs, True, True, True, True)
    if info:
        raise DegenerateInput(f"spline slope system is singular (LAPACK dgtsv info {info})")
    slope = np.subtract(y[1:], y[:-1], out=lower)
    slope /= dx
    t = np.add(s[:-1], s[1:], out=diag[:-1])
    t -= np.multiply(slope, 2, out=upper)
    t /= dx
    c1 = slope
    c1 -= s[:-1]
    c1 /= dx
    c1 -= t
    return s, c1, np.divide(t, dx, out=upper)


def _joined(parts) -> np.ndarray:
    """The concatenation of ``parts``; a single part is passed through uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _normalized(phases) -> np.ndarray:
    """Each record's normalized phase ``(theta - theta[0]) / (theta[-1] - theta[0])``, back to back."""
    return _joined([(p - p[0]) / (p[-1] - p[0]) for p in phases])


def default_grid_size(n_samples: int, l_theta: int) -> int:
    """Smallest power of two >= max(n_samples, 8 * l_theta)."""
    return 1 << int(max(n_samples, 8 * l_theta) - 1).bit_length()


def _resample_stack(phases, values, n: int) -> np.ndarray:
    """Records splined from ``(phi(t_l), f(t_l))`` onto ``phi_j = j/n``, one row each.

    ``phases`` holds each record's phase samples and ``values`` the records'
    values back to back; one stacked spline serves all records.  ``n`` obeys
    the grid rule of ``extract._grid_and_bands``.  Node l of record r is keyed
    ``r*(n+1) + ceil(phi_l*n)``, and query j of record r lies in interval
    ``cumsum(bincount(keys))[r*(n+1) + j] - 1``: the nodes of earlier records
    and r's interior nodes with ``ceil(phi_l*n) <= j``.  This is exact: n is a
    power of two, so neither ``phi_l*n`` nor ``j/n`` rounds.
    """
    x = _normalized(phases)
    key = np.ceil(x * n).astype(np.intp)
    key += np.repeat(np.arange(0, len(phases) * (n + 1), n + 1), [len(p) for p in phases])
    index = np.cumsum(np.bincount(key, minlength=len(phases) * (n + 1))).reshape(-1, n + 1)[:, :n] - 1
    grid = NormalizedPhaseGrid(n=n).nodes
    return _spline(x, values, _joined([grid] * len(phases)), index.ravel()).reshape(len(phases), n)


def _top_band(n: int, l_theta: int) -> int:
    """The largest ``|k|`` whose band fits below the Nyquist frequency ``n/2``.

    Band k reaches frequency ``|k|*l_theta + ceil(l_theta/2)``; it fits when
    that is at most ``n//2``.  Integer floor division decides exactly that.
    """
    if not _is_count(l_theta, 1):
        raise InvalidArgument(f"l_theta must be an integer >= 1, got {l_theta!r}")
    return (n // 2 - (l_theta + 1) // 2) // l_theta


def band_indices(k: int, l_theta: int, n: int) -> tuple[int, int]:
    """Inclusive frequency interval of harmonic band ``k``.

    Band k covers ``k*l_theta - floor(l_theta/2) .. k*l_theta + ceil(l_theta/2) - 1``,
    i.e. a width-``l_theta`` interval centered on the k-th multiple of the
    fundamental.  For every integer k these intervals tile the frequency axis.

    Raises
    ------
    BandExceedsNyquist
        If the band does not fit below the Nyquist frequency n/2.
    InvalidArgument
        If ``k`` is not an integer of either sign (NumPy's included, bools
        not), or ``l_theta`` is not an integer of at least 1.
    """
    if not _is_count(k, -np.inf):
        raise InvalidArgument(f"band index must be an integer, got {k!r}")
    half_hi = (l_theta + 1) // 2
    if abs(k) > _top_band(n, l_theta):
        raise BandExceedsNyquist(
            f"band {k} needs frequencies up to {abs(k) * l_theta + half_hi}, "
            f"grid Nyquist is {n // 2}; lower the band limit or raise the grid size"
        )
    return k * l_theta - l_theta // 2, k * l_theta + half_hi - 1


def _band_samples(spectrum: np.ndarray, l_theta: int, ks, size: int, trim_unpaired: bool) -> np.ndarray:
    """Bands ``ks`` of a spectrum at baseband, one row per band, sampled at phi = j/size.

    The spectrum is in NumPy's FFT order (``np.fft.fft``, unshifted), so a
    bin is read at its signed frequency.  ``ks`` is one band or a run of
    consecutive bands; the end farthest from 0 is checked against Nyquist
    before any row is allocated, which keeps every frequency in -n/2..n/2-1.
    ``size`` is n, or l_theta once trimmed.  For even ``l_theta`` a band's
    lowest bin has no conjugate partner inside the band; ``trim_unpaired``
    drops it, since the model's envelope spectrum vanishes there.  Every band
    has the same bin offsets relative to ``k*l_theta``, so all of them are
    gathered with one index and transformed with one inverse FFT.  A stacked
    ``spectrum`` gives one such block of rows per record.
    """
    n = spectrum.shape[-1]
    k_far = max(ks[0], ks[-1], key=abs)
    lo, hi = band_indices(k_far, l_theta, n)
    ks = np.asarray(ks)
    offsets = np.arange(lo, hi + 1) - k_far * l_theta
    if trim_unpaired and l_theta % 2 == 0:
        offsets = offsets[1:]
    buf = np.zeros(spectrum.shape[:-1] + (len(ks), size), dtype=complex)
    buf[..., offsets % size] = spectrum[..., ks[:, None] * l_theta + offsets]
    return np.fft.ifft(buf, axis=-1) * (size / n)


def extract_demodulated_band(pds: PhaseDomainSignal, k: int) -> DemodulatedBand:
    """Isolate harmonic band ``k`` and shift it down to baseband.

    Returns ``g_k(phi_j) = (1/n) * sum_{omega in band k} spectrum(omega)
    * exp(2j*pi*(omega - k*l_theta)*j/n)``.  For a signal matching the model,
    ``g_k`` approximates the envelope times the k-th shape coefficient.
    The bands keep every bin, so they tile the frequency axis exactly.
    """
    bands = _band_samples(np.fft.ifftshift(pds.spectrum), pds.l_theta, [k], pds.grid.n, False)
    return DemodulatedBand(k=k, values=bands[0])


def _interp_stack(closed: np.ndarray, phases) -> np.ndarray:
    """Each row of ``closed`` splined back to its own record's phase samples, back to back.

    Row r holds one record-period of a periodic quantity at the nodes
    ``k/n``, k = 0..n, the grid closed periodically (its last sample is its
    first), and is evaluated at record r's normalized phase.  All rows share
    the nodes, and one stacked spline serves them.  A phi lies in interval
    ``floor(phi*n)``, capped at n-1.  This is exact: n is a power of two, so
    neither ``phi*n`` nor ``k/n`` rounds.  Row r's index is then offset by
    ``r*(n+1)``.
    """
    n = closed.shape[-1] - 1
    nodes = np.arange(n + 1) / n
    phi = _normalized(phases)
    i = (phi * n).clip(0, n - 1).astype(np.intp)
    i += np.repeat(np.arange(len(phases)) * (n + 1), [len(p) for p in phases])
    return _spline(_joined([nodes] * len(phases)), closed.ravel(), phi, i)


def _trig_stack(bins: np.ndarray, phases) -> np.ndarray:
    """Real trigonometric polynomials from half spectra, each at its own record's phase samples, back to back.

    Row r of ``bins`` holds ``b_0..b_H`` of record r, whose value at its
    normalized phase phi is ``Re b_0 + 2 Re sum_{k>=1} b_k z**k`` with
    ``z = cos 2*pi*phi + i sin 2*pi*phi``.  :func:`~shapewave.core._horner`
    sums it over all records' samples at once, each sample taking its own
    record's bins, so every record's values are those of a stack holding it
    alone.
    """
    angle = _normalized(phases)
    angle *= 2.0 * np.pi
    z = np.empty(len(angle), dtype=complex)
    np.cos(angle, out=z.real)
    np.sin(angle, out=z.imag)
    # the phases are spent before the sum takes its buffers, and the values come last, in
    # a new array: reusing the phases' buffer for them took a default track about 1.7 times
    # the page faults
    del angle
    row = np.repeat(np.arange(len(phases)), [len(p) for p in phases])
    return _horner(z, lambda k: bins[:, k].take(row), bins.shape[-1] - 1)
