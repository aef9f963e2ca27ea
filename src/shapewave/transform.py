"""Phase-space resampling, discrete spectrum and harmonic band splitting.

A signal with phase ``theta`` is resampled onto the uniform normalized-phase
grid ``phi_j = j/n`` where ``phi = (theta - theta[0]) / (theta[-1] - theta[0])``.
On that grid the oscillation is exactly periodic with ``l_theta`` cycles per
record, so its spectrum concentrates near integer multiples of ``l_theta``.
Each harmonic band ``k`` is then shifted down to baseband, where it exposes
the envelope scaled by the k-th shape coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .core import NormalizedPhaseGrid, PhaseFunction, Signal
from .errors import BandExceedsNyquist, DegenerateInput, GridTooCoarse, InvalidArgument


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

    Returned in increasing frequency order, omega = -n/2 .. n/2-1.
    """
    values = np.asarray(values)
    n = len(values)
    if not 1 <= n or n & (n - 1):
        raise InvalidArgument(f"length must be a power of two, got {n}")
    return np.fft.fftshift(np.fft.fft(values))


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
    DegenerateInput
        If LAPACK reports the slope system singular.
    """
    x, y, xq = (np.asarray(a, dtype=float) for a in (x, y, xq))
    return _spline(x, y, xq.ravel(), np.searchsorted(x[1:-1], xq.ravel(), "right")).reshape(xq.shape)


def _spline(x, y, xq, i) -> np.ndarray:
    """:func:`natural_cubic_spline` of float arrays at a 1-D ``xq``, whose intervals
    ``i = searchsorted(x[1:-1], xq, "right")`` the caller supplies."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # rows i = 1..n-2 balance the second derivative across node i; the end
    # rows set it to zero
    diag = np.concatenate(([2 * dx[0]], 2 * (dx[:-1] + dx[1:]), [2 * dx[-1]]))
    upper = np.concatenate((dx[:1], dx[:-1]))
    lower = np.concatenate((dx[1:], dx[-1:]))
    rhs = np.concatenate(([3 * (y[1] - y[0])], 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
                          [3 * (y[-1] - y[-2])]))
    *_, s, info = dgtsv(lower, diag, upper, rhs, True, True, True, True)
    if info:
        raise DegenerateInput(f"spline slope system is singular (LAPACK dgtsv info {info})")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - s[:-1]) / dx - t
    out = np.empty(len(xq))
    for lo in range(0, len(xq), 8192):  # blocks whose gathers and temporaries stay in cache
        b = slice(lo, lo + 8192)
        ib = i[b]
        u = xq[b] - x[ib]
        out[b] = y[ib] + s[ib] * u + c1[ib] * (u * u) + c0[ib] * (u * u * u)
    return out


def default_grid_size(n_samples: int, l_theta: int) -> int:
    """Smallest power of two >= max(n_samples, 8 * l_theta)."""
    return 1 << int(max(n_samples, 8 * l_theta) - 1).bit_length()


def resample_to_phase(signal: Signal, phase: PhaseFunction, n: int) -> PhaseDomainSignal:
    """Resample a signal onto the uniform normalized-phase grid.

    A natural cubic spline through ``(phi(t_l), f(t_l))`` is evaluated at
    ``phi_j = j/n``.  The grid must be a power of two with ``n >= 4*l_theta``
    so every harmonic band up to the first is resolvable.

    Query j's interval counts the interior nodes with ``phi_l <= j/n``, i.e.
    ``ceil(phi_l*n) <= j``: a running sum of a ``bincount``.  This is exact:
    n is a power of two, so neither ``phi_l*n`` nor ``j/n`` rounds.

    Raises
    ------
    GridTooCoarse
        If ``n < 4 * l_theta``.
    """
    if not 1 <= n or n & (n - 1):
        raise InvalidArgument(f"grid size must be a power of two, got {n}")
    if n < 4 * phase.l_theta:
        raise GridTooCoarse(f"grid size {n} < 4 * l_theta = {4 * phase.l_theta}")
    grid = NormalizedPhaseGrid(n=n)
    phi = phase.normalized()
    first = np.ceil(phi[1:-1] * n).clip(0, n).astype(np.intp)
    values = _spline(phi, signal.values, grid.nodes, np.cumsum(np.bincount(first, minlength=n + 1)[:n]))
    return PhaseDomainSignal(
        grid=grid,
        values=values,
        spectrum=forward_spectrum(values),
        l_theta=phase.l_theta,
    )


def band_indices(k: int, l_theta: int, n: int) -> tuple[int, int]:
    """Inclusive frequency interval of harmonic band ``k``.

    Band k covers ``k*l_theta - floor(l_theta/2) .. k*l_theta + ceil(l_theta/2) - 1``,
    i.e. a width-``l_theta`` interval centered on the k-th multiple of the
    fundamental.  For every integer k these intervals tile the frequency axis.

    Raises
    ------
    BandExceedsNyquist
        If the band does not fit below the Nyquist frequency n/2.
    """
    half_lo = l_theta // 2
    half_hi = (l_theta + 1) // 2
    lo = k * l_theta - half_lo
    hi = k * l_theta + half_hi - 1
    if abs(k) * l_theta + half_hi > n // 2:
        raise BandExceedsNyquist(
            f"band {k} needs frequencies up to {abs(k) * l_theta + half_hi}, "
            f"grid Nyquist is {n // 2}; lower the band limit or raise the grid size"
        )
    return lo, hi


def _band_samples(pds: PhaseDomainSignal, ks, size: int, trim_unpaired: bool) -> np.ndarray:
    """Bands ``ks`` at baseband, one row per band, sampled at phi = j/size.

    ``ks`` is one band or a run of consecutive bands; the end farthest from
    0 is checked against Nyquist before any row is allocated.  ``size`` is n, or l_theta once trimmed.  For even ``l_theta`` a band's
    lowest bin has no conjugate partner inside the band; ``trim_unpaired``
    drops it, since the model's envelope spectrum vanishes there.  Every
    band has the same bin offsets relative to ``k*l_theta``, so all of them
    are gathered with one index and transformed with one inverse FFT.
    """
    n, l_theta = pds.grid.n, pds.l_theta
    k_far = int(max(ks[0], ks[-1], key=abs))
    lo, hi = band_indices(k_far, l_theta, n)
    ks = np.asarray(ks)
    offsets = np.arange(lo, hi + 1) - k_far * l_theta
    if trim_unpaired and l_theta % 2 == 0:
        offsets = offsets[1:]
    buf = np.zeros((len(ks), size), dtype=complex)
    buf[:, offsets % size] = pds.spectrum[ks[:, None] * l_theta + offsets + n // 2]
    return np.fft.ifft(buf, axis=1) * (size / n)


def extract_demodulated_band(pds: PhaseDomainSignal, k: int) -> DemodulatedBand:
    """Isolate harmonic band ``k`` and shift it down to baseband.

    Returns ``g_k(phi_j) = (1/n) * sum_{omega in band k} spectrum(omega)
    * exp(2j*pi*(omega - k*l_theta)*j/n)``.  For a signal matching the model,
    ``g_k`` approximates the envelope times the k-th shape coefficient.
    The bands keep every bin, so they tile the frequency axis exactly.
    """
    return DemodulatedBand(k=k, values=_band_samples(pds, [k], pds.grid.n, False)[0])


def interp_phase_to_time(values_phase, phase: PhaseFunction) -> np.ndarray:
    """Interpolate phase-grid samples back onto the time grid ``phase`` is aligned with.

    The phase grid is closed periodically at phi = 1 (every quantity carried
    on it is one record-period of a periodic function), then a natural cubic
    spline is evaluated at ``phi(t_l)``.

    The nodes are ``k/n``, so ``phi`` lies in interval ``floor(phi*n)``, capped at n-1, up to
    the rounding of ``phi*n`` and ``k/n`` when n is not a power of two; one step against
    the nodes themselves (open at both ends) undoes that, so the index is exact.
    """
    values_phase = np.asarray(values_phase, dtype=float)
    n = len(values_phase)
    nodes = np.arange(n + 1) / n
    phi = phase.normalized()
    bounds = np.concatenate(([-np.inf], nodes[1:-1], [np.inf]))
    i = (phi * n).clip(0, n - 1).astype(np.intp)
    i = i - (bounds[i] > phi) + (bounds[i + 1] <= phi)
    return _spline(nodes, np.append(values_phase, values_phase[0]), phi, i)
