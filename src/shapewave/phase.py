"""Phase functions: pass through exact samples, or estimate one from data.

The estimator is a deliberately simple surrogate for a full data-driven
phase solver: it isolates the spectral band around the dominant fundamental,
forms the one-sided (analytic) signal of that band, unwraps its angle and
low-pass smooths the deviation from the linear trend.  It is adequate when
the signal has one dominant oscillation whose harmonics are well separated,
which is exactly the regime the extraction pipeline targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MIN_PERIODS, PhaseFunction, Signal, validate_phase
from .errors import AmbiguousFundamental, DegenerateInput, InvalidArgument, NonMonotoneEstimate
from .transform import natural_cubic_spline

#: Required magnitude margin of the dominant spectral peak over the runner-up.
PEAK_MARGIN = 1.05

#: Half-width of the band isolated around the fundamental, as a fraction of it.
BANDWIDTH = 0.5


@dataclass(frozen=True)
class PhaseEstimateConfig:
    """Tuning knobs of the phase estimator.

    ``fundamental_hint`` pins the fundamental (in cycles over the record)
    instead of searching for it; ``smoothing_cutoff`` is the spectral cutoff
    applied to the unwrapped-phase deviation, as a fraction of the
    fundamental.
    """

    fundamental_hint: float | None = None
    smoothing_cutoff: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.smoothing_cutoff <= 0.5:
            raise InvalidArgument(f"smoothing_cutoff must be in (0, 0.5], got {self.smoothing_cutoff}")


def _isolation_band(center, size: int):
    """Inclusive bounds of the bins 1..size-1 within ``BANDWIDTH * center`` of each bin ``center``."""
    lo = np.maximum(1, np.ceil(center * (1.0 - BANDWIDTH)).astype(int))
    hi = np.minimum(size - 1, np.floor(center * (1.0 + BANDWIDTH)).astype(int))
    return lo, hi


def _dominant_peak(magnitude: np.ndarray) -> int:
    """Index of the dominant local maximum of the one-sided spectrum.

    Bins below ``MIN_PERIODS`` cycles per record are not candidates: no
    valid phase function has fewer whole periods than that, and the region
    below half a plausible fundamental belongs to the envelope.  Local
    maxima inside the strongest peak's own isolation band (within
    ``BANDWIDTH`` of it) are sidebands of the same oscillation, not rival
    fundamentals; raises AmbiguousFundamental if any peak *outside* that
    band comes within ``PEAK_MARGIN`` of the strongest one.
    """
    mag = magnitude.copy()
    mag[:MIN_PERIODS] = 0.0
    interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
    peaks = np.flatnonzero(interior) + 1
    if len(peaks) == 0:
        return int(np.argmax(mag))
    best = int(peaks[np.argmax(mag[peaks])])

    def band_power(center: int) -> float:
        lo, hi = _isolation_band(center, len(mag))
        return float(np.mean(mag[lo : hi + 1] ** 2))

    lo, hi = _isolation_band(best, len(mag))
    rivals = peaks[(peaks < lo) | (peaks > hi)]
    if len(rivals):
        # every rival's band power from one prefix sum; the exact mean is
        # taken only for the rivals within the prefix sum's rounding bound
        # of the strongest, so the choice is that of the exact means
        energy = np.concatenate(([0.0], np.cumsum(mag**2)))
        lo, hi = _isolation_band(rivals, len(mag))
        count = hi + 1 - lo
        approx = (energy[hi + 1] - energy[lo]) / count
        slack = 4 * len(mag) * np.finfo(float).eps * energy[-1] / count
        finalists = rivals[approx + slack >= np.max(approx - slack)]
        rival = int(finalists[np.argmax([band_power(int(r)) for r in finalists])])
        if band_power(best) < PEAK_MARGIN * band_power(rival):
            raise AmbiguousFundamental(
                f"spectral bands around bins {best} and {rival} hold comparable "
                f"power; no fundamental dominates by {100 * (PEAK_MARGIN - 1):.0f}%"
            )
    return best


def estimate_phase(signal: Signal, config: PhaseEstimateConfig | None = None) -> PhaseFunction:
    """Estimate a smooth, strictly increasing phase for a one-component signal.

    Steps: resample to a uniform grid if needed, locate the fundamental,
    isolate the band around it, take the angle of the analytic signal of
    that band, unwrap, and low-pass the deviation from the endpoint-matched
    linear trend so the phase derivative is positive and slowly varying.

    The endpoints of the estimate are the least reliable part; accuracy
    statements apply to the interior of the record.

    Raises
    ------
    DegenerateInput
        The signal is identically zero, so it has no oscillation to follow.
    AmbiguousFundamental
        No sufficiently dominant spectral peak (and no hint given).
    NonMonotoneEstimate
        The smoothed phase is not strictly increasing.
    """
    if config is None:
        config = PhaseEstimateConfig()
    times = signal.times
    values = signal.values
    if not np.any(values):
        raise DegenerateInput("signal is identically zero; it has no phase to estimate")
    # the phase does not depend on the amplitude: scaled exactly, by a power of
    # two, to a peak in [0.5, 1), the spectrum and its squares stay in range
    values = np.ldexp(values, -np.frexp(np.max(np.abs(values)))[1])
    # nor on the time unit: with the span scaled the same way into [0.5, 1), the
    # splines' cubic terms neither overflow nor underflow (halved, the span is finite)
    times = np.ldexp(times, -np.frexp(times[-1] / 2 - times[0] / 2)[1] - 1)
    n = len(values)
    steps = np.diff(times)
    uniform = np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
    if uniform:
        grid_t = times
        grid_v = values
    else:
        grid_t = np.linspace(times[0], times[-1], n)
        grid_v = natural_cubic_spline(times, values, grid_t)

    half_spectrum = np.fft.rfft(grid_v)
    magnitude = np.abs(half_spectrum)
    hint = config.fundamental_hint
    if hint is not None:
        if not (np.isfinite(hint) and 1 <= round(hint) < len(magnitude)):
            raise InvalidArgument(f"fundamental hint {hint} out of range")
        fundamental = int(round(hint))
    else:
        fundamental = _dominant_peak(magnitude)

    def unwrap_band(center: int) -> np.ndarray:
        lo, hi = _isolation_band(center, len(magnitude))
        one_sided = np.zeros(n, dtype=complex)
        one_sided[lo : hi + 1] = half_spectrum[lo : hi + 1]
        analytic = np.fft.ifft(2.0 * one_sided)
        return np.unwrap(np.angle(analytic))

    # the strongest sideband may sit off the true fundamental; re-center the
    # isolation band on the cycle count the unwrapped angle reports, at most
    # twice, stopping once the count agrees with the band's center
    raw = unwrap_band(fundamental)
    for _ in range(2):
        cycles = int(round((raw[-1] - raw[0]) / (2.0 * np.pi)))
        if cycles == fundamental or not MIN_PERIODS <= cycles < len(magnitude):
            break
        fundamental = cycles
        raw = unwrap_band(fundamental)

    trend = raw[0] + (raw[-1] - raw[0]) * np.arange(n) / (n - 1)
    deviation = raw - trend
    cutoff = config.smoothing_cutoff * max(1, int(round((raw[-1] - raw[0]) / (2.0 * np.pi))))
    dev_hat = np.fft.fft(deviation)
    freq_index = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    dev_hat[freq_index >= cutoff] = 0.0
    smooth = trend + np.fft.ifft(dev_hat).real

    if not uniform:
        smooth = natural_cubic_spline(grid_t, smooth, times)
    if np.any(np.diff(smooth) <= 0.0):
        raise NonMonotoneEstimate("estimated phase is not strictly increasing after smoothing")
    return validate_phase(signal, smooth)


def exact_phase_from_samples(signal: Signal, phases) -> PhaseFunction:
    """Validate caller-supplied phase samples against the signal."""
    return validate_phase(signal, np.asarray(phases, dtype=float))
