"""Windowed shape extraction: track how the shape function drifts over time.

The record is cut into phase-localized segments around chosen center
samples.  A segment spans ``floor(mu)`` whole oscillation periods on each
side of its center (2*floor(mu) periods total, clipped to whole periods at
the record boundaries) and is tapered by a raised cosine that falls to zero
exactly at the segment edges.  Each tapered segment then goes through the
whole-signal extraction with its own period count, producing one shape
function per center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ExtractionResult, PhaseFunction, ShapeFunction, Signal, validate_phase, validate_signal
from .errors import CenterOutOfRange, ShapewaveError, WindowTooShort
from .extract import default_band_limit, extract_shape, shape_distance
from .transform import default_grid_size

#: Taper level below which the de-biased envelope is considered unreliable.
TAPER_RELIABLE = 0.1


@dataclass(frozen=True)
class WindowSpec:
    """Configuration of the sliding extraction windows.

    ``mu`` is the half-width of each window in whole periods (the fractional
    part is ignored when cutting, so a window spans ``2*floor(mu)`` periods);
    ``centers`` are sample indices; ``taper`` disables the raised cosine when
    False.
    """

    mu: float = 3.0
    centers: tuple[int, ...] = ()
    taper: bool = True

    def __post_init__(self):
        if self.mu < 1.0:
            raise ValueError(f"mu must be >= 1, got {self.mu}")


@dataclass(frozen=True)
class ShapeTrack:
    """Per-center extraction results in center order.

    ``drift[i]`` is the shape distance between the shapes at centers i-1 and
    i (0 for the first entry, NaN when either side failed).  Failures are
    recorded as messages in ``errors`` and leave None entries elsewhere; a
    center outside the record also has a NaN ``center_times`` entry.
    """

    center_indices: np.ndarray
    center_times: np.ndarray
    shapes: list
    drift: np.ndarray
    errors: list
    envelopes: list = field(default_factory=list)


def raised_cosine_taper(delta_theta, half_periods_left: int, half_periods_right: int | None = None):
    """Taper that is 1 at phase offset 0 and 0 at the window edges.

    The edges sit at ``-2*pi*half_periods_left`` and
    ``+2*pi*half_periods_right``; each side is scaled so the cosine reaches
    its zero exactly there.
    """
    if half_periods_right is None:
        half_periods_right = half_periods_left
    delta_theta = np.asarray(delta_theta, dtype=float)
    scale = np.where(delta_theta < 0, 2.0 * half_periods_left, 2.0 * half_periods_right)
    return 0.5 * (1.0 + np.cos(delta_theta / scale))


def window_segment(signal: Signal, phase: PhaseFunction, center: int, mu: float = 3.0,
                   taper: bool = True):
    """Cut and taper the phase-localized segment around sample ``center``.

    Parameters
    ----------
    center : int
        Index of the center sample.
    mu : float
        Window half-width in whole periods; ``floor(mu)`` periods are taken
        on each side, fewer where the record ends (always a whole number).

    Returns
    -------
    (Signal, PhaseFunction, ndarray)
        The tapered segment, its phase restriction, and the taper values.

    Raises
    ------
    CenterOutOfRange
        If ``center`` is not a sample index of the record.
    WindowTooShort
        If fewer than two whole periods are available around the center.
    """
    if not 0 <= center < signal.n_samples:
        raise CenterOutOfRange(f"center index {center} out of range for {signal.n_samples} samples")
    half = int(mu)
    theta = phase.phases
    theta_m = theta[center]
    # count whole periods tolerantly so boundary samples are not lost to
    # floating-point representation of the phase
    eps = 1e-9
    periods_left = min(half, int((theta_m - theta[0]) / (2.0 * np.pi) + eps))
    periods_right = min(half, int((theta[-1] - theta_m) / (2.0 * np.pi) + eps))
    if periods_left + periods_right < 2:
        raise WindowTooShort(
            f"only {periods_left + periods_right} whole periods available around sample {center}"
        )
    lo = theta_m - 2.0 * np.pi * periods_left
    hi = theta_m + 2.0 * np.pi * periods_right
    idx = np.flatnonzero((theta >= lo - eps) & (theta <= hi + eps))
    values = signal.values[idx]
    chi = raised_cosine_taper(theta[idx] - theta_m, periods_left, periods_right)
    if taper:
        values = values * chi
    segment = validate_signal(signal.times[idx], values)
    segment_phase = validate_phase(segment, theta[idx])
    return segment, segment_phase, chi


def default_centers(signal: Signal, phase: PhaseFunction, mu: float = 3.0) -> np.ndarray:
    """Center indices giving about eight shape estimates per period of travel.

    Only centers whose full +-floor(mu)-period window fits inside the record
    are returned.
    """
    samples_per_period = signal.n_samples / phase.l_theta
    stride = max(1, int(round(samples_per_period / 8.0)))
    margin = 2.0 * np.pi * int(mu)
    theta = phase.phases
    ok = (theta - theta[0] >= margin) & (theta[-1] - theta >= margin)
    candidates = np.arange(0, signal.n_samples, stride)
    return candidates[ok[candidates]]


def extract_shape_track(signal: Signal, phase: PhaseFunction, centers=None, mu: float = 3.0,
                        band_limit: int | None = None, taper: bool = True) -> ShapeTrack:
    """Extract one shape function per window center.

    Per-center failures are recorded and the track continues; the drift
    sequence holds the shape distance between consecutive successful shapes.
    The envelope reported for each window is de-biased by the taper where the
    taper exceeds ``TAPER_RELIABLE`` and set to NaN elsewhere.
    """
    spec = WindowSpec(mu=mu, centers=tuple(int(c) for c in (centers if centers is not None else ())),
                      taper=taper)
    if centers is None:
        center_idx = default_centers(signal, phase, mu)
    else:
        center_idx = np.asarray(sorted(spec.centers), dtype=int)

    shapes: list[ShapeFunction | None] = []
    envelopes: list[np.ndarray | None] = []
    errors: list[str | None] = []
    for center in center_idx:
        try:
            segment, segment_phase, chi = window_segment(signal, phase, int(center), mu, taper=taper)
            k = band_limit
            feasible = default_band_limit(
                default_grid_size(segment.n_samples, segment_phase.l_theta),
                segment_phase.l_theta,
            )
            k = feasible if k is None else min(k, feasible)
            result: ExtractionResult = extract_shape(segment, segment_phase, band_limit=k)
            env = result.envelope.values_time.copy()
            if taper:
                reliable = chi > TAPER_RELIABLE
                env[reliable] = env[reliable] / chi[reliable]
                env[~reliable] = np.nan
            shapes.append(result.shape)
            envelopes.append(env)
            errors.append(None)
        except ShapewaveError as exc:
            shapes.append(None)
            envelopes.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")

    # an out-of-range center has no time; its window failed above
    center_times = np.full(len(center_idx), np.nan)
    inside = (center_idx >= 0) & (center_idx < signal.n_samples)
    center_times[inside] = signal.times[center_idx[inside]]
    drift = np.zeros(len(center_idx))
    for i in range(len(center_idx)):
        if i == 0:
            drift[i] = 0.0 if shapes[i] is not None else np.nan
        elif shapes[i] is None or shapes[i - 1] is None:
            drift[i] = np.nan
        else:
            drift[i] = shape_distance(shapes[i - 1], shapes[i])
    return ShapeTrack(
        center_indices=center_idx,
        center_times=center_times,
        shapes=shapes,
        drift=drift,
        errors=errors,
        envelopes=envelopes,
    )
