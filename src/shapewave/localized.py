"""Windowed shape extraction: track how the shape function drifts over time.

The record is cut into phase-localized segments around chosen center
samples.  A segment spans ``floor(mu)`` whole oscillation periods on each
side of its center (2*floor(mu) periods total, clipped to whole periods at
the record boundaries) and is tapered by a raised cosine that falls to zero
exactly at the segment edges.  Each tapered segment then goes through the
whole-signal extraction with its own period count, producing one shape
function per center; segments with equal period count, grid and band limit
share one stacked resample, rank-1 fit and back-interpolation.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .core import PhaseFunction, ShapeFunction, Signal, _check_sample_count, _whole_periods
from .errors import CenterOutOfRange, InvalidArgument, ShapewaveError, WindowTooShort
from .extract import _check_band_limit, _fit_stack, _grid_and_bands, _padded, _pair_distances

#: Taper level below which the de-biased envelope is considered unreliable.
TAPER_RELIABLE = 0.1

#: Centers cut and fitted per pass.  Every window of a stack holds a few
#: length-n spline buffers at once, so this bounds the working set: on a
#: default example1 track, 8 raise the peak RSS over per-window splines by
#: about 0.3 MB, 10 by about 0.9 MB and 16 by about 3 MB.
WINDOW_CHUNK = 8


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
    envelopes: list


def raised_cosine_taper(delta_theta, half_periods_left, half_periods_right=None):
    """Taper that is 1 at phase offset 0 and 0 at the window edges.

    The edges sit at ``-2*pi*half_periods_left`` and
    ``+2*pi*half_periods_right``; each side is scaled so the cosine reaches
    its zero exactly there.  The period counts are scalars or arrays that
    broadcast against ``delta_theta``, one count per offset.
    """
    if half_periods_right is None:
        half_periods_right = half_periods_left
    delta_theta = np.asarray(delta_theta, dtype=float)
    scale = 2.0 * np.where(delta_theta < 0, half_periods_left, half_periods_right)
    # a side with no periods has no extent: only its edge, offset 0, is in
    # it, and the taper is 1 there
    ratio = np.divide(delta_theta, scale, out=np.zeros_like(delta_theta), where=scale != 0)
    return 0.5 * (1.0 + np.cos(ratio))


def _half_periods(mu) -> int:
    """The whole periods per side of a window of half-width ``mu``: ``floor(mu)``, for 1 <= mu < inf."""
    if not 1.0 <= mu < np.inf:
        raise InvalidArgument(f"mu must be >= 1, got {mu}")
    return int(mu)


def window_segment(signal: Signal, phase: PhaseFunction, center: int, mu: float = 3.0):
    """Cut and taper the phase-localized segment around sample ``center`` of a validated record.

    A window is a run of the record's samples, so it is checked only for its
    sample count and its whole-period count.

    Parameters
    ----------
    center : int
        Index of the center sample.
    mu : float
        Window half-width in whole periods, 1 <= mu < inf; ``floor(mu)``
        periods are taken on each side, fewer where the record ends.

    Returns
    -------
    (Signal, PhaseFunction, ndarray)
        The tapered segment, its phase restriction, and the taper values.
        The segment's times and phases are views of the record's arrays.

    Raises
    ------
    InvalidArgument
        If ``mu`` is out of range or ``center`` is not a whole number.
    CenterOutOfRange
        If ``center`` is not a sample index of the record.
    WindowTooShort
        If fewer than two whole periods are available around the center.
    TooShort, NotNearIntegerPeriods, TooFewPeriods
        If the window fails a record's sample-count or period-count rule.
    """
    half = _half_periods(mu)
    if not (isinstance(center, numbers.Real) and math.isfinite(center) and center == int(center)):
        raise InvalidArgument(f"center must be a whole sample index, got {center!r}")
    (cut,) = _cut_windows(signal, phase, [int(center)], half)
    if isinstance(cut, ShapewaveError):
        raise cut
    return cut


def _cut_windows(signal: Signal, phase: PhaseFunction, centers, half: int) -> list:
    """Cut and taper the windows around sample indices ``centers`` in one pass.

    One ``searchsorted`` finds every window's bounds and one taper
    evaluation covers all windows.  Returns one entry per center: the
    (segment, phase, taper) triple of :func:`window_segment`, or the
    :class:`ShapewaveError` it raises for that center.
    """
    theta = phase.phases
    n_samples = signal.n_samples
    cuts: list = [None if 0 <= c < n_samples else
                  CenterOutOfRange(f"center index {c} out of range for {n_samples} samples")
                  for c in centers]
    inside = [i for i, cut in enumerate(cuts) if cut is None]
    theta_m = theta[[centers[i] for i in inside]]
    # count whole periods tolerantly so boundary samples are not lost to
    # floating-point representation of the phase; the counts stay floats,
    # so a mu past the float range takes every period in reach
    eps = 1e-9
    half = float(min(half, sys.float_info.max))
    left = np.minimum(half, np.floor((theta_m - theta[0]) / (2.0 * np.pi) + eps))
    right = np.minimum(half, np.floor((theta[-1] - theta_m) / (2.0 * np.pi) + eps))
    totals = left + right
    for i, total in zip(inside, totals.tolist()):
        if total < 2:
            cuts[i] = WindowTooShort(f"only {int(total)} whole periods available around sample {centers[i]}")
    keep = totals >= 2
    if not np.any(keep):
        return cuts
    inside = [i for i, kept in zip(inside, keep.tolist()) if kept]
    theta_m, left, right = theta_m[keep], left[keep], right[keep]
    # the phase increases strictly, so each window is one run of samples
    starts = np.searchsorted(theta, theta_m - 2.0 * np.pi * left - eps, "left")
    stops = np.searchsorted(theta, theta_m + 2.0 * np.pi * right + eps, "right")
    bounds = list(zip(starts.tolist(), stops.tolist()))
    # the windows back to back: phase offsets, tapers and tapered values
    counts = stops - starts
    offsets = np.concatenate([theta[start:stop] for start, stop in bounds])
    offsets -= np.repeat(theta_m, counts)
    chi = raised_cosine_taper(offsets, np.repeat(left, counts), np.repeat(right, counts))
    values = np.concatenate([signal.values[start:stop] for start, stop in bounds])
    values *= chi
    end = 0
    for i, (start, stop) in zip(inside, bounds):
        window = slice(end, end + stop - start)
        end = window.stop
        try:
            _check_sample_count(stop - start)
            segment_phase = PhaseFunction(phases=theta[start:stop], l_theta=_whole_periods(theta[start:stop]))
        except ShapewaveError as exc:
            cuts[i] = exc
        else:
            cuts[i] = (Signal(times=signal.times[start:stop], values=values[window]), segment_phase, chi[window])
    return cuts


def default_centers(signal: Signal, phase: PhaseFunction, mu: float = 3.0) -> np.ndarray:
    """Center indices giving about eight shape estimates per period of travel.

    Only centers whose full +-floor(mu)-period window fits inside the record
    are returned.
    """
    samples_per_period = signal.n_samples / phase.l_theta
    stride = max(1, int(round(samples_per_period / 8.0)))
    margin = 2.0 * np.pi * _half_periods(mu)
    theta = phase.phases
    ok = (theta - theta[0] >= margin) & (theta[-1] - theta >= margin)
    candidates = np.arange(0, signal.n_samples, stride)
    return candidates[ok[candidates]]


def extract_shape_track(signal: Signal, phase: PhaseFunction, centers=None, mu: float = 3.0,
                        band_limit: int | None = None) -> ShapeTrack:
    """Extract one shape function per window center.

    Per-center failures (a ``band_limit`` past a window's Nyquist among them)
    are recorded and the track continues; the drift sequence holds the shape
    distance between consecutive successful shapes.  The envelope reported
    for each window is de-biased by the taper where the taper exceeds
    ``TAPER_RELIABLE`` and set to NaN elsewhere.

    The windows are cut and fitted ``WINDOW_CHUNK`` centers at a time: each
    chunk is cut in one pass, and its windows that share their period count,
    grid and band limit are fitted as one stack.  Each window's shape and
    envelope equal those of :func:`extract_shape` on its own segment with the
    same ``band_limit``, and each drift equals :func:`shape_distance` of its pair.
    A ``mu`` or ``band_limit`` out of range, or a NaN or infinite center,
    raises :class:`InvalidArgument`; finite centers are truncated to sample
    indices.
    """
    half = _half_periods(mu)
    if band_limit is not None:
        _check_band_limit(band_limit)
    if centers is None:
        center_idx = default_centers(signal, phase, mu)
    else:
        try:
            center_idx = np.asarray(sorted(int(c) for c in centers), dtype=int)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidArgument(f"centers must be finite sample indices: {exc}") from exc

    count = len(center_idx)
    shapes: list[ShapeFunction | None] = [None] * count
    envelopes: list[np.ndarray | None] = [None] * count
    errors: list[str | None] = [None] * count
    for start in range(0, count, WINDOW_CHUNK):
        groups: dict[tuple, list] = {}
        chunk = center_idx[start : start + WINDOW_CHUNK].tolist()
        for i, cut in enumerate(_cut_windows(signal, phase, chunk, half), start):
            if isinstance(cut, ShapewaveError):
                errors[i] = _describe(cut)
                continue
            segment, segment_phase, chi = cut
            m = segment_phase.l_theta
            key = (m, *_grid_and_bands(segment.n_samples, m, None, band_limit))
            groups.setdefault(key, []).append((i, segment, segment_phase, chi))
        for (_, n, k_max), members in groups.items():
            for i, shape, env, error in _fit_windows(members, n, k_max):
                shapes[i], envelopes[i], errors[i] = shape, env, error

    # an out-of-range center has no time; its window failed above
    center_times = np.full(len(center_idx), np.nan)
    inside = (center_idx >= 0) & (center_idx < signal.n_samples)
    center_times[inside] = signal.times[center_idx[inside]]
    return ShapeTrack(
        center_indices=center_idx,
        center_times=center_times,
        shapes=shapes,
        drift=_drift(shapes),
        errors=errors,
        envelopes=envelopes,
    )


def _describe(exc: ShapewaveError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _fit_windows(members, n: int, k_max: int) -> list[tuple]:
    """Fit windows that share l_theta, grid n and band count K as one stack.

    ``members`` are (index, segment, segment phase, taper) tuples.  Returns
    (index, shape, envelope, error text) per window.  A failure of the
    stack is attributed by fitting its windows one by one, so one bad window
    never costs its neighbours their fit.
    """
    records = [(segment, segment_phase) for _, segment, segment_phase, _ in members]
    try:
        _, coeffs, _, values_time = _fit_stack(records, n, k_max)
    except ShapewaveError as exc:
        if len(members) == 1:
            return [(members[0][0], None, None, _describe(exc))]
        return [out for member in members for out in _fit_windows([member], n, k_max)]
    lengths = [len(chi) for *_, chi in members]
    taper = np.concatenate([chi for *_, chi in members])
    # one array for the stack's de-biased envelopes, allocated after its splines: with an array
    # per window, malloc returned the splines' freed buffers to the system after every stack,
    # and a default track took about 3 500 page faults instead of about 500
    envelopes = np.divide(values_time, taper, out=np.full(len(taper), np.nan), where=taper > TAPER_RELIABLE)
    return [(i, ShapeFunction(coeffs=c), env, None)
            for (i, *_), c, env in zip(members, coeffs, np.split(envelopes, np.cumsum(lengths[:-1])))]


def _drift(shapes) -> np.ndarray:
    """Shape distance of each window to its predecessor: 0 first, NaN beside a failure.

    Pairs are compared in one batch per common band limit, so each value is
    that of :func:`shape_distance` on the pair.
    """
    drift = np.full(len(shapes), np.nan)
    if shapes and shapes[0] is not None:
        drift[0] = 0.0
    by_band_limit: dict[int, list[int]] = {}
    for i in range(1, len(shapes)):
        if shapes[i - 1] is not None and shapes[i] is not None:
            k_max = max(shapes[i - 1].band_limit, shapes[i].band_limit)
            by_band_limit.setdefault(k_max, []).append(i)
    for k_max, idx in by_band_limit.items():
        drift[idx] = _pair_distances(_padded([shapes[i - 1] for i in idx], k_max),
                                     _padded([shapes[i] for i in idx], k_max))
    return drift
