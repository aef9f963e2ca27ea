"""Windowed shape extraction: track how the shape function drifts over time.

The record is cut into phase-localized segments around chosen center
samples.  A segment spans ``floor(mu)`` whole oscillation periods on each
side of its center (2*floor(mu) periods total, clipped to whole periods at
the record boundaries) and is tapered by a raised cosine that falls to zero
exactly at the segment edges.  Each tapered segment then goes through the
whole-signal extraction with its own period count, producing one shape
function per center; segments with equal period count, grid and band limit
share one stacked resample, rank-1 fit and envelope evaluation; a default
segment's envelope is a trigonometric polynomial of two harmonics, summed
directly at the segment's samples.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .core import PhaseFunction, ShapeFunction, Signal, _check_sample_count, _whole_periods
from .errors import CenterOutOfRange, InvalidArgument, ShapewaveError, WindowTooShort
from .extract import (_check_band_limit, _fit_stack, _grid_and_bands, _padded, _pair_distances,
                      _within_float_range)

#: Taper level below which the de-biased envelope is considered unreliable.
TAPER_RELIABLE = 0.1

#: Most windows cut and fitted as one stack.  Every window of a stack holds a
#: few length-n resample buffers at once, so this bounds the working set: on a
#: default example1 track, 8 raise the peak RSS over one window per stack by
#: about 0.5 MB, 10 by about 0.9 MB and 16 by about 1.4 MB, and neither 10
#: nor 16 is faster than 8.
WINDOW_CHUNK = 8

#: Tolerance of a window's whole-period counts (in periods) and bounds (in radians).
_EPS = 1e-9


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


def _half_periods(mu) -> float:
    """The whole periods per side of a window of half-width ``mu``: ``floor(mu)``, for 1 <= mu < inf.

    A float, so that a ``mu`` past the float range takes every period in reach."""
    if not 1.0 <= mu < np.inf:
        raise InvalidArgument(f"mu must be >= 1, got {mu}")
    return float(min(int(mu), sys.float_info.max))


def _periods_per_side(theta: np.ndarray, theta_m, half: float):
    """Whole periods of ``theta`` before and after each center phase ``theta_m``, at most ``half``.

    Counted tolerantly, so boundary samples are not lost to the phase's rounding."""
    left = np.minimum(half, np.floor((theta_m - theta[0]) / (2.0 * np.pi) + _EPS))
    right = np.minimum(half, np.floor((theta[-1] - theta_m) / (2.0 * np.pi) + _EPS))
    return left, right


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
    (window,) = _windows(phase.phases, [int(center)], half)
    if isinstance(window, ShapewaveError):
        raise window
    start, stop, l_theta = window[:3]
    (phases,), values, chi = _cut(phase.phases, signal.values, [window])
    return Signal(times=signal.times[start:stop], values=values), PhaseFunction(phases, l_theta), chi


def _windows(theta: np.ndarray, centers: list, half: float) -> list:
    """Find the window around each of the sample indices ``centers`` of phase ``theta`` in one pass.

    One ``searchsorted`` per side finds every window's bounds.  Returns one
    entry per center: (start, stop, l_theta, center phase, periods left,
    periods right), or the :class:`ShapewaveError` that :func:`window_segment`
    raises for that center.
    """
    n_samples = len(theta)
    theta_m = theta[[min(max(c, 0), n_samples - 1) for c in centers]]
    left, right = _periods_per_side(theta, theta_m, half)
    # the phase increases strictly, so each window is one run of samples
    starts = np.searchsorted(theta, theta_m - 2.0 * np.pi * left - _EPS, "left")
    stops = np.searchsorted(theta, theta_m + 2.0 * np.pi * right + _EPS, "right")
    windows: list = []
    for c, start, stop, center, periods_left, periods_right in zip(
            centers, starts.tolist(), stops.tolist(), theta_m.tolist(), left.tolist(), right.tolist()):
        try:
            if not 0 <= c < n_samples:
                raise CenterOutOfRange(f"center index {c} out of range for {n_samples} samples")
            if periods_left + periods_right < 2:
                raise WindowTooShort(f"only {int(periods_left + periods_right)} whole periods "
                                     f"available around sample {c}")
            _check_sample_count(stop - start)
            windows.append((start, stop, _whole_periods(theta[start:stop]), center, periods_left, periods_right))
        except ShapewaveError as exc:
            windows.append(exc)
    return windows


def _cut(theta: np.ndarray, values: np.ndarray, windows: list):
    """Cut and taper found windows of a record in one pass.

    Returns the windows' phases (views of ``theta``), their tapered values
    back to back, and their tapers back to back; one taper evaluation
    covers all windows.
    """
    starts, stops, _, theta_m, left, right = zip(*windows)
    phases = [theta[start:stop] for start, stop in zip(starts, stops)]
    counts = [len(p) for p in phases]
    cut = np.concatenate([values[start:stop] for start, stop in zip(starts, stops)])
    offsets = np.concatenate(phases)
    offsets -= np.repeat(theta_m, counts)
    chi = raised_cosine_taper(offsets, np.repeat(left, counts), np.repeat(right, counts))
    cut *= chi
    return phases, cut, chi


def default_centers(signal: Signal, phase: PhaseFunction, mu: float = 3.0) -> np.ndarray:
    """Center indices giving about eight shape estimates per period of travel.

    Only centers whose window counts floor(mu) whole periods on both sides
    are returned.
    """
    samples_per_period = signal.n_samples / phase.l_theta
    stride = max(1, int(round(samples_per_period / 8.0)))
    half = _half_periods(mu)
    candidates = np.arange(0, signal.n_samples, stride)
    left, right = _periods_per_side(phase.phases, phase.phases[candidates], half)
    return candidates[(left == half) & (right == half)]


def extract_shape_track(signal: Signal, phase: PhaseFunction, centers=None, mu: float = 3.0,
                        band_limit: int | None = None) -> ShapeTrack:
    """Extract one shape function per window center.

    Per-center failures (a ``band_limit`` past a window's Nyquist among them)
    are recorded and the track continues; the drift sequence holds the shape
    distance between consecutive successful shapes.  The envelope reported
    for each window is de-biased by the taper where the taper exceeds
    ``TAPER_RELIABLE`` and set to NaN elsewhere.

    Every window of the track is found in one pass and grouped by its period
    count, grid and band limit; each group is fitted in stacks of at most
    ``WINDOW_CHUNK`` windows, each stack cut in one pass.  Each window's shape
    and envelope equal those of :func:`extract_shape` on its own segment with
    the same ``band_limit``, and each drift equals :func:`shape_distance` of
    its pair.
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
    windows = _windows(phase.phases, center_idx.tolist(), half)
    groups: dict[tuple, list] = {}
    for i, window in enumerate(windows):
        if isinstance(window, ShapewaveError):
            errors[i] = _describe(window)
        else:
            start, stop, m = window[:3]
            groups.setdefault((m, *_grid_and_bands(stop - start, m, None, band_limit)), []).append((i, window))
    for (m, n, k_max), members in groups.items():
        for j in range(0, len(members), WINDOW_CHUNK):
            for i, shape, env, error in _fit_windows(signal, phase, members[j : j + WINDOW_CHUNK], m, n, k_max):
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


def _fit_windows(signal: Signal, phase: PhaseFunction, members, m: int, n: int, k_max: int) -> list[tuple]:
    """Cut windows that share l_theta m, grid n and band count K in one pass and fit them as one stack.

    ``members`` are (index, window) pairs of :func:`_windows`.  Returns
    (index, shape, envelope, error text) per window.  A failure of the
    stack is attributed by fitting its windows one by one, so one bad window
    never costs its neighbours their fit.
    """
    phases, values, chi = _cut(phase.phases, signal.values, [window for _, window in members])
    try:
        _, coeffs, _, values_time, _ = _fit_stack(phases, values, m, n, k_max)
        reliable = chi > TAPER_RELIABLE
        # the de-biased envelopes overwrite the stack's envelope values: a second array (or one per
        # window) lets malloc hand the stack's freed buffers back to the system after every stack, and
        # a default track takes about two thirds more page faults
        with _within_float_range("de-tapered envelope"):
            envelopes = np.divide(values_time, chi, out=values_time, where=reliable)
    except ShapewaveError as exc:
        if len(members) == 1:
            return [(members[0][0], None, None, _describe(exc))]
        return [out for member in members for out in _fit_windows(signal, phase, [member], m, n, k_max)]
    envelopes[~reliable] = np.nan
    envelopes = np.split(envelopes, np.cumsum([len(p) for p in phases[:-1]]))
    return [(i, ShapeFunction(coeffs=c), env, None) for (i, _), c, env in zip(members, coeffs, envelopes)]


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
