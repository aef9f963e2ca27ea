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

from dataclasses import dataclass, field

import numpy as np

from .core import PhaseFunction, ShapeFunction, Signal, validate_phase, validate_signal
from .errors import CenterOutOfRange, InvalidArgument, ShapewaveError, WindowTooShort
from .extract import _band_block, _fit_stack, _grid_and_bands, _padded, _pair_distances

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
    # a side with no periods has no extent: only its edge, offset 0, is in
    # it, and an infinite scale keeps the taper 1 there
    left, right = (2.0 * half if half else np.inf for half in (half_periods_left, half_periods_right))
    scale = np.where(delta_theta < 0, left, right)
    return 0.5 * (1.0 + np.cos(delta_theta / scale))


def window_segment(signal: Signal, phase: PhaseFunction, center: int, mu: float = 3.0):
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
        The segment's times and phases are views of the record's arrays.

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
    # the phase increases strictly, so the window is one run of samples
    idx = slice(np.searchsorted(theta, lo - eps, "left"), np.searchsorted(theta, hi + eps, "right"))
    chi = raised_cosine_taper(theta[idx] - theta_m, periods_left, periods_right)
    segment = validate_signal(signal.times[idx], signal.values[idx] * chi)
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
                        band_limit: int | None = None) -> ShapeTrack:
    """Extract one shape function per window center.

    Per-center failures (a ``band_limit`` past a window's Nyquist among them)
    are recorded and the track continues; the drift sequence holds the shape
    distance between consecutive successful shapes.  The envelope reported
    for each window is de-biased by the taper where the taper exceeds
    ``TAPER_RELIABLE`` and set to NaN elsewhere.

    Windows that share their period count, grid and band limit are fitted as
    one stack, ``WINDOW_CHUNK`` centers at a time.  Each window's shape and
    envelope equal those of :func:`extract_shape` on its own segment with the
    same ``band_limit``, and each drift equals :func:`shape_distance` of its pair.
    A ``mu`` or ``band_limit`` out of range raises :class:`InvalidArgument`.
    """
    if not 1.0 <= mu < np.inf:
        raise InvalidArgument(f"mu must be >= 1, got {mu}")
    if centers is None:
        center_idx = default_centers(signal, phase, mu)
    else:
        center_idx = np.asarray(sorted(int(c) for c in centers), dtype=int)

    count = len(center_idx)
    shapes: list[ShapeFunction | None] = [None] * count
    envelopes: list[np.ndarray | None] = [None] * count
    errors: list[str | None] = [None] * count
    for start in range(0, count, WINDOW_CHUNK):
        groups: dict[tuple, list] = {}
        for i in range(start, min(start + WINDOW_CHUNK, count)):
            try:
                segment, segment_phase, chi = window_segment(signal, phase, int(center_idx[i]), mu)
            except ShapewaveError as exc:
                errors[i] = _describe(exc)
                continue
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
        _, blocks = _band_block(records, n, k_max)
        _, coeffs, _, values_time = _fit_stack(records, blocks, n)
    except ShapewaveError as exc:
        if len(members) == 1:
            return [(members[0][0], None, None, _describe(exc))]
        return [out for member in members for out in _fit_windows([member], n, k_max)]
    # one store for the stack's de-biased envelopes, allocated after its splines: with an array
    # per window, malloc returned the splines' freed buffers to the system after every stack,
    # and a default track took about 3 500 page faults instead of about 500
    store = np.full(sum(len(env) for env in values_time), np.nan)
    outcomes = []
    lo = 0
    for (i, _, _, chi), c, env in zip(members, coeffs, values_time):
        env = np.divide(env, chi, out=store[lo : lo + len(env)], where=chi > TAPER_RELIABLE)
        lo += len(env)
        outcomes.append((i, ShapeFunction(coeffs=c), env, None))
    return outcomes


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
