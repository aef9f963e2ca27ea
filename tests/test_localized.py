import functools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shapewave as sw
import shapewave.extract
from shapewave.localized import TAPER_RELIABLE, WINDOW_CHUNK, _cut, _drift, _windows

from conftest import TAU_GRID


def linear_phase_signal(n_samples=1024, l_theta=16, values=None):
    """Uniform grid with samples landing exactly on whole-period boundaries."""
    t = np.arange(n_samples) / n_samples
    theta = 2.0 * np.pi * l_theta * t
    if values is None:
        values = np.cos(theta)
    signal = sw.validate_signal(t, values)
    phase = sw.exact_phase_from_samples(signal, theta)
    return signal, phase


def reference_taper(delta_theta, half_periods_left, half_periods_right):
    """The raised-cosine taper as one window's scalar period counts define it."""
    left, right = (2.0 * half if half else np.inf for half in (half_periods_left, half_periods_right))
    scale = np.where(delta_theta < 0, left, right)
    return 0.5 * (1.0 + np.cos(delta_theta / scale))


def reference_window_segment(signal, phase, center, mu):
    """One window cut on its own: the per-window cutter that the chunked one replaced."""
    half = int(mu)
    if not 0 <= center < signal.n_samples:
        raise sw.CenterOutOfRange(f"center index {center} out of range for {signal.n_samples} samples")
    theta = phase.phases
    theta_m = theta[center]
    eps = 1e-9
    periods_left = min(half, int((theta_m - theta[0]) / (2.0 * np.pi) + eps))
    periods_right = min(half, int((theta[-1] - theta_m) / (2.0 * np.pi) + eps))
    if periods_left + periods_right < 2:
        raise sw.WindowTooShort(
            f"only {periods_left + periods_right} whole periods available around sample {center}"
        )
    lo = theta_m - 2.0 * np.pi * periods_left
    hi = theta_m + 2.0 * np.pi * periods_right
    idx = slice(np.searchsorted(theta, lo - eps, "left"), np.searchsorted(theta, hi + eps, "right"))
    chi = reference_taper(theta[idx] - theta_m, periods_left, periods_right)
    if len(chi) < sw.core.MIN_SAMPLES:
        raise sw.TooShort(f"need at least {sw.core.MIN_SAMPLES} samples, got {len(chi)}")
    segment_phase = sw.PhaseFunction(phases=theta[idx], l_theta=sw.core._whole_periods(theta[idx]))
    return sw.Signal(times=signal.times[idx], values=signal.values[idx] * chi), segment_phase, chi


@functools.lru_cache(maxsize=None)
def cutter_record(name):
    """example1; a record whose samples land on whole periods, where the period counts
    need their tolerance; a non-uniform record; and a coarse one (about 7.7 samples a
    period) whose windows fail the sample-count and period-count rules."""
    if name == "example1":
        signal, theta, _ = sw.gen_example1(4096)
    elif name == "aligned":
        # 25 samples a period; near both ends, a whole-period offset divided by
        # 2*pi rounds to just below its whole number
        t = np.arange(951) / 950.0
        theta = 2.0 * np.pi * 38 * t
        signal = sw.validate_signal(t, np.cos(theta))
    else:
        n_samples, periods = (4096, 16) if name == "non-uniform" else (185, 24)
        t = np.sort(np.random.default_rng(5).uniform(0.0, 1.0, n_samples))
        t[0], t[-1] = 0.0, 1.0
        theta = 2.0 * np.pi * periods * t + 0.8 * np.sin(2.0 * np.pi * t)
        signal = sw.validate_signal(t, np.cos(theta + 0.3 * np.sin(theta)))
    return signal, sw.exact_phase_from_samples(signal, theta)


def cut_outcome(cut):
    """A cut as comparable data: the error's class and text, or the window's arrays."""
    if isinstance(cut, Exception):
        return type(cut), str(cut)
    segment, segment_phase, chi = cut
    return segment_phase.l_theta, segment.times, segment.values, segment_phase.phases, chi


def found_and_cut(signal, phase, centers, half):
    """The windows around ``centers`` found in one pass and cut in stacks of ``WINDOW_CHUNK``,
    as the tracker cuts them: one :func:`cut_outcome` per center."""
    windows = _windows(phase.phases, centers, half)
    outcomes = [cut_outcome(w) if isinstance(w, Exception) else None for w in windows]
    found = [i for i, w in enumerate(windows) if not isinstance(w, Exception)]
    for lo in range(0, len(found), WINDOW_CHUNK):
        stack = found[lo : lo + WINDOW_CHUNK]
        phases, values, chi = _cut(phase.phases, signal.values, [windows[i] for i in stack])
        bounds = np.cumsum([len(p) for p in phases])[:-1]
        for i, p, v, c in zip(stack, phases, np.split(values, bounds), np.split(chi, bounds)):
            start, stop, l_theta = windows[i][:3]
            outcomes[i] = l_theta, signal.times[start:stop], v, p, c
    return outcomes


def outcome_of(cutter, *args):
    """The outcome of one window cut that raises its error."""
    try:
        return cut_outcome(cutter(*args))
    except sw.ShapewaveError as exc:
        return cut_outcome(exc)


def assert_same_cut(got, want):
    if isinstance(want[0], type):
        assert got == want
    else:
        assert got[0] == want[0]
        for have, expected in zip(got[1:], want[1:]):
            assert have.dtype == expected.dtype and np.array_equal(have, expected)


class TestTaper:
    def test_endpoints_and_center(self):
        for half in (1, 2, 3, 5):
            edge = 2.0 * np.pi * half
            chi = sw.raised_cosine_taper(np.array([-edge, 0.0, edge]), half)
            assert abs(chi[0]) <= 1e-12
            assert abs(chi[1] - 1.0) <= 1e-12
            assert abs(chi[2]) <= 1e-12

    def test_asymmetric_edges(self):
        chi = sw.raised_cosine_taper(np.array([-2.0 * np.pi, 4.0 * np.pi]), 1, 2)
        assert np.max(np.abs(chi)) <= 1e-12

    def test_per_offset_counts_match_scalar_counts(self):
        # one call over several windows' offsets equals one call per window
        rng = np.random.default_rng(2)
        sides = [(3, 3), (1, 2), (0, 3), (2, 0), (5, 1)]
        deltas = [rng.uniform(-2.0 * np.pi * left, 2.0 * np.pi * right, 50) for left, right in sides]
        lengths = [len(d) for d in deltas]
        chi = sw.raised_cosine_taper(np.concatenate(deltas), np.repeat([l for l, _ in sides], lengths),
                                     np.repeat([r for _, r in sides], lengths))
        expected = [reference_taper(d, left, right) for d, (left, right) in zip(deltas, sides)]
        assert np.array_equal(chi, np.concatenate(expected))

    def test_side_without_periods_keeps_center(self):
        # a window ending at its center has no right side: offset 0 is its
        # edge and its center at once, and the taper stays 1 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chi = sw.raised_cosine_taper(np.array([-2.0 * np.pi, 0.0]), 1, 0)
        np.testing.assert_array_equal(chi, [0.0, 1.0])


class TestWindowSegment:
    def test_midpoint_window_spans_six_periods(self):
        # 1024 samples over 16 periods: 3 periods = 192 samples exactly,
        # so samples land on the window edges and the taper hits 0 there
        signal, phase = linear_phase_signal()
        segment, seg_phase, chi = sw.window_segment(signal, phase, 512, mu=3)
        assert seg_phase.l_theta == 6
        span = seg_phase.phases[-1] - seg_phase.phases[0]
        assert abs(span - 12.0 * np.pi) <= 1e-9
        assert abs(chi[0]) <= 1e-12 and abs(chi[-1]) <= 1e-12
        center_pos = np.argmin(np.abs(seg_phase.phases - phase.phases[512]))
        assert abs(chi[center_pos] - 1.0) <= 1e-12

    def test_window_too_short_near_boundary(self):
        signal, phase = linear_phase_signal()
        # a quarter period from the record start leaves < 2 whole periods
        with pytest.raises(sw.WindowTooShort):
            sw.window_segment(signal, phase, 16, mu=1)

    def test_constant_signal_returns_taper(self):
        signal, phase = linear_phase_signal(values=np.ones(1024))
        segment, _, chi = sw.window_segment(signal, phase, 512, mu=3)
        np.testing.assert_allclose(segment.values, chi, atol=1e-15)

    def test_boundary_clipping_keeps_whole_periods(self):
        signal, phase = linear_phase_signal()
        # center two periods in: only 2 whole periods on the left
        segment, seg_phase, _ = sw.window_segment(signal, phase, 128, mu=3)
        assert seg_phase.l_theta == 5

    @pytest.mark.parametrize("center", [300, 600, 1111, 2048, 3500, 3700])
    def test_slice_matches_phase_mask(self, center):
        # non-uniform times and phase: the window is still the run of samples
        # whose phase lies within the edges
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0.0, 1.0, 4096))
        t[0], t[-1] = 0.0, 1.0
        theta = 2.0 * np.pi * 16 * t + 0.8 * np.sin(2.0 * np.pi * t)
        signal = sw.validate_signal(t, np.cos(theta + 0.3 * np.sin(theta)))
        phase = sw.exact_phase_from_samples(signal, theta)
        segment, seg_phase, chi = sw.window_segment(signal, phase, center, mu=3)

        eps = 1e-9
        periods_left = min(3, int((theta[center] - theta[0]) / (2.0 * np.pi) + eps))
        periods_right = min(3, int((theta[-1] - theta[center]) / (2.0 * np.pi) + eps))
        lo = theta[center] - 2.0 * np.pi * periods_left
        hi = theta[center] + 2.0 * np.pi * periods_right
        idx = np.flatnonzero((theta >= lo - eps) & (theta <= hi + eps))
        mask_chi = sw.raised_cosine_taper(theta[idx] - theta[center], periods_left, periods_right)
        np.testing.assert_array_equal(segment.times, t[idx])
        np.testing.assert_array_equal(segment.values, signal.values[idx] * mask_chi)
        np.testing.assert_array_equal(seg_phase.phases, theta[idx])
        np.testing.assert_array_equal(chi, mask_chi)

    def test_mu_below_one_rejected(self):
        signal, phase = linear_phase_signal()
        with pytest.raises(ValueError, match="mu must be >= 1"):
            sw.extract_shape_track(signal, phase, centers=[512], mu=0.5)

    @pytest.mark.parametrize("mu, kinds", [
        (1, {"WindowTooShort", "TooShort"}),
        (2, {"TooFewPeriods", "NotNearIntegerPeriods", "cut"}),
        (3, {"TooFewPeriods", "NotNearIntegerPeriods", "cut"}),
    ])
    def test_matches_validating_every_window(self, mu, kinds):
        # about 7.7 samples per period: short windows fall below the sample
        # count, and the samples inside a window miss its edges by up to a
        # step, so its period count can stray from a whole number
        t = np.linspace(0.0, 1.0, 185)
        theta = 2.0 * np.pi * 24 * t + 0.5 * np.sin(2.0 * np.pi * t)
        signal = sw.validate_signal(t, np.cos(theta + 0.3 * np.sin(theta)))
        phase = sw.exact_phase_from_samples(signal, theta)

        def validated_window(center):
            """The window cut as window_segment cuts it, then validated as a record."""
            eps = 1e-9
            periods_left = min(mu, int((theta[center] - theta[0]) / (2.0 * np.pi) + eps))
            periods_right = min(mu, int((theta[-1] - theta[center]) / (2.0 * np.pi) + eps))
            if periods_left + periods_right < 2:
                raise sw.WindowTooShort(
                    f"only {periods_left + periods_right} whole periods available around sample {center}")
            lo = theta[center] - 2.0 * np.pi * periods_left
            hi = theta[center] + 2.0 * np.pi * periods_right
            idx = slice(np.searchsorted(theta, lo - eps, "left"), np.searchsorted(theta, hi + eps, "right"))
            chi = sw.raised_cosine_taper(theta[idx] - theta[center], periods_left, periods_right)
            segment = sw.validate_signal(t[idx], signal.values[idx] * chi)
            return segment, sw.validate_phase(segment, theta[idx]), chi

        seen = set()
        for center in range(signal.n_samples):
            outcomes = []
            for cut in (validated_window, lambda c: sw.window_segment(signal, phase, c, mu)):
                try:
                    segment, seg_phase, chi = cut(center)
                except sw.ShapewaveError as exc:
                    outcomes.append((type(exc), str(exc)))
                else:
                    outcomes.append((segment.times, segment.values, seg_phase.phases, seg_phase.l_theta, chi))
            expected, got = outcomes
            if isinstance(expected[0], type):
                assert isinstance(got[0], type) and got == expected
                seen.add(expected[0].__name__)
            else:
                assert got[3] == expected[3]
                for want, have in zip(expected[:3] + expected[4:], got[:3] + got[4:]):
                    assert have.dtype == want.dtype and np.array_equal(have, want)
                seen.add("cut")
        assert seen == kinds


class TestChunkCutter:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(record=st.sampled_from(["example1", "aligned", "non-uniform", "coarse"]),
           mu=st.floats(1.0, 6.0, exclude_max=True),
           picks=st.lists(st.tuples(st.sampled_from(["before", "ends", "periods", "middle", "after"]),
                                    st.integers(0, 2**31)),
                          min_size=1, max_size=WINDOW_CHUNK))
    def test_chunk_matches_reference_per_window(self, record, mu, picks):
        # centers out of range, at the record ends, on whole periods and
        # mid-record, so a chunk mixes cut windows with every failure kind
        signal, phase = cutter_record(record)
        n = signal.n_samples
        periods = phase.phases[0] + 2.0 * np.pi * np.arange(phase.l_theta + 1)
        pools = {"before": [-3, -2, -1], "ends": [0, 1, 2, n - 3, n - 2, n - 1],
                 "periods": np.abs(phase.phases[:, None] - periods).argmin(axis=0).tolist(),
                 "middle": range(n), "after": [n, n + 1, n + 7]}
        centers = [pools[kind][draw % len(pools[kind])] for kind, draw in picks]
        expected = [outcome_of(reference_window_segment, signal, phase, center, mu) for center in centers]
        for got, want in zip(found_and_cut(signal, phase, centers, int(mu)), expected, strict=True):
            assert_same_cut(got, want)
        for center, want in zip(centers, expected):
            assert_same_cut(outcome_of(sw.window_segment, signal, phase, center, mu), want)

    @pytest.mark.parametrize("record, kinds", [
        ("coarse", {"TooShort", "TooFewPeriods", "NotNearIntegerPeriods"}),
        ("aligned", {"TooFewPeriods"}),
    ])
    def test_every_center_matches_reference(self, record, kinds):
        # every center of the record, found in one pass and cut in stacks as the tracker cuts them
        signal, phase = cutter_record(record)
        seen = set()
        for mu in (1, 2, 3.5, 5.5):
            centers = list(range(-2, signal.n_samples + 2))
            for center, got in zip(centers, found_and_cut(signal, phase, centers, int(mu)), strict=True):
                want = outcome_of(reference_window_segment, signal, phase, center, mu)
                assert_same_cut(got, want)
                seen.add(want[0].__name__ if isinstance(want[0], type) else "cut")
        assert seen == kinds | {"CenterOutOfRange", "WindowTooShort", "cut"}

    def test_mu_past_float_range_takes_every_period(self):
        signal, phase = linear_phase_signal()
        got = cut_outcome(sw.window_segment(signal, phase, 512, mu=10**400))
        assert_same_cut(got, cut_outcome(sw.window_segment(signal, phase, 512, mu=100)))
        assert got[0] == 15


def noisy_example1(example1, seed=4):
    signal, theta, _, _ = example1
    values = signal.values + 0.1 * np.random.default_rng(seed).standard_normal(signal.n_samples)
    noisy = sw.validate_signal(signal.times, values)
    return noisy, sw.exact_phase_from_samples(noisy, theta)


def per_window(signal, phase, center, mu, band_limit=None):
    """One window through window_segment and extract_shape, de-biased like the tracker.

    Returns (coefficients, envelope, error text), with None where not reached.
    """
    try:
        segment, seg_phase, chi = sw.window_segment(signal, phase, center, mu)
        result = sw.extract_shape(segment, seg_phase, band_limit=band_limit)
    except sw.ShapewaveError as exc:
        return None, None, f"{type(exc).__name__}: {exc}"
    env = result.envelope.values_time.copy()
    reliable = chi > TAPER_RELIABLE
    env[reliable] = env[reliable] / chi[reliable]
    env[~reliable] = np.nan
    return result.shape.coeffs, env, None


def assert_track_matches_per_window(signal, phase, track, mu, band_limit=None):
    for i, center in enumerate(track.center_indices):
        coeffs, env, error = per_window(signal, phase, int(center), mu, band_limit)
        assert track.errors[i] == error
        if error is None:
            np.testing.assert_array_equal(track.shapes[i].coeffs, coeffs)
            np.testing.assert_array_equal(track.envelopes[i], env)
        else:
            assert track.shapes[i] is None and track.envelopes[i] is None


class TestSummedEnvelopes:
    """Track envelopes summed directly, against the spline route that longer windows take."""

    @pytest.mark.parametrize("kwargs, tol", [
        (dict(mu=3), 2e-12),
        (dict(mu=3, centers=[150, 300, 500, 700, 1500, 2048, 3600, 3800]), 5e-11),
        (dict(mu=2), 5e-11)])
    def test_within_the_spline_interpolation_error(self, example1, monkeypatch, kwargs, tol):
        # stated tolerance of a de-tapered envelope, relative to its window's peak: 2e-12 on
        # windows of 6 periods (grid 2 048), 5e-11 on windows of 4 and 5 (grid 1 024); measured
        # at 1.6e-12 and 3.8e-11.  The summed values are exact, so the gap is the spline's.
        signal, phase = noisy_example1(example1)
        track = sw.extract_shape_track(signal, phase, **kwargs)
        monkeypatch.setattr(shapewave.extract, "_DIRECT_HARMONICS", -1)
        spline = sw.extract_shape_track(signal, phase, **kwargs)
        assert track.errors == spline.errors
        np.testing.assert_array_equal(track.drift, spline.drift)
        fitted = [i for i, error in enumerate(track.errors) if error is None]
        assert fitted
        for i in fitted:
            np.testing.assert_array_equal(track.shapes[i].coeffs, spline.shapes[i].coeffs)
            got, want = track.envelopes[i], spline.envelopes[i]
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            assert np.max(np.abs(got[ok] - want[ok])) <= tol * np.max(np.abs(want[ok]))

    def test_long_windows_take_the_spline_per_window(self):
        # windows of 36-40 periods have 17-19 harmonics, past the direct rule
        t = np.linspace(0.0, 1.0, 8192)
        theta = 2.0 * np.pi * 90 * t + 0.5 * np.cos(2.0 * np.pi * t)
        values = np.cos(theta + 0.4 * np.sin(theta)) + 0.05 * np.random.default_rng(3).standard_normal(len(t))
        signal = sw.validate_signal(t, values)
        phase = sw.exact_phase_from_samples(signal, theta)
        centers = [1700, 2600, 4096, 4200, 4300, 5500, 6400]
        assert all((sw.window_segment(signal, phase, c, mu=20)[1].l_theta + 1) // 2 - 1 > 16 for c in centers)
        track = sw.extract_shape_track(signal, phase, centers=centers, mu=20)
        assert all(error is None for error in track.errors)
        assert_track_matches_per_window(signal, phase, track, mu=20)


class TestBatchedTrack:
    def test_matches_per_window_extraction(self, example1):
        signal, phase = noisy_example1(example1)
        centers = [150, 300, 500, 700, 1500, 2048, 3600, 3800]
        track = sw.extract_shape_track(signal, phase, centers=centers, mu=3)
        # the centers give one failed window and stacks of 4, 5 and 6 periods
        periods = [sw.window_segment(signal, phase, c, mu=3)[1].l_theta for c in centers[1:]]
        assert periods == [4, 4, 5, 6, 6, 5, 4]
        assert track.errors[0] == "TooFewPeriods: need at least 4 periods, got 3"
        assert_track_matches_per_window(signal, phase, track, mu=3)

    def test_default_track_matches_per_window_extraction(self, example1):
        signal, phase = noisy_example1(example1, seed=9)
        track = sw.extract_shape_track(signal, phase, mu=3)
        assert len(track.errors) > 2 * sw.localized.WINDOW_CHUNK
        assert_track_matches_per_window(signal, phase, track, mu=3)

    def test_explicit_band_limit_matches_per_window(self, example1):
        # K=30 lies above MAX_DEFAULT_BANDS yet below every window's Nyquist
        signal, phase = noisy_example1(example1)
        centers = [150, 700, 1500, 2048, 3800]
        track = sw.extract_shape_track(signal, phase, centers=centers, mu=3, band_limit=30)
        assert [s.band_limit for s in track.shapes if s is not None] == [30] * 4
        assert_track_matches_per_window(signal, phase, track, mu=3, band_limit=30)

    def test_band_limit_past_nyquist_recorded_per_window(self, example1):
        signal, phase = noisy_example1(example1)
        track = sw.extract_shape_track(signal, phase, centers=[700, 2048], mu=3, band_limit=500)
        assert all(e.startswith("BandExceedsNyquist: band 500") for e in track.errors)
        assert track.shapes == [None, None] and np.all(np.isnan(track.drift))
        assert_track_matches_per_window(signal, phase, track, mu=3, band_limit=500)

    def test_zero_window_fails_alone(self, example1):
        signal, phase = noisy_example1(example1)
        centers = [1800, 2048, 2300]
        segment, _, _ = sw.window_segment(signal, phase, 2048, mu=3)
        lo, hi = np.searchsorted(signal.times, segment.times[[0, -1]])
        values = signal.values.copy()
        values[lo : hi + 1] = 0.0
        zeroed = sw.validate_signal(signal.times, values)
        # all three windows share one stack
        assert len({sw.window_segment(zeroed, phase, c, mu=3)[1].l_theta for c in centers}) == 1
        track = sw.extract_shape_track(zeroed, phase, centers=centers, mu=3)
        assert track.errors == [None, "DegenerateInput: band matrix is identically zero", None]
        assert_track_matches_per_window(zeroed, phase, track, mu=3)

    def test_envelope_past_the_float_range_fails_its_window_alone(self, example1):
        # at 0.99 times the largest float, the de-tapered envelope of some windows overflows
        signal, _, _, phase = example1
        big = sw.validate_signal(signal.times,
                                 signal.values / np.max(np.abs(signal.values)) * (0.99 * np.finfo(float).max))
        track = sw.extract_shape_track(big, phase)
        failed = [e for e in track.errors if e is not None]
        assert failed and len(failed) < len(track.errors) // 4
        assert all(e == "NonFiniteValue: de-tapered envelope exceeds the float range" for e in failed)
        for shape, env, error in zip(track.shapes, track.envelopes, track.errors):
            assert (shape is None) == (env is None) == (error is not None)
            if env is not None:
                assert np.all(np.isfinite(shape.coeffs)) and np.all(np.isfinite(env[~np.isnan(env)]))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(picks=st.lists(st.tuples(st.sampled_from(["before", "start", "end", "after"] + ["middle"] * 4),
                                    st.integers(0, 2**31)),
                          min_size=2 * WINDOW_CHUNK + 1, max_size=4 * WINDOW_CHUNK),
           mu=st.sampled_from([2, 3, 4.5]))
    def test_grouped_track_matches_per_window(self, example1, picks, mu):
        # mid-record centers enough for groups past one stack, centers out of
        # range or too close to an end for a window, and windows clipped at an
        # end to fewer periods, so one track's groups differ in period count
        signal, phase = noisy_example1(example1)
        n = signal.n_samples
        pools = {"before": [-7, -1], "start": range(0, 700), "middle": range(700, n - 700),
                 "end": range(n - 700, n), "after": [n, n + 3]}
        centers = [pools[kind][draw % len(pools[kind])] for kind, draw in picks]
        track = sw.extract_shape_track(signal, phase, centers=centers, mu=mu)
        assert_track_matches_per_window(signal, phase, track, mu)
        shapes = track.shapes
        assert track.drift[0] == 0.0 if shapes[0] is not None else np.isnan(track.drift[0])
        for i in range(1, len(shapes)):
            if shapes[i - 1] is None or shapes[i] is None:
                assert np.isnan(track.drift[i])
            else:
                assert abs(track.drift[i] - sw.shape_distance(shapes[i - 1], shapes[i])) <= 1e-15

    def test_drift_matches_shape_distance(self, example1):
        signal, phase = noisy_example1(example1)
        track = sw.extract_shape_track(signal, phase, mu=3)
        assert track.drift[0] == 0.0
        for i in range(1, len(track.shapes)):
            expected = sw.shape_distance(track.shapes[i - 1], track.shapes[i])
            assert abs(track.drift[i] - expected) <= 1e-15

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(band_limits=st.lists(st.integers(1, 24), min_size=2, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_pair_distance_matches_one_pair(self, band_limits, seed):
        # neighbours differ in band limit, and the batch mixes pair band limits
        assume(all(a != b for a, b in zip(band_limits, band_limits[1:])))
        rng = np.random.default_rng(seed)
        shapes = [sw.ShapeFunction(coeffs=(rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1))
                                   / np.arange(1, k + 2))
                  for k in band_limits]
        drift = _drift(shapes)
        for i in range(1, len(shapes)):
            assert abs(drift[i] - sw.shape_distance(shapes[i - 1], shapes[i])) <= 1e-15


class TestExtractShapeTrack:
    def test_stationary_signal_small_drift(self, example1):
        signal, _, _, phase = example1
        centers = np.linspace(700, 3400, 8).astype(int)
        track = sw.extract_shape_track(signal, phase, centers=centers, mu=3)
        assert all(err is None for err in track.errors)
        for i, s1 in enumerate(track.shapes):
            for s2 in track.shapes[i + 1 :]:
                assert sw.shape_distance(s1, s2) <= 0.02

    def test_morphing_signal_accumulates_drift(self):
        shape_b = lambda tau: np.cos(tau + 0.5 * np.cos(2.0 * tau))  # noqa: E731
        signal = sw.gen_morphing_shape(4096, np.cos, shape_b, 24)
        theta = 2.0 * np.pi * 24 * signal.times
        phase = sw.exact_phase_from_samples(signal, theta)
        centers = np.linspace(600, 3500, 10).astype(int)
        track = sw.extract_shape_track(signal, phase, centers=centers, mu=3)
        assert all(err is None for err in track.errors)
        total = sw.shape_distance(track.shapes[0], track.shapes[-1])
        assert total > 5.0 * np.median(track.drift[1:])

    def test_full_record_window_matches_global(self, example1):
        signal, _, _, phase = example1
        global_result = sw.extract_shape(signal, phase)
        track = sw.extract_shape_track(signal, phase, centers=[2048], mu=10)
        assert track.errors[0] is None
        assert sw.shape_distance(track.shapes[0], global_result.shape) <= 0.02

    def test_translation_equivariance(self, example1):
        signal, _, _, phase = example1
        centers = np.linspace(700, 3400, 6).astype(int)
        track_a = sw.extract_shape_track(signal, phase, centers=centers, mu=3)
        track_b = sw.extract_shape_track(signal, phase, centers=centers + 1, mu=3)
        for s1, s2 in zip(track_a.shapes, track_b.shapes):
            assert sw.shape_distance(s1, s2) <= 0.02

    def test_determinism(self, example1):
        signal, _, _, phase = example1
        centers = [900, 1800, 2700]
        track_a = sw.extract_shape_track(signal, phase, centers=centers, mu=3)
        track_b = sw.extract_shape_track(signal, phase, centers=centers, mu=3)
        np.testing.assert_array_equal(track_a.drift, track_b.drift)
        for s1, s2 in zip(track_a.shapes, track_b.shapes):
            np.testing.assert_array_equal(s1.coeffs, s2.coeffs)

    def test_failures_recorded_not_raised(self, example1):
        signal, _, _, phase = example1
        # center 2 leaves a one-sided 6-period window clipped to 3 periods,
        # too few for extraction; center 100 with mu=1 cannot even be cut
        track = sw.extract_shape_track(signal, phase, centers=[2, 2048], mu=3)
        assert track.errors[0] is not None and "TooFewPeriods" in track.errors[0]
        assert track.errors[1] is None
        assert np.isnan(track.drift[1])
        assert track.shapes[0] is None and track.shapes[1] is not None

        short = sw.extract_shape_track(signal, phase, centers=[100, 2048], mu=1)
        assert short.errors[0] is not None and "WindowTooShort" in short.errors[0]

    def test_window_ending_at_record_end(self, example1):
        # center 3950 lies within one period of the end: its window has no
        # right side, and its center keeps full weight
        signal, _, _, phase = example1
        track = sw.extract_shape_track(signal, phase, centers=[3950], mu=5)
        assert track.errors == [None]
        mirrored = sw.extract_shape_track(signal, phase, centers=[0], mu=5)
        assert mirrored.errors == [None]

    def test_center_out_of_range_recorded_not_raised(self, example1):
        signal, _, _, phase = example1
        track = sw.extract_shape_track(signal, phase, centers=[2048, 999999], mu=3)
        assert len(track.errors) == 2
        assert track.errors[0] is None and track.shapes[0] is not None
        assert "CenterOutOfRange" in track.errors[1]
        assert np.isnan(track.drift[1]) and np.isnan(track.center_times[1])

    def test_drift_nonnegative(self, example1):
        signal, _, _, phase = example1
        centers = np.linspace(700, 3400, 5).astype(int)
        track = sw.extract_shape_track(signal, phase, centers=centers, mu=3)
        finite = track.drift[np.isfinite(track.drift)]
        assert np.all(finite >= 0.0)

    def test_default_centers_spacing(self, example1):
        signal, _, _, phase = example1
        centers = sw.localized.default_centers(signal, phase, mu=3)
        # about eight estimates per period of travel
        stride = np.diff(centers)
        expected = signal.n_samples / phase.l_theta / 8.0
        assert np.all(np.abs(stride - expected) <= 1.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(record=st.sampled_from(["example1", "aligned", "non-uniform", "drawn"]),
           periods=st.integers(5, 40), samples_per_period=st.integers(40, 100), offset=st.floats(-50.0, 50.0),
           mu=st.floats(1.0, 8.0, exclude_max=True))
    def test_default_centers_are_the_full_windows(self, record, periods, samples_per_period, offset, mu):
        # the stride candidates whose windows count floor(mu) whole periods on both sides
        if record == "drawn":
            t = np.linspace(0.0, 1.0, periods * samples_per_period)
            theta = offset + 2.0 * np.pi * periods * t + 2.0 * np.cos(6.0 * np.pi * t) * periods / 40
            signal = sw.validate_signal(t, np.cos(theta))
            phase = sw.exact_phase_from_samples(signal, theta)
        else:
            signal, phase = cutter_record(record)
        half = int(mu)
        stride = max(1, round(signal.n_samples / phase.l_theta / 8.0))
        candidates = list(range(0, signal.n_samples, stride))
        full = []
        for center, window in zip(candidates, _windows(phase.phases, candidates, half), strict=True):
            if not isinstance(window, Exception):
                if window[4] == window[5] == half:
                    full.append(center)
            elif half == 1 and isinstance(window, sw.TooFewPeriods):
                # two whole periods are too few for a fit, but the window is full
                full.append(center)
            # the records are dense enough that any other failure is a window short of periods
        assert sw.localized.default_centers(signal, phase, mu).tolist() == full

    def test_envelope_debiasing_tracks_true_envelope(self, example1):
        signal, _, _, phase = example1
        a_true = 1.0 / (2.0 + np.sin(2.0 * np.pi * signal.times))
        track = sw.extract_shape_track(signal, phase, centers=[2048], mu=3)
        env = track.envelopes[0]
        seg, _, _ = sw.window_segment(signal, phase, 2048, mu=3)
        reliable = np.isfinite(env)
        assert np.sum(reliable) > 0.5 * len(env)
        a_seg = 1.0 / (2.0 + np.sin(2.0 * np.pi * seg.times))
        ratio = env[reliable] / a_seg[reliable]
        # constant up to the shape-peak normalization factor
        assert np.std(ratio) / np.mean(ratio) < 0.05
