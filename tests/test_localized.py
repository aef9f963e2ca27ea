import numpy as np
import pytest

import shapewave as sw

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

    def test_mu_below_one_rejected(self):
        with pytest.raises(ValueError):
            sw.WindowSpec(mu=0.5)


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
