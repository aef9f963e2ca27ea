import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapewave as sw
import shapewave.core
from shapewave.core import SHAPE_GRID, _reference_grid_values, evaluate_shape

from conftest import TAU_GRID


def test_all_names_public_objects_not_modules():
    assert len(set(sw.__all__)) == len(sw.__all__)
    for name in sw.__all__:
        assert not isinstance(getattr(sw, name), types.ModuleType), name


class TestValidateSignal:
    def test_too_short(self):
        with pytest.raises(sw.TooShort):
            sw.validate_signal([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])

    def test_valid_tone(self):
        t = np.linspace(0.0, 1.0, 1024)
        signal = sw.validate_signal(t, np.cos(2.0 * np.pi * 20.0 * t))
        assert signal.n_samples == 1024

    def test_nan_reports_index(self):
        t = np.linspace(0.0, 1.0, 32)
        v = np.ones(32)
        v[7] = np.nan
        with pytest.raises(sw.NonFiniteValue, match="index 7"):
            sw.validate_signal(t, v)

    def test_non_increasing(self):
        t = np.linspace(0.0, 1.0, 32).copy()
        t[10] = t[9]
        with pytest.raises(sw.NonIncreasingTimes, match="index 10"):
            sw.validate_signal(t, np.ones(32))

    @pytest.mark.parametrize("values", [np.ones(31), np.ones((32, 1))])
    def test_shape_mismatch_is_typed(self, values):
        with pytest.raises(sw.MismatchedLengths):
            sw.validate_signal(np.linspace(0.0, 1.0, 32), values)


class TestValidatePhase:
    def test_length_mismatch_is_typed(self):
        t = np.linspace(0.0, 1.0, 256)
        signal = sw.validate_signal(t, np.cos(40.0 * np.pi * t))
        with pytest.raises(sw.MismatchedLengths, match=r"\(99,\).*\(256,\)"):
            sw.validate_phase(signal, 40.0 * np.pi * t[:99])

    def test_nan_phase_reports_index(self):
        t = np.linspace(0.0, 1.0, 256)
        signal = sw.validate_signal(t, np.ones(256))
        theta = 40.0 * np.pi * t
        theta[7] = np.nan
        with pytest.raises(sw.NonFiniteValue, match="non-finite phase entry at index 7"):
            sw.validate_phase(signal, theta)

    def test_linear_phase_period_count(self):
        t = np.linspace(0.0, 1.0, 256)
        signal = sw.validate_signal(t, np.cos(40.0 * np.pi * t))
        phase = sw.validate_phase(signal, 40.0 * np.pi * t)
        assert phase.l_theta == 20

    def test_modulated_phase_period_count(self):
        # the modulation term returns to its start value, so the span is 40*pi
        t = np.linspace(0.0, 1.0, 256)
        theta = 40.0 * np.pi * t + 2.0 * np.cos(6.0 * np.pi * t)
        signal = sw.validate_signal(t, np.cos(theta))
        assert sw.validate_phase(signal, theta).l_theta == 20

    def test_decreasing_step(self):
        t = np.linspace(0.0, 1.0, 256)
        theta = (40.0 * np.pi * t).copy()
        theta[100] = theta[99] - 0.01
        signal = sw.validate_signal(t, np.ones(256))
        with pytest.raises(sw.NonMonotonePhase):
            sw.validate_phase(signal, theta)

    def test_too_few_periods(self):
        t = np.linspace(0.0, 1.0, 256)
        signal = sw.validate_signal(t, np.ones(256))
        with pytest.raises(sw.TooFewPeriods):
            sw.validate_phase(signal, 4.0 * np.pi * t)

    def test_fractional_periods_rejected(self):
        t = np.linspace(0.0, 1.0, 256)
        signal = sw.validate_signal(t, np.ones(256))
        with pytest.raises(sw.NotNearIntegerPeriods):
            sw.validate_phase(signal, 40.8 * np.pi * t)  # 20.4 periods


class TestNormalizeRank1Factors:
    def test_single_harmonic(self):
        n = 64
        a_raw = np.ones(n) / np.sqrt(n)
        c_raw = np.zeros(4, dtype=complex)
        c_raw[1] = 1.0
        env, coeffs = sw.normalize_rank1_factors(a_raw, c_raw, 5.0)
        # shape is 2*Re(c1 e^{i tau}); peak forced to 1 => |c1| = 1/2
        assert abs(abs(coeffs[1]) - 0.5) < 1e-12
        peak = np.max(np.abs(evaluate_shape(coeffs, TAU_GRID)))
        assert abs(peak - 1.0) < 1e-9
        # product is preserved: env * shape == 5 * a_raw * shape_raw
        before = 5.0 * np.outer(a_raw, evaluate_shape(c_raw, TAU_GRID))
        after = np.outer(env, evaluate_shape(coeffs, TAU_GRID))
        assert np.max(np.abs(before - after)) < 1e-12

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(42)
        a_raw = rng.standard_normal(32)
        a_raw /= np.linalg.norm(a_raw)
        c_raw = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        c_raw[0] = c_raw[0].real
        c_raw /= np.linalg.norm(c_raw)
        env_a, c_a = sw.normalize_rank1_factors(a_raw, c_raw, 2.5)
        env_b, c_b = sw.normalize_rank1_factors(-a_raw, -c_raw, 2.5)
        np.testing.assert_allclose(env_a, env_b, atol=1e-14)
        np.testing.assert_allclose(c_a, c_b, atol=1e-14)

    def test_product_preserved_random(self):
        # direct multiplication oracle on random unit factors
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(16, 80))
            k = int(rng.integers(1, 8))
            a_raw = rng.standard_normal(n)
            a_raw /= np.linalg.norm(a_raw)
            c_raw = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            c_raw[0] = c_raw[0].real
            c_raw /= np.linalg.norm(c_raw)
            s1 = float(rng.uniform(0.1, 10.0))
            env, coeffs = sw.normalize_rank1_factors(a_raw, c_raw, s1)
            before = s1 * np.outer(a_raw, evaluate_shape(c_raw, TAU_GRID))
            after = np.outer(env, evaluate_shape(coeffs, TAU_GRID))
            assert np.max(np.abs(before - after)) < 1e-12 * max(1.0, np.max(np.abs(before)))
            assert np.mean(env) >= 0.0
            peak = np.max(np.abs(evaluate_shape(coeffs, TAU_GRID)))
            assert abs(peak - 1.0) < 1e-9

    def test_degenerate(self):
        with pytest.raises(sw.DegenerateFactors):
            sw.normalize_rank1_factors(np.ones(8), np.array([1.0 + 0j]), 0.0)


class TestInverseFftPeak:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(k_max=st.integers(1, 600), rows=st.integers(1, 4), decay=st.floats(0.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_horner_values(self, k_max, rows, decay, seed):
        # K crosses SHAPE_GRID/2 = 512; both sums round within a few (K+2)*eps of
        # the coefficients' absolute sum (at most 1.4 of it in 3 000 scratch draws)
        rng = np.random.default_rng(seed)
        coeffs = ((rng.standard_normal((rows, k_max + 1)) + 1j * rng.standard_normal((rows, k_max + 1)))
                  / np.arange(1, k_max + 2) ** decay)
        horner = evaluate_shape(coeffs, TAU_GRID)
        values = _reference_grid_values(coeffs)
        bound = 4 * (k_max + 2) * np.finfo(float).eps * (np.abs(coeffs[:, 0].real)
                                                         + 2.0 * np.sum(np.abs(coeffs[:, 1:]), axis=-1))
        assert np.all(np.max(np.abs(values - horner), axis=-1) <= bound)
        peaks = np.max(np.abs(values), axis=-1)
        assert np.all(np.abs(peaks - np.max(np.abs(horner), axis=-1)) <= bound)
        # every stacked row gives what it gives alone
        for row, alone in zip(values, coeffs):
            assert np.array_equal(row, _reference_grid_values(alone))

    @pytest.mark.parametrize("k_max", [1023, 1024, 2500])
    def test_harmonics_past_the_grid_fold_onto_its_bins(self, k_max):
        rng = np.random.default_rng(k_max)
        coeffs = rng.standard_normal(k_max + 1) + 1j * rng.standard_normal(k_max + 1)
        bound = 4 * (k_max + 1) * np.finfo(float).eps * np.sum(np.abs(coeffs))
        assert np.max(np.abs(_reference_grid_values(coeffs) - evaluate_shape(coeffs, TAU_GRID))) <= bound

    def test_zero_shape_stays_degenerate(self):
        with pytest.raises(sw.DegenerateFactors, match="identically zero"):
            sw.normalize_rank1_factors(np.ones((2, 8)), np.zeros((2, 6), dtype=complex), np.ones(2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_end_to_end_tolerance_against_horner_peak(self, example1, monkeypatch, seed):
        # stated tolerance of the inverse-FFT peak on the outputs: coefficients and
        # envelopes 2e-15 relative (max-norm), drift 2e-15 absolute, the residual
        # 1e-14 of max|f|; measured at about 1.3e-15, 6.5e-16 and 7.3e-16
        signal, theta, _, _ = example1
        values = signal.values + 0.1 * np.random.default_rng(seed).standard_normal(signal.n_samples)
        noisy = sw.validate_signal(signal.times, values)
        phase = sw.exact_phase_from_samples(noisy, theta)
        band_limit = 30 if seed == 2 else None
        runs = []
        for peak_values in (_reference_grid_values, lambda c: evaluate_shape(c, TAU_GRID)):
            monkeypatch.setattr(shapewave.core, "_reference_grid_values", peak_values)
            runs.append((sw.extract_shape(noisy, phase, band_limit=band_limit),
                         sw.extract_shape_track(noisy, phase, band_limit=band_limit)))
        (result, track), (want, want_track) = runs

        def assert_relative(got, expected):
            got, expected = np.asarray(got), np.asarray(expected)
            assert np.array_equal(np.isnan(got), np.isnan(expected))
            ok = ~np.isnan(expected)
            assert np.max(np.abs(got[ok] - expected[ok])) <= 2e-15 * np.max(np.abs(expected[ok]))

        assert_relative(result.shape.coeffs, want.shape.coeffs)
        assert_relative(result.envelope.values_phase, want.envelope.values_phase)
        assert_relative(result.envelope.values_time, want.envelope.values_time)
        assert np.max(np.abs(result.residual - want.residual)) <= 1e-14 * np.max(np.abs(values))
        assert track.errors == want_track.errors and all(e is None for e in track.errors)
        for got, expected in zip(track.shapes, want_track.shapes):
            assert_relative(got.coeffs, expected.coeffs)
        for got, expected in zip(track.envelopes, want_track.envelopes):
            assert_relative(got, expected)
        assert np.max(np.abs(track.drift - want_track.drift)) <= 2e-15


class TestShapeFunction:
    def test_peak_normalization_invariant(self, example1_result):
        samples = example1_result.shape.sample(SHAPE_GRID)
        assert abs(np.max(np.abs(samples)) - 1.0) < 1e-9

    def test_evaluation_is_real_and_periodic(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        coeffs[0] = coeffs[0].real
        shape = sw.ShapeFunction(coeffs=coeffs)
        tau = rng.uniform(-10.0, 10.0, 64)
        np.testing.assert_allclose(shape(tau), shape(tau + 2.0 * np.pi), atol=1e-12)

    def test_scalar_evaluation(self):
        shape = sw.ShapeFunction(coeffs=np.array([0.0, 0.5 + 0.0j]))
        assert abs(shape(0.0) - 1.0) < 1e-15

    @pytest.mark.parametrize("offset", [0.0, np.round(2.0**40 / 3.0) / 2.0**40])
    def test_accurate_at_large_phase(self, offset):
        # tau = j/32 + offset reaches 2048 rad.  k * (j/32) and k * offset
        # (40 fractional bits) are exact in double for k <= 20, so the
        # reference, summed per k by angle addition, rounds no argument.
        # With the nonzero offset k * tau itself is not exact in double.
        K = 20
        rng = np.random.default_rng(11)
        coeffs = (rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)) \
            / np.r_[1.0, np.arange(1, K + 1)]
        tau0 = np.arange(65536) / 32.0
        ref = np.full(tau0.shape, coeffs[0].real)
        for k in range(1, K + 1):
            ref += 2.0 * np.real(coeffs[k] * np.exp(1j * k * tau0) * np.exp(1j * k * offset))
        got = evaluate_shape(coeffs, tau0 + offset)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_constant_shape(self):
        coeffs = np.array([1.5 + 0.25j])
        np.testing.assert_array_equal(evaluate_shape(coeffs, np.linspace(0.0, 9.0, 7)), 1.5)
        assert evaluate_shape(coeffs, 2.0) == 1.5
