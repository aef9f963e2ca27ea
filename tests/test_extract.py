import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapewave as sw
import shapewave.extract
from shapewave.extract import BandMatrix, _band_matrix, coefficients_from_right_vector

from conftest import TAU_GRID, interp_one, make_tone, noisy_record, resample_one, spectrum_frequencies


def als_rank_one(entries, seed=0, tol=1e-12, max_iter=500):
    """Alternating-least-squares oracle for the best rank-1 approximation."""
    rng = np.random.default_rng(seed)
    m, k = entries.shape
    v = rng.standard_normal(k)
    v /= np.linalg.norm(v)
    prev = np.inf
    for _ in range(max_iter):
        u = entries @ v
        sigma = np.linalg.norm(u)
        u = u / sigma
        w = entries.T @ u
        sigma = np.linalg.norm(w)
        v = w / sigma
        objective = np.sum(entries**2) - sigma**2
        if abs(prev - objective) <= tol * max(1.0, abs(objective)):
            break
        prev = objective
    return objective, sigma, u, v


def n_row_fit(signal, phase, band_limit, grid_size=None, zero_dc=False):
    """Reference fit on the full n x (2K+1) band matrix, normalized like extract_shape."""
    n = grid_size or sw.default_grid_size(signal.n_samples, phase.l_theta)
    pds = resample_one(signal, phase, n)
    if zero_dc:
        lo, hi = sw.band_indices(0, phase.l_theta, n)
        spectrum = pds.spectrum.copy()
        spectrum[lo + n // 2 : hi + n // 2 + 1] = 0.0
        pds = dataclasses.replace(pds, spectrum=spectrum)
    g = np.array([sw.transform._band_samples(np.fft.ifftshift(pds.spectrum), phase.l_theta, [k], n, True)[0]
                  for k in range(band_limit + 1)])
    fit = sw.rank_one_fit(BandMatrix(entries=np.column_stack((g.real.T, g[1:].imag.T))))
    c_raw = coefficients_from_right_vector(fit.right)
    c_raw *= np.exp(-1j * np.arange(band_limit + 1) * phase.phases[0])
    values_phase, coeffs = sw.normalize_rank1_factors(fit.left, c_raw, fit.sigma1)
    return fit, values_phase, coeffs


def odd_periods_record():
    """Noisy record with 21 periods, a wobbling phase and a non-sinusoidal shape."""
    t = np.linspace(0.0, 1.0, 4096)
    theta = 2.0 * np.pi * 21 * t + 0.5 * np.cos(2.0 * np.pi * t)
    noise = 0.05 * np.random.default_rng(21).standard_normal(len(t))
    values = (1.5 + np.sin(2.0 * np.pi * t)) * np.cos(theta + 0.4 * np.sin(theta)) + noise
    signal = sw.validate_signal(t, values)
    return signal, sw.exact_phase_from_samples(signal, theta)


def band_matrix(arrays):
    return _band_matrix(np.array(arrays, dtype=complex))


class TestAssembleBandMatrix:
    def test_real_imag_column_order(self):
        ones = np.ones(4)
        matrix = band_matrix([ones, 1j * ones])
        np.testing.assert_allclose(matrix.entries[:, 0], 1.0)
        np.testing.assert_allclose(matrix.entries[:, 1], 0.0)
        np.testing.assert_allclose(matrix.entries[:, 2], 1.0)

    def test_columns_by_inspection(self):
        rng = np.random.default_rng(5)
        g0 = rng.standard_normal(8) + 0j
        g1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        g2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        matrix = band_matrix([g0, g1, g2])
        assert matrix.entries.shape == (8, 5)
        np.testing.assert_allclose(matrix.entries[:, 0], g0.real)
        np.testing.assert_allclose(matrix.entries[:, 1], g1.real)
        np.testing.assert_allclose(matrix.entries[:, 2], g2.real)
        np.testing.assert_allclose(matrix.entries[:, 3], g1.imag)
        np.testing.assert_allclose(matrix.entries[:, 4], g2.imag)

    def test_model_signal_gives_rank_one(self):
        n = 1024
        l_theta = 20
        phi = np.arange(n) / n
        env = 1.0 + 0.3 * np.cos(2.0 * np.pi * phi)
        values = env * np.cos(2.0 * np.pi * l_theta * phi)
        pds = sw.PhaseDomainSignal(
            grid=sw.NormalizedPhaseGrid(n=n),
            values=values,
            spectrum=sw.forward_spectrum(values),
            l_theta=l_theta,
        )
        fit = sw.rank_one_fit(band_matrix([sw.extract_demodulated_band(pds, k).values for k in range(4)]))
        assert fit.singular_values[1] <= 1e-6 * fit.singular_values[0]


class TestRankOneFit:
    def test_exact_rank_one(self):
        a = np.array([1.0, 2.0, 2.0])
        c = np.array([3.0, 4.0])
        fit = sw.rank_one_fit(BandMatrix(entries=np.outer(a, c)))
        assert abs(fit.sigma1 - 15.0) < 1e-12
        assert fit.objective < 1e-20
        cosine = abs(np.dot(fit.left, a / np.linalg.norm(a)))
        assert abs(cosine - 1.0) < 1e-12
        cosine = abs(np.dot(fit.right, c / np.linalg.norm(c)))
        assert abs(cosine - 1.0) < 1e-12

    def test_degenerate_tie(self):
        fit = sw.rank_one_fit(BandMatrix(entries=np.eye(2)))
        assert abs(fit.sigma1 - 1.0) < 1e-12
        assert abs(fit.objective - 1.0) < 1e-12
        np.testing.assert_allclose(fit.singular_values, [1.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        with pytest.raises(sw.DegenerateInput):
            sw.rank_one_fit(BandMatrix(entries=np.zeros((4, 3))))

    def test_tiny_matrix_is_not_zero(self):
        # every squared entry underflows to 0, but sigma1 does not
        fit = sw.rank_one_fit(BandMatrix(entries=np.full((6, 5), 1e-170)))
        assert fit.sigma1 > 0.0
        np.testing.assert_allclose(fit.sigma1, np.sqrt(30.0) * 1e-170, rtol=1e-14)
        with pytest.raises(sw.DegenerateInput, match="identically zero"):
            sw.rank_one_fit(BandMatrix(entries=np.stack((np.full((6, 5), 1e-170), np.zeros((6, 5))))))

    def test_matches_als_oracle(self):
        rng = np.random.default_rng(99)
        entries = rng.standard_normal((12, 5))
        fit = sw.rank_one_fit(BandMatrix(entries=entries))
        objective, _, _, _ = als_rank_one(entries, seed=1)
        assert abs(fit.objective - objective) <= 1e-9 * max(1.0, objective)

    def test_optimality_against_random_candidates(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            m = int(rng.integers(3, 33))
            k = int(rng.integers(2, 10))
            entries = rng.standard_normal((m, k))
            fit = sw.rank_one_fit(BandMatrix(entries=entries))
            total = np.sum(entries**2)
            # each unit (u, v) pair, optimally scaled, yields objective
            # total - (u' F v)^2; none may beat the SVD
            us = rng.standard_normal((1000, m))
            us /= np.linalg.norm(us, axis=1, keepdims=True)
            vs = rng.standard_normal((1000, k))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            projections = np.einsum("im,mk,ik->i", us, entries, vs)
            candidate_best = total - np.max(projections**2)
            assert fit.objective <= candidate_best + 1e-8 * total
            expected = np.sum(fit.singular_values[1:] ** 2)
            assert abs(fit.objective - expected) <= 1e-8 * max(1.0, expected)

    def test_residual_orthogonal_to_fit(self):
        rng = np.random.default_rng(17)
        entries = rng.standard_normal((30, 7))
        fit = sw.rank_one_fit(BandMatrix(entries=entries))
        rank1 = fit.sigma1 * np.outer(fit.left, fit.right)
        inner = np.sum((entries - rank1) * rank1)
        assert abs(inner) <= 1e-8 * np.sum(entries**2)


class TestExtractShape:
    def test_cosine_recovers_cosine(self):
        signal, phase = make_tone(20)
        result = sw.extract_shape(signal, phase, band_limit=3)
        s = result.shape(TAU_GRID)
        corr = np.corrcoef(s, np.cos(TAU_GRID))[0, 1]
        assert corr >= 1.0 - 1e-8
        mags = np.abs(result.shape.coeffs)
        assert mags[0] <= 1e-6 and np.all(mags[2:] <= 1e-6)
        rel = np.linalg.norm(result.residual) / np.linalg.norm(signal.values)
        assert rel <= 1e-6

    def test_example1_correlation(self, example1, example1_result):
        _, _, shape, _ = example1
        target = shape(TAU_GRID)
        target = target - target.mean()
        extracted = example1_result.shape(TAU_GRID)
        corr = np.corrcoef(extracted, target)[0, 1]
        assert corr >= 0.99

    def test_duffing_even_harmonic_gap(self):
        signal = sw.gen_duffing()
        phase = sw.estimate_phase(signal)
        result = sw.extract_shape(signal, phase)
        mags = np.abs(result.shape.coeffs)
        assert mags[2] / np.max(mags[1:]) <= 0.05

    def test_amplitude_covariance(self, example1, example1_result):
        signal, _, _, phase = example1
        scaled = sw.validate_signal(signal.times, 3.5 * signal.values)
        result = sw.extract_shape(scaled, phase, band_limit=15)
        np.testing.assert_allclose(result.shape.coeffs, example1_result.shape.coeffs,
                                   atol=1e-9 * np.max(np.abs(example1_result.shape.coeffs)))
        np.testing.assert_allclose(result.envelope.values_time,
                                   3.5 * example1_result.envelope.values_time, rtol=1e-9)
        np.testing.assert_allclose(result.residual, 3.5 * example1_result.residual,
                                   atol=1e-9 * np.max(np.abs(signal.values)))

    def test_envelope_band_limit(self, example1_result):
        env = example1_result.envelope.values_phase
        spec = sw.forward_spectrum(env)
        omega = spectrum_frequencies(len(env))
        outside = np.abs(spec[np.abs(omega) >= example1_result.l_theta / 2])
        assert np.max(outside) <= 1e-8 * np.max(np.abs(spec))
        assert np.mean(env) >= 0.0

    def test_objective_monotone_in_band_limit(self):
        # n+1 samples over [0, 1] put phi(t_l) exactly on the n-point grid,
        # so the three generated harmonics land in their bands bit-exactly
        n = 1024
        l_theta = 16
        t = np.linspace(0.0, 1.0, n + 1)
        theta = 2.0 * np.pi * l_theta * t
        env = 1.0 + 0.2 * np.cos(2.0 * np.pi * t)
        values = env * (np.cos(theta) + 0.4 * np.cos(2 * theta) + 0.1 * np.cos(3 * theta))
        signal = sw.validate_signal(t, values)
        phase = sw.exact_phase_from_samples(signal, theta)
        objectives = []
        for k in range(3, 12):
            result = sw.extract_shape(signal, phase, band_limit=k, grid_size=n)
            objectives.append(result.fit.objective_value)
        for a, b in zip(objectives, objectives[1:]):
            assert b <= a + 1e-9

    def test_rank1_energy_fraction_in_range(self, example1_result):
        assert 0.0 <= example1_result.fit.rank1_energy_fraction <= 1.0

    def test_nyquist_error_with_guidance(self, example1):
        signal, _, _, phase = example1
        with pytest.raises(sw.BandExceedsNyquist, match="band limit"):
            sw.extract_shape(signal, phase, band_limit=500)

    def test_zero_dc_forces_small_c0(self, example1):
        signal, _, _, phase = example1
        result = sw.extract_shape(signal, phase, band_limit=15, zero_dc=True)
        mags = np.abs(result.shape.coeffs)
        assert mags[0] <= 1e-10 * np.max(mags)

    @pytest.mark.parametrize("case", ["even-l20", "odd-l21", "l-below-2K+1", "zero-dc-grid"])
    def test_matches_n_row_reference(self, example1, case):
        signal, _, _, phase = example1
        kwargs = {"band_limit": 20}
        if case == "odd-l21":
            signal, phase = odd_periods_record()
        elif case == "l-below-2K+1":
            kwargs = {"band_limit": 15}
        elif case == "zero-dc-grid":
            kwargs = {"band_limit": 15, "grid_size": 8192, "zero_dc": True}
        result = sw.extract_shape(signal, phase, **kwargs)
        fit, values_phase, coeffs = n_row_fit(signal, phase, **kwargs)

        tol = 1e-12
        s = fit.singular_values
        assert len(result.fit.singular_values) == min(result.grid_size, 2 * kwargs["band_limit"] + 1)
        assert np.all(result.fit.singular_values[phase.l_theta:] == 0.0)
        np.testing.assert_allclose(result.fit.singular_values, s, rtol=0, atol=tol * s[0])
        np.testing.assert_allclose(result.shape.coeffs, coeffs, rtol=0,
                                   atol=tol * np.max(np.abs(coeffs)))
        np.testing.assert_allclose(result.envelope.values_phase, values_phase, rtol=0,
                                   atol=tol * np.max(np.abs(values_phase)))
        assert abs(result.fit.objective_value - fit.objective) <= tol * s[0] ** 2
        energy = s[0] ** 2 / np.sum(s**2)
        assert abs(result.fit.rank1_energy_fraction - energy) <= tol * energy

    def test_reconstruction_identity(self, example1, example1_result):
        signal, _, _, phase = example1
        model = example1_result.envelope.values_time * example1_result.shape(phase.phases)
        np.testing.assert_allclose(signal.values - model, example1_result.residual, atol=1e-12)


def periodic_record(n_samples, periods):
    """Noisy record with a wobbling phase, a non-sinusoidal shape and a slow envelope."""
    t = np.linspace(0.0, 1.0, n_samples)
    theta = 2.0 * np.pi * periods * t + 0.5 * np.cos(2.0 * np.pi * t)
    noise = 0.05 * np.random.default_rng(periods).standard_normal(n_samples)
    values = (1.5 + np.sin(2.0 * np.pi * t)) * np.cos(theta + 0.4 * np.sin(theta)) + noise
    signal = sw.validate_signal(t, values)
    return signal, sw.exact_phase_from_samples(signal, theta)


class TestEnvelopeRoute:
    """The envelope reaches the time grid by its direct sum up to 16 harmonics, by the spline past that."""

    @staticmethod
    def routes(monkeypatch, call):
        taken = []
        for name in ("_trig_stack", "_interp_stack"):
            route = getattr(shapewave.extract, name)
            monkeypatch.setattr(shapewave.extract, name,
                                lambda *args, name=name, route=route: taken.append(name) or route(*args))
        return call(), taken

    def test_track_window_and_example1_are_summed(self, example1, monkeypatch):
        signal, _, _, phase = example1
        segment, window_phase, _ = sw.window_segment(signal, phase, 2048, mu=3)
        for sig, ph, harmonics in ((segment, window_phase, 2), (signal, phase, 9)):
            assert (ph.l_theta + 1) // 2 - 1 == harmonics
            _, taken = self.routes(monkeypatch, lambda: sw.extract_shape(sig, ph))
            assert taken == ["_trig_stack"]
        _, taken = self.routes(monkeypatch, lambda: sw.extract_shape_track(signal, phase, centers=[2048, 2100]))
        assert taken == ["_trig_stack"]

    @pytest.mark.parametrize("n_samples, periods, route", [
        (8192, 34, "_trig_stack"), (8192, 35, "_interp_stack"), (8192, 90, "_interp_stack"),
        (8192, 327, "_interp_stack")])
    def test_harmonic_count_picks_the_route(self, monkeypatch, n_samples, periods, route):
        # 16 and 17 harmonics on either side of the rule; 44 as in the Duffing record, 163 as in record-long
        signal, phase = periodic_record(n_samples, periods)
        result, taken = self.routes(monkeypatch, lambda: sw.extract_shape(signal, phase))
        assert taken == [route]
        if route == "_interp_stack":
            # the spline route is the back-interpolation of the phase-grid envelope, bit for bit
            assert np.array_equal(result.envelope.values_time,
                                  interp_one(result.envelope.values_phase, phase))


class TestPowerOfTwoScale:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n_samples=st.integers(512, 2048), periods=st.integers(5, 30), uniform=st.booleans(),
           seed=st.integers(0, 2**16), k_phase=st.integers(-600, 600), k_fit=st.integers(-1000, 1016))
    def test_record_scaled_by_power_of_two(self, n_samples, periods, uniform, seed, k_phase, k_fit):
        t, theta, values = noisy_record(n_samples, periods, uniform, seed)
        signal = sw.validate_signal(t, values)

        def phase_or_error(sig):
            try:
                return sw.estimate_phase(sig).phases
            except sw.ShapewaveError as exc:
                return f"{type(exc).__name__}: {exc}"

        # the phase estimate is amplitude-free: bitwise, whatever the power of two
        expected = phase_or_error(signal)
        got = phase_or_error(sw.validate_signal(t, np.ldexp(values, k_phase)))
        assert type(got) is type(expected)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

        # the fit is amplitude-free up to the top of the float range (past 2**1016 this
        # generator's envelope can overflow): bitwise, scaled by the power of two
        phase = sw.exact_phase_from_samples(signal, theta)
        scaled = sw.validate_signal(t, np.ldexp(values, k_fit))
        want = sw.extract_shape(signal, phase)
        have = sw.extract_shape(scaled, phase)
        assert np.array_equal(have.shape.coeffs, want.shape.coeffs)
        assert have.fit.rank1_energy_fraction == want.fit.rank1_energy_fraction
        assert np.array_equal(np.ldexp(have.envelope.values_time, -k_fit), want.envelope.values_time)
        assert np.array_equal(np.ldexp(have.residual, -k_fit), want.residual)

        # and so is the track's
        want_track = sw.extract_shape_track(signal, phase)
        have_track = sw.extract_shape_track(scaled, phase)
        assert have_track.errors == want_track.errors
        assert np.array_equal(have_track.drift, want_track.drift, equal_nan=True)

    def test_envelope_past_the_float_range_is_non_finite_value(self):
        # the envelope of this record is 18 times its peak, so at 2**1017 it exceeds the float range
        t, theta, values = noisy_record(512, 5, False, 0)
        signal = sw.validate_signal(t, np.ldexp(values, 1017))
        phase = sw.exact_phase_from_samples(signal, theta)
        with pytest.raises(sw.NonFiniteValue, match="envelope exceeds the float range"):
            sw.extract_shape(signal, phase)
        # a window's envelope is smaller than the whole record's, and the track fits
        track = sw.extract_shape_track(signal, phase)
        assert all(e is None for e in track.errors)
        assert all(np.all(np.isfinite(env[~np.isnan(env)])) for env in track.envelopes)


class TestShapeDistance:
    def test_self_distance_zero(self, example1_result):
        assert sw.shape_distance(example1_result.shape, example1_result.shape) <= 1e-9

    def test_rotation_invariance(self):
        cos_shape = sw.ShapeFunction(coeffs=np.array([0.0, 0.5 + 0.0j]))
        rotated = sw.ShapeFunction(coeffs=np.array([0.0, 0.5 * np.exp(1.3j)]))
        assert sw.shape_distance(cos_shape, rotated) <= 1e-6

    def test_sign_invariance(self):
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        coeffs[0] = coeffs[0].real
        s1 = sw.ShapeFunction(coeffs=coeffs)
        s2 = sw.ShapeFunction(coeffs=-coeffs)
        assert sw.shape_distance(s1, s2) <= 1e-9

    def test_symmetry(self, example1_result):
        cos_shape = sw.ShapeFunction(coeffs=np.array([0.0, 0.5 + 0.0j]))
        d12 = sw.shape_distance(cos_shape, example1_result.shape)
        d21 = sw.shape_distance(example1_result.shape, cos_shape)
        assert abs(d12 - d21) <= 1e-9

    @pytest.mark.parametrize("case", ["cosine-vs-example1", "k20-vs-rotated-negated-k15",
                                      "rotated-negated-k15-vs-k20", "random-k21-vs-k16"])
    def test_matches_brute_force_oracle(self, example1, example1_result, case):
        if case == "cosine-vs-example1":
            first = sw.ShapeFunction(coeffs=np.array([0.0, 0.5 + 0.0j]))
            other = example1_result.shape
        elif case == "random-k21-vs-k16":
            # the largest cross-term sample on an 8*(K+1)-point rotation grid
            # sits on the wrong lobe here: refining only that one is 3e-4 off
            rng = np.random.default_rng(2320)
            first, other = (
                sw.ShapeFunction(coeffs=(rng.standard_normal(n) + 1j * rng.standard_normal(n))
                                 / np.arange(1, n + 1))
                for n in (22, 17)
            )
        else:
            # unequal band limits and the sign branch: example1 at K=20
            # against example1 at K=15, negated and rotated by pi/2
            signal, _, _, phase = example1
            k20 = sw.extract_shape(signal, phase, band_limit=20).shape
            c15 = example1_result.shape.coeffs
            turned = sw.ShapeFunction(coeffs=-c15 * np.exp(0.5j * np.pi * np.arange(len(c15))))
            first, other = (k20, turned) if case.startswith("k20") else (turned, k20)
        value = sw.shape_distance(first, other)

        # dense offset search: <x1, s2(. + offset)> is a trig polynomial in
        # the offset, evaluated here on 2^18 offsets from its closed form
        m = 512
        tau = 2.0 * np.pi * np.arange(m) / m
        x1 = first(tau)
        x2 = other(tau)
        coeffs = other.coeffs
        k = np.arange(len(coeffs))
        moments = np.exp(1j * np.outer(k, tau)) @ x1  # sum_i x1[i] e^{ik tau_i}
        dense = 1 << 18
        offsets = 2.0 * np.pi * np.arange(dense) / dense
        phases = np.exp(1j * np.outer(k, offsets))
        cross = np.real(coeffs[0]) * np.real(moments[0]) + 2.0 * np.sum(
            np.real((coeffs * moments)[1:, None] * phases[1:]), axis=0
        )
        norms = np.sum(x1 * x1) + np.sum(x2 * x2)
        best = np.sqrt(np.min(norms - 2.0 * np.abs(cross)))
        oracle = best / max(np.linalg.norm(x1), np.linalg.norm(x2))
        assert abs(value - oracle) <= 1e-9


class TestRightVectorFolding:
    def test_layout(self):
        right = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        coeffs = coefficients_from_right_vector(right)
        np.testing.assert_allclose(coeffs, [1.0, 2.0 + 4.0j, 3.0 + 5.0j])
