import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapewave as sw
from shapewave import transform
from shapewave.errors import InvalidArgument

from conftest import interp_one, make_tone, resample_one, spectrum_frequencies


def naive_dft(values):
    """O(n^2) direct evaluation of the spectrum, the oracle for the FFT path."""
    values = np.asarray(values, dtype=complex)
    n = len(values)
    omega = np.arange(-(n // 2), n // 2)
    j = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(omega, j) / n)
    return kernel @ values


class TestForwardSpectrum:
    def test_impulse(self):
        x = np.zeros(16)
        x[0] = 1.0
        np.testing.assert_allclose(sw.forward_spectrum(x), np.ones(16), atol=1e-12)

    def test_pure_tone_bins(self):
        n = 64
        x = np.cos(2.0 * np.pi * 5.0 * np.arange(n) / n)
        spec = sw.forward_spectrum(x)
        omega = spectrum_frequencies(n)
        assert abs(spec[omega == 5][0] - n / 2) < 1e-9 * n
        assert abs(spec[omega == -5][0] - n / 2) < 1e-9 * n
        rest = np.abs(spec[(omega != 5) & (omega != -5)])
        assert np.max(rest) < 1e-9 * n

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_direct_sum(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        diff = np.max(np.abs(sw.forward_spectrum(x) - naive_dft(x)))
        assert diff <= 1e-9 * np.linalg.norm(x)

    def test_parseval_on_random_signals(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal(128)
            spec = sw.forward_spectrum(x)
            lhs = np.sum(x * x)
            rhs = np.sum(np.abs(spec) ** 2) / len(x)
            assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            sw.forward_spectrum(np.ones(48))


class TestResampleToPhase:
    def test_constant_signal(self):
        t = np.linspace(0.0, 1.0, 512)
        signal = sw.validate_signal(t, np.full(512, 3.25))
        phase = sw.exact_phase_from_samples(signal, 40.0 * np.pi * t)
        pds = resample_one(signal, phase, 256)
        np.testing.assert_allclose(pds.values, 3.25, atol=1e-12)
        omega = spectrum_frequencies(256)
        off_dc = np.abs(pds.spectrum[omega != 0])
        assert np.max(off_dc) < 1e-9 * np.abs(pds.spectrum[omega == 0][0])

    def test_pure_tone_resampling(self):
        signal, phase = make_tone(20)
        pds = resample_one(signal, phase, 1024)
        omega = spectrum_frequencies(1024)
        peak = np.abs(pds.spectrum[omega == 20][0])
        assert abs(peak - 512.0) <= 0.005 * 512.0
        others = np.abs(pds.spectrum[(omega != 20) & (omega != -20)])
        assert np.max(others) <= 0.01 * peak

    def test_example1_band_energy_concentration(self, example1):
        signal, _, _, phase = example1
        pds = resample_one(signal, phase, 4096)
        omega = spectrum_frequencies(4096)
        in_band = np.zeros(len(omega), dtype=bool)
        for m in range(0, 4096 // 40 + 1):
            in_band |= np.abs(np.abs(omega) - 20 * m) <= 9
        energy = np.abs(pds.spectrum) ** 2
        assert np.sum(energy[in_band]) >= 0.99 * np.sum(energy)

    def test_grid_too_coarse(self):
        signal, phase = make_tone(20)
        with pytest.raises(sw.GridTooCoarse):
            resample_one(signal, phase, 64)

    def test_conjugate_symmetry_and_parseval(self, example1):
        signal, _, _, phase = example1
        pds = resample_one(signal, phase, 1024)
        n = pds.grid.n
        spec = pds.spectrum
        omega = spectrum_frequencies(n)
        scale = np.max(np.abs(spec))
        for w in range(1, n // 2):
            lhs = spec[omega == -w][0]
            rhs = np.conj(spec[omega == w][0])
            assert abs(lhs - rhs) <= 1e-10 * scale
        lhs = np.sum(pds.values**2)
        rhs = np.sum(np.abs(spec) ** 2) / n
        assert abs(lhs - rhs) <= 1e-9 * lhs


class TestBandIndices:
    def test_dc_band_even(self):
        assert sw.band_indices(0, 20, 4096) == (-10, 9)

    def test_odd_period_count(self):
        assert sw.band_indices(3, 21, 4096) == (53, 73)

    def test_nyquist_guard(self):
        with pytest.raises(sw.BandExceedsNyquist):
            sw.band_indices(500, 20, 4096)

    def test_nyquist_decisions_are_the_inequality(self):
        # band k fits iff |k|*l_theta + ceil(l_theta/2) <= n//2, in both band helpers
        for n in [1, 2, 4, 8, 64, 256]:
            for l_theta in range(1, 40):
                half_hi = (l_theta + 1) // 2
                fits = []
                for k in range(-140, 141):
                    try:
                        sw.band_indices(k, l_theta, n)
                    except sw.BandExceedsNyquist:
                        continue
                    fits.append(k)
                assert fits == [k for k in range(-140, 141) if abs(k) * l_theta + half_hi <= n // 2]
                expected = max(1, min(sw.extract.MAX_DEFAULT_BANDS, (n // 2 - half_hi) // l_theta))
                assert sw.default_band_limit(n, l_theta) == expected

    def test_bands_tile_the_axis(self):
        n, l_theta, k_max = 1024, 20, 10
        covered = []
        for k in range(-k_max, k_max + 1):
            lo, hi = sw.band_indices(k, l_theta, n)
            covered.extend(range(lo, hi + 1))
        assert len(covered) == len(set(covered))
        assert sorted(covered) == list(range(min(covered), max(covered) + 1))


class TestDemodulatedBands:
    def test_single_harmonic_demodulates_to_constant(self):
        t = np.linspace(0.0, 1.0, 2048)
        l_theta = 20
        signal = sw.validate_signal(t, np.cos(2.0 * np.pi * l_theta * t))
        phase = sw.exact_phase_from_samples(signal, 2.0 * np.pi * l_theta * t)
        pds = resample_one(signal, phase, 1024)
        g1 = sw.extract_demodulated_band(pds, 1).values
        np.testing.assert_allclose(g1, 0.5, atol=1e-7)
        for k in (0, 2):
            gk = sw.extract_demodulated_band(pds, k).values
            assert np.max(np.abs(gk)) < 1e-6

    def test_am_tone_band_is_half_envelope(self):
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
        g1 = sw.extract_demodulated_band(pds, 1).values
        np.testing.assert_allclose(g1, env / 2.0, atol=1e-8)

    def test_complex_envelope_demodulation(self):
        # A(phi) complex and band-limited: band k returns A exactly
        n = 1024
        l_theta = 16
        k = 2
        phi = np.arange(n) / n
        a_re = 0.8 + 0.2 * np.cos(2.0 * np.pi * phi) + 0.1 * np.sin(2.0 * np.pi * 3 * phi)
        a_im = 0.3 - 0.15 * np.sin(2.0 * np.pi * 2 * phi)
        envelope = a_re + 1j * a_im
        values = 2.0 * np.real(envelope * np.exp(2j * np.pi * k * l_theta * phi))
        pds = sw.PhaseDomainSignal(
            grid=sw.NormalizedPhaseGrid(n=n),
            values=values,
            spectrum=sw.forward_spectrum(values),
            l_theta=l_theta,
        )
        gk = sw.extract_demodulated_band(pds, k).values
        np.testing.assert_allclose(gk, envelope, atol=1e-8)

    def test_band_sum_reconstructs_covered_signal(self):
        # a signal whose spectrum lies strictly inside bands 0..3 is
        # reproduced exactly by demodulating and re-modulating those bands
        n = 1024
        l_theta = 20
        k_max = 3
        rng = np.random.default_rng(8)
        phi = np.arange(n) / n
        values = np.zeros(n)
        for k in range(k_max + 1):
            envelope = np.zeros(n, dtype=complex)
            for m in range(-6, 7):
                amp = rng.standard_normal() + 1j * rng.standard_normal()
                envelope += amp * np.exp(2j * np.pi * m * phi)
            if k == 0:
                values = values + np.real(envelope)
            else:
                values = values + 2.0 * np.real(envelope * np.exp(2j * np.pi * k * l_theta * phi))
        pds = sw.PhaseDomainSignal(
            grid=sw.NormalizedPhaseGrid(n=n),
            values=values,
            spectrum=sw.forward_spectrum(values),
            l_theta=l_theta,
        )
        recon = np.real(sw.extract_demodulated_band(pds, 0).values)
        for k in range(1, k_max + 1):
            gk = sw.extract_demodulated_band(pds, k).values
            recon = recon + 2.0 * np.real(gk * np.exp(2j * np.pi * k * l_theta * phi))
        np.testing.assert_allclose(recon, values, atol=1e-9 * np.max(np.abs(values)))

    def test_band_energy_identity(self, example1):
        signal, _, _, phase = example1
        pds = resample_one(signal, phase, 1024)
        n, l_theta = 1024, phase.l_theta
        k_max = sw.default_band_limit(n, l_theta)
        omega = spectrum_frequencies(n)
        energy = np.abs(pds.spectrum) ** 2
        total = np.sum(energy)
        in_any = np.zeros(n, dtype=bool)
        band_sum = 0.0
        for k in range(-k_max, k_max + 1):
            lo, hi = sw.band_indices(k, l_theta, n)
            mask = (omega >= lo) & (omega <= hi)
            assert not np.any(in_any & mask)
            in_any |= mask
            band_sum += np.sum(energy[mask])
        outside = np.sum(energy[~in_any])
        assert abs(band_sum + outside - total) <= 1e-9 * total


class TestInterpPhaseToTime:
    def test_constant(self, example1):
        _, _, _, phase = example1
        out = interp_one(np.full(256, 2.5), phase)
        np.testing.assert_allclose(out, 2.5, atol=1e-12)

    def test_linear_phase_identity(self):
        # linear phase over [0, 1]: grid values interpolated back to the time
        # grid must match the analytic function at phi(t) to spline accuracy
        def func(x):
            return np.cos(2.0 * np.pi * 3.0 * x) + 0.5 * np.sin(2.0 * np.pi * 5.0 * x)

        n = 1024
        t = np.linspace(0.0, 1.0, n)
        signal = sw.validate_signal(t, func(t))
        phase = sw.exact_phase_from_samples(signal, 2.0 * np.pi * 8.0 * t)
        grid_values = func(np.arange(n) / n)
        out = interp_one(grid_values, phase)
        target = func(transform._normalized([phase.phases]))
        assert np.max(np.abs(out - target)) <= 1e-7 * np.max(np.abs(target))

    def test_round_trip(self):
        n_t = 4096
        t = np.linspace(0.0, 1.0, n_t)
        theta = 40.0 * np.pi * t + 2.0 * np.cos(6.0 * np.pi * t)
        values = np.cos(theta) + 0.3 * np.cos(2.0 * theta + 0.7)
        signal = sw.validate_signal(t, values)
        phase = sw.exact_phase_from_samples(signal, theta)
        pds = resample_one(signal, phase, 4096)
        back = interp_one(pds.values, phase)
        assert np.max(np.abs(back - values)) <= 1e-4 * np.max(np.abs(values))


class TestNaturalCubicSpline:
    """Against scipy's natural CubicSpline, kept in the tests as the reference."""

    @staticmethod
    def assert_matches_scipy(x, y, xq):
        from scipy.interpolate import CubicSpline

        ref = CubicSpline(x, y, bc_type="natural")(xq)
        got = transform.natural_cubic_spline(x, y, xq)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(y))

    def test_non_uniform_nodes_on_uniform_grid(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.uniform(0.2, 1.8, 1229))
        y = np.sin(x / 7.0) + 0.1 * rng.standard_normal(len(x))
        self.assert_matches_scipy(x, y, np.linspace(x[0], x[-1], 4096, endpoint=False))

    def test_uniform_nodes_at_non_uniform_points(self):
        rng = np.random.default_rng(6)
        x = np.arange(513) / 512
        y = rng.standard_normal(len(x))
        xq = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 3000)), [1.0]))
        self.assert_matches_scipy(x, y, xq)

    def test_extrapolates_with_end_pieces(self):
        x = np.array([0.0, 0.3, 0.5, 1.1, 2.0])
        y = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        self.assert_matches_scipy(x, y, np.array([-0.1, -1e-12, 2.0 + 1e-12, 2.1]))

    @pytest.mark.parametrize("nodes", [2, 3])
    def test_fewest_nodes(self, nodes):
        x = np.array([0.0, 0.7, 2.0])[:nodes]
        y = np.array([1.5, -0.5, 2.5])[:nodes]
        self.assert_matches_scipy(x, y, np.linspace(-0.5, 2.5, 31))

    @pytest.mark.parametrize("x, y, xq, match", [
        pytest.param([1.0, 0.0], None, None, "spline nodes must be increasing", id="x0"),
        pytest.param([2.0, 1.0, 0.0], None, None, "spline nodes must be increasing", id="x1"),
        pytest.param([0.0, 2.0, 1.0, 3.0], None, None, "spline nodes must be increasing", id="x2"),
        pytest.param([0.0], None, None, "at least two", id="one-node"),
        pytest.param([0.0, 1.0, 2.0], [1.0, 2.0], None, "of one length", id="short-values"),
        pytest.param([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [2.0, 3.0]], None, "1-d", id="2-d-nodes"),
        pytest.param([0.0, np.nan, 1.0], None, None, "nodes must be finite", id="nan-node"),
        pytest.param([0.0, 1.0, np.inf], None, None, "nodes must be finite", id="inf-node"),
        pytest.param([0.0, 1.0, 2.0], [0.0, np.nan, 1.0], None, "values must be finite", id="nan-value"),
        pytest.param([0.0, 1.0, 2.0], [0.0, 1.0, -np.inf], None, "values must be finite", id="inf-value"),
        pytest.param([0.0, 1.0, 2.0], None, [0.5, np.nan], "queries must be finite", id="nan-query"),
        pytest.param([0.0, 1.0, 2.0], None, [[np.inf]], "queries must be finite", id="inf-query"),
    ])
    def test_decreasing_nodes_are_typed_error(self, x, y, xq, match):
        y = np.arange(len(x), dtype=float) if y is None else y
        with pytest.raises(InvalidArgument, match=match):
            transform.natural_cubic_spline(x, y, [0.5] if xq is None else xq)

    @pytest.mark.parametrize("x", [[0.0, 0.0], [0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 2.0]],
                             ids=["two-equal", "interior", "end"])
    def test_singular_system_is_typed_error(self, x):
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(sw.DegenerateInput):
            transform.natural_cubic_spline(x, np.arange(1.0, len(x) + 1), [0.5])


class TestLapackLoader:
    """``transform.dgtsv`` is SciPy's LAPACK ``dgtsv``, loaded without ``scipy.linalg``."""

    def test_import_leaves_scipy_linalg_unloaded(self):
        src = str(Path(sw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import shapewave, shapewave.cli, sys; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg') or 'flapack' in m))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @staticmethod
    def assert_solves_like_scipy(lower, diag, upper, rhs):
        from scipy.linalg.lapack import dgtsv

        ours = transform.dgtsv(lower.copy(), diag.copy(), upper.copy(), rhs.copy(), True, True, True, True)
        ref = dgtsv(lower.copy(), diag.copy(), upper.copy(), rhs.copy(), True, True, True, True)
        assert ours[-1] == ref[-1] == 0
        for got, want in zip(ours[:-1], ref[:-1]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_diagonally_dominant_systems(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 3000))
        lower, upper = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
        diag = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 4.0, n)
        rhs = rng.standard_normal((n, int(rng.integers(1, 4))))
        self.assert_solves_like_scipy(lower, diag, upper, rhs)

    def test_two_set_block_diagonal_spline_system(self):
        # the slope system the spline core builds for two node sets, split where x drops
        seen = []
        real = transform.dgtsv

        def spy(lower, diag, upper, rhs, *flags):
            seen.append((lower.copy(), diag.copy(), upper.copy(), rhs.copy()))
            return real(lower, diag, upper, rhs, *flags)

        rng = np.random.default_rng(7)
        x = np.concatenate((np.sort(rng.uniform(0.0, 1.0, 300)), np.sort(rng.uniform(0.0, 1.0, 200))))
        with mock.patch.object(transform, "dgtsv", spy):
            transform._spline_pieces(x, rng.standard_normal(len(x)))
        ((lower, diag, upper, rhs),) = seen
        assert lower[299] == upper[299] == 0.0
        self.assert_solves_like_scipy(lower, diag, upper, rhs)


def spline_call(call):
    """Run ``call`` and return the ``(x, xq, i)`` it handed to the spline core."""
    seen = []
    real = transform._spline

    def spy(x, y, xq, i):
        seen.append((x, xq, i))
        return real(x, y, xq, i)

    with mock.patch.object(transform, "_spline", spy):
        call()
    (found,) = seen
    return found


def unit_phase(interior):
    """A phase whose normalized values are exactly 0, sorted ``interior``, 1."""
    phases = np.concatenate(([0.0], np.unique(interior), [1.0]))
    times = np.arange(len(phases), dtype=float)
    # zero values keep the spline finite on node gaps of one ulp
    return sw.Signal(times, np.zeros(len(times))), sw.PhaseFunction(phases, 1)


@st.composite
def node_adjacent(draw, n):
    """Points in (0, 1): random ones, nodes k/n and their float neighbours on both sides."""
    k = np.array(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=40)))
    nodes = k / n
    rand = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                  max_size=40)))
    points = np.concatenate((nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, 1.0), rand))
    return points[(points > 0.0) & (points < 1.0)]


class TestSplineIntervals:
    """The closed-form interval indices of the two phase-grid splines equal a binary search."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), log_n=st.integers(2, 14))
    def test_resample_index_is_searchsorted(self, data, log_n):
        n = 1 << log_n
        signal, phase = unit_phase(data.draw(node_adjacent(n)))
        x, xq, i = spline_call(lambda: resample_one(signal, phase, n))
        np.testing.assert_array_equal(xq, np.arange(n) / n)
        np.testing.assert_array_equal(i, np.searchsorted(x[1:-1], xq, "right"))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), log_n=st.integers(1, 13))
    def test_interp_index_is_searchsorted(self, data, log_n):
        n = 1 << log_n
        _, phase = unit_phase(data.draw(node_adjacent(n)))
        values = np.cos(np.arange(n))
        x, xq, i = spline_call(lambda: interp_one(values, phase))
        assert xq[0] == 0.0 and xq[-1] == 1.0
        np.testing.assert_array_equal(i, np.searchsorted(x[1:-1], xq, "right"))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), log_n=st.integers(2, 10), count=st.integers(2, 4))
    def test_stacked_indices_are_offset_searchsorted(self, data, log_n, count):
        n = 1 << log_n
        records = [unit_phase(data.draw(node_adjacent(n))) for _ in range(count)]
        lengths = [len(phase.phases) for _, phase in records]
        starts = np.cumsum([0] + lengths[:-1])

        phases = [phase.phases for _, phase in records]
        values = np.concatenate([signal.values for signal, _ in records])
        x, xq, i = spline_call(lambda: transform._resample_stack(phases, values, 1, n))
        grid = np.arange(n) / n
        np.testing.assert_array_equal(xq, np.tile(grid, count))
        expected = [np.searchsorted(x[lo + 1 : lo + size - 1], grid, "right") + lo
                    for lo, size in zip(starts, lengths)]
        np.testing.assert_array_equal(i, np.concatenate(expected))

        closed = np.cos(np.arange(count * (n + 1))).reshape(count, n + 1)
        x, xq, i = spline_call(lambda: transform._interp_stack(closed, phases))
        nodes = np.arange(n + 1) / n
        np.testing.assert_array_equal(x, np.tile(nodes, count))
        expected = [np.searchsorted(nodes[1:-1], xq[lo : lo + size], "right") + r * (n + 1)
                    for r, (lo, size) in enumerate(zip(starts, lengths))]
        np.testing.assert_array_equal(i, np.concatenate(expected))

    @pytest.fixture(scope="class")
    def long_record(self):
        """20 000 samples: several 8 192-query blocks and a partial last one."""
        t = np.linspace(0.0, 1.0, 20000)
        theta = 2.0 * np.pi * 97.0 * t + 2.0 * np.cos(6.0 * np.pi * t)
        noise = 0.1 * np.random.default_rng(3).standard_normal(len(t))
        signal = sw.validate_signal(t, np.cos(theta + np.cos(2.0 * theta)) + noise)
        return signal, sw.exact_phase_from_samples(signal, theta)

    @pytest.mark.parametrize("n", [1024, 32768])
    def test_resample_equals_generic_spline(self, long_record, n):
        signal, phase = long_record
        pds = resample_one(signal, phase, n)
        phi = transform._normalized([phase.phases])
        ref = transform.natural_cubic_spline(phi, signal.values, pds.grid.nodes)
        assert np.array_equal(pds.values, ref)

    @pytest.mark.parametrize("n", [4096, 256])
    def test_interp_equals_generic_spline(self, long_record, n):
        _, phase = long_record
        v = np.random.default_rng(n).standard_normal(n)
        phi = transform._normalized([phase.phases])
        ref = transform.natural_cubic_spline(np.arange(n + 1) / n, np.append(v, v[0]), phi)
        assert np.array_equal(interp_one(v, phase), ref)


@st.composite
def record_stack(draw):
    """1-5 records of different lengths (down to MIN_SAMPLES) with random, uneven node gaps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for length in draw(st.lists(st.integers(sw.core.MIN_SAMPLES, 400), min_size=1, max_size=5)):
        gaps = rng.uniform(0.05, 1.0, length - 1) ** 3
        phases = rng.uniform(-50.0, 50.0) + np.concatenate(([0.0], np.cumsum(gaps)))
        signal = sw.validate_signal(np.arange(length, dtype=float), rng.standard_normal(length))
        records.append((signal, sw.PhaseFunction(phases, 1)))
    return records


class TestStackedSpline:
    """Each row of a stacked spline equals the spline of its record alone, bit for bit."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(records=record_stack(), log_n=st.integers(2, 10), log_n_interp=st.integers(1, 10))
    def test_rows_equal_single_record_splines(self, records, log_n, log_n_interp):
        n, n_interp = 1 << log_n, 1 << log_n_interp
        phases = [phase.phases for _, phase in records]
        stacked = transform._resample_stack(phases, np.concatenate([signal.values for signal, _ in records]), 1, n)
        assert stacked.shape == (len(records), n)
        for row, (signal, phase) in zip(stacked, records):
            assert np.array_equal(row, resample_one(signal, phase, n).values)

        values = np.sin(np.arange(len(records) * n_interp) * 0.7).reshape(len(records), n_interp)
        closed = np.concatenate((values, values[:, :1]), axis=1)
        flat = transform._interp_stack(closed, phases)
        rows = np.split(flat, np.cumsum([len(phase.phases) for _, phase in records])[:-1])
        for row, v, (_, phase) in zip(rows, values, records):
            assert np.array_equal(row, interp_one(v, phase))


class TestEnvelopeRoutes:
    """The envelope's two routes to the time grid: its direct sum and the phase-grid spline."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(records=record_stack(), harmonics=st.integers(1, 8), log_n=st.integers(6, 12),
           decay=st.floats(0.0, 3.0), log_size=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_direct_sum_is_exact_and_the_spline_within_its_error(self, records, harmonics, log_n, decay,
                                                                 log_size, seed):
        # stated tolerances, with c = X/n the bins of one record and k = 0..H:
        # the direct sum is within 2*(H+2)*eps*sum((1 + 2*pi*k)*|c_k|) of the exact
        # polynomial; the spline is within its interpolation error
        # (5/384)*2*sum(|c_k|*(2*pi*k/n)**4) plus 16*eps*sum|c_k| of it, away from the
        # record ends (at most 0.07 and 0.33 of these in 3 000 scratch draws)
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        phases = [phase.phases for _, phase in records]
        bins = ((rng.standard_normal((len(phases), harmonics + 1))
                 + 1j * rng.standard_normal((len(phases), harmonics + 1)))
                / np.arange(1, harmonics + 2) ** decay * 10.0 ** log_size)
        direct = transform._trig_stack(bins / n, phases)
        grid = np.fft.irfft(bins, n)
        spline = transform._interp_stack(np.concatenate((grid, grid[:, :1]), axis=1), phases)

        eps = np.finfo(float).eps
        k = np.arange(harmonics + 1)
        lo = 0
        for c, p in zip(bins / n, phases):
            hi = lo + len(p)
            phi = (p - p[0]) / (p[-1] - p[0])
            # the exact polynomial, summed in extended precision where the platform has it
            angle = 2 * np.arccos(np.longdouble(-1)) * phi.astype(np.longdouble)
            exact = c[0].real + 2 * np.sum(c[1:, None].real.astype(np.longdouble) * np.cos(k[1:, None] * angle)
                                           - c[1:, None].imag.astype(np.longdouble) * np.sin(k[1:, None] * angle),
                                           axis=0)
            direct_tol = 2 * (harmonics + 2) * eps * np.sum((1 + 2 * np.pi * k) * np.abs(c))
            spline_tol = 5 / 384 * 2 * np.sum(np.abs(c) * (2 * np.pi * k / n) ** 4) + 16 * eps * np.sum(np.abs(c))
            if np.finfo(np.longdouble).eps < eps:
                assert np.max(np.abs(direct[lo:hi] - exact)) <= direct_tol
            inner = (phi >= 0.1) & (phi <= 0.9)
            assert np.all(np.abs(direct[lo:hi] - spline[lo:hi])[inner] <= direct_tol + spline_tol)
            # each record summed alone gives what the stack gives
            assert np.array_equal(transform._trig_stack(c[None], [p]), direct[lo:hi])
            lo = hi
