import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapewave as sw
from shapewave.core import MIN_PERIODS
from shapewave.phase import BANDWIDTH, PEAK_MARGIN, _dominant_peak

from conftest import make_tone


def reference_dominant_peak(magnitude: np.ndarray) -> int:
    """The fundamental search with one exact band mean per rival peak."""
    mag = magnitude.copy()
    mag[:MIN_PERIODS] = 0.0
    interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
    peaks = np.flatnonzero(interior) + 1
    peaks = peaks[peaks >= MIN_PERIODS]
    if len(peaks) == 0:
        return int(np.argmax(mag))
    best = int(peaks[np.argmax(mag[peaks])])

    def band_power(center: int) -> float:
        lo = max(1, int(np.ceil(center * (1.0 - BANDWIDTH))))
        hi = min(len(mag) - 1, int(np.floor(center * (1.0 + BANDWIDTH))))
        return float(np.mean(mag[lo : hi + 1] ** 2))

    rivals = peaks[np.abs(peaks - best) > BANDWIDTH * best]
    if len(rivals):
        rival = int(rivals[np.argmax([band_power(int(r)) for r in rivals])])
        if band_power(best) < PEAK_MARGIN * band_power(rival):
            raise sw.AmbiguousFundamental(
                f"spectral bands around bins {best} and {rival} hold comparable "
                f"power; no fundamental dominates by {100 * (PEAK_MARGIN - 1):.0f}%"
            )
    return best


def _outcome(search, magnitude):
    try:
        return search(magnitude)
    except sw.AmbiguousFundamental as exc:
        return str(exc)


@st.composite
def spectra(draw):
    """One-sided magnitude spectra: white noise, noisy FM tones and periodic combs.

    A comb's rival bands hold equal or nearly equal mean power, so their
    exact means differ only by rounding, if at all.
    """
    kind = draw(st.sampled_from(["noise", "tone", "comb"]))
    n = draw(st.integers(64, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "comb":
        tooth = rng.integers(0, 4, rng.integers(2, 6)).astype(float)
        return rng.uniform(0.01, 10.0) * np.resize(tooth, n // 2 + 1)
    values = rng.standard_normal(n)
    if kind == "tone":
        t = np.arange(n) / n
        cycles = rng.uniform(MIN_PERIODS, n / 8)
        values *= rng.uniform(0.1, 3.0)
        values += np.cos(2 * np.pi * cycles * t + 0.5 * np.sin(6 * np.pi * t)) ** 3
    return np.abs(np.fft.rfft(values))


class TestEstimatePhase:
    def test_pure_tone_frequency(self):
        signal, _ = make_tone(20)
        phase = sw.estimate_phase(signal)
        freq = np.gradient(phase.phases, signal.times) / (2.0 * np.pi)
        n = signal.n_samples
        interior = slice(n // 20, -(n // 20))
        assert np.max(np.abs(freq[interior] - 20.0)) <= 0.01 * 20.0

    @pytest.mark.parametrize("freq", list(range(8, 65)))
    def test_integer_tones_recover_period_count(self, freq):
        signal, _ = make_tone(freq)
        assert sw.estimate_phase(signal).l_theta == freq

    def test_example1_period_count_and_interior_error(self, example1):
        signal, theta, _, _ = example1
        estimate = sw.estimate_phase(signal)
        assert estimate.l_theta == 20
        err = estimate.phases - theta
        n = signal.n_samples
        interior = slice(n // 10, -(n // 10))
        centered = err[interior] - np.mean(err[interior])
        assert np.max(np.abs(centered)) <= 0.35

    def test_white_noise_is_ambiguous(self):
        rng = np.random.default_rng(123)
        t = np.linspace(0.0, 1.0, 2048)
        signal = sw.validate_signal(t, rng.standard_normal(2048))
        with pytest.raises(sw.AmbiguousFundamental):
            sw.estimate_phase(signal)

    def test_all_zero_signal_is_degenerate(self):
        signal = sw.validate_signal(np.linspace(0.0, 1.0, 1024), np.zeros(1024))
        with pytest.raises(sw.DegenerateInput):
            sw.estimate_phase(signal)

    def test_decreasing_smoothed_phase_is_typed_error(self, monkeypatch):
        # no record tried gives a smoothed phase that decreases, so the spline that takes it
        # back to a non-uniform record's times, the second one, reverses it here
        t = np.linspace(0.0, 1.0, 1024)
        t[1:-1] += 1e-4 * np.cos(np.arange(1, 1023))
        signal = sw.validate_signal(t, np.cos(40.0 * np.pi * t))
        real, calls = sw.phase.natural_cubic_spline, []

        def reversed_back(x, y, xq):
            calls.append(xq)
            return real(x, y, xq)[:: -1 if len(calls) == 2 else 1]

        monkeypatch.setattr(sw.phase, "natural_cubic_spline", reversed_back)
        with pytest.raises(sw.NonMonotoneEstimate, match="not strictly increasing after smoothing"):
            sw.estimate_phase(signal)
        assert len(calls) == 2

    def test_hint_overrides_search(self, example1):
        signal, _, _, _ = example1
        config = sw.PhaseEstimateConfig(fundamental_hint=20)
        assert sw.estimate_phase(signal, config).l_theta == 20

    def test_shift_equivariance(self):
        # delaying the signal by whole samples shifts the phase by a constant
        n = 4096
        t = np.arange(n) / n
        theta = 40.0 * np.pi * t + 2.0 * np.cos(6.0 * np.pi * t)
        values = 1.0 / (1.1 + np.cos(theta + np.cos(2.0 * theta)))
        values /= 2.0 + np.sin(2.0 * np.pi * t)
        delay = 37
        sig_a = sw.validate_signal(t, values)
        sig_b = sw.validate_signal(t, np.roll(values, -delay))
        pa = sw.estimate_phase(sig_a).phases
        pb = sw.estimate_phase(sig_b).phases
        interior = slice(n // 10, -(n // 10))
        diff = (pb - np.roll(pa, -delay))[interior]
        assert np.max(np.abs(diff - np.mean(diff))) <= 0.05

    def test_output_satisfies_phase_invariants(self, example1):
        signal, _, _, _ = example1
        estimate = sw.estimate_phase(signal)
        assert np.all(np.diff(estimate.phases) > 0.0)
        periods = (estimate.phases[-1] - estimate.phases[0]) / (2.0 * np.pi)
        assert abs(periods - estimate.l_theta) <= 0.1
        assert estimate.l_theta >= 4

    def test_extraction_from_estimated_phase(self, example1):
        signal, _, shape, _ = example1
        estimate = sw.estimate_phase(signal)
        result = sw.extract_shape(signal, estimate, band_limit=15)
        tau = 2.0 * np.pi * np.arange(1024) / 1024
        target = shape(tau)
        extracted = result.shape(tau)
        best = max(
            np.corrcoef(np.roll(extracted, m), target)[0, 1] for m in range(1024)
        )
        assert best >= 0.95

    @pytest.mark.parametrize("scale, centered", [(1e110, False), (1e-110, False), (1e200, False), (1e308, True)])
    def test_extreme_time_span(self, scale, centered):
        # non-uniform times spanning far from 1, the last past the float range: the
        # splines' cubic terms, or the span itself, over- or underflowed
        t = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 2000))
        theta = 2.0 * np.pi * 20 * (t - t[0]) / (t[-1] - t[0])
        values = np.cos(theta) + 0.3 * np.cos(2.0 * theta)
        times = 2.0 * t - 1.0 if centered else t
        want = sw.estimate_phase(sw.validate_signal(times, values))
        have = sw.estimate_phase(sw.validate_signal(times * scale, values))
        assert have.l_theta == want.l_theta == 20
        np.testing.assert_allclose(have.phases, want.phases, rtol=0.0, atol=1e-11)
        # a power of two scales the time axis exactly, and the phase not at all
        exact = sw.estimate_phase(sw.validate_signal(np.ldexp(times, round(np.log2(scale))), values))
        assert np.array_equal(exact.phases, want.phases)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sw.PhaseEstimateConfig(smoothing_cutoff=0.9)


class TestDominantPeak:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spectra())
    def test_matches_exact_band_means(self, magnitude):
        assert _outcome(_dominant_peak, magnitude) == _outcome(reference_dominant_peak, magnitude)

    def test_noisy_duffing_matches(self):
        # about a thousand rival peaks per spectrum
        for seed in range(4):
            signal = sw.gen_duffing(noise=sw.NoiseSpec(1.0, seed))
            magnitude = np.abs(np.fft.rfft(signal.values))
            assert _outcome(_dominant_peak, magnitude) == _outcome(reference_dominant_peak, magnitude)


class TestExactPhase:
    def test_example1_exact_phase(self, example1):
        signal, theta, _, _ = example1
        phase = sw.exact_phase_from_samples(signal, theta)
        assert phase.l_theta == 20

    def test_reversed_rejected(self, example1):
        signal, theta, _, _ = example1
        with pytest.raises(sw.NonMonotonePhase):
            sw.exact_phase_from_samples(signal, theta[::-1])

    def test_non_integer_scaling_rejected(self, example1):
        signal, theta, _, _ = example1
        with pytest.raises(sw.NotNearIntegerPeriods):
            sw.exact_phase_from_samples(signal, 1.02 * theta)
