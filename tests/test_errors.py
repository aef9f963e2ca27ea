import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shapewave as sw
from shapewave.errors import InvalidArgument

from conftest import make_tone, noisy_record

NAN = float("nan")


def phase_domain(signal):
    """The example1 record's values taken as its own 4 096-point phase grid, with 20 periods."""
    return sw.PhaseDomainSignal(grid=sw.NormalizedPhaseGrid(n=4096), values=signal.values,
                                spectrum=sw.forward_spectrum(signal.values), l_theta=20)


def test_invalid_argument_is_value_error_not_domain_error():
    assert issubclass(InvalidArgument, ValueError)
    assert not issubclass(InvalidArgument, sw.ShapewaveError)
    assert "InvalidArgument" not in sw.__all__


#: One out-of-range argument per case; each must raise InvalidArgument.
CASES = {
    "track-mu-nan": lambda s, p: sw.extract_shape_track(s, p, mu=NAN),
    "track-mu-inf": lambda s, p: sw.extract_shape_track(s, p, mu=np.inf),
    "track-center-nan": lambda s, p: sw.extract_shape_track(s, p, centers=[NAN]),
    "track-center-inf": lambda s, p: sw.extract_shape_track(s, p, centers=[2048, np.inf]),
    "track-band-limit-fraction": lambda s, p: sw.extract_shape_track(s, p, centers=[2048], band_limit=2.5),
    "track-band-limit-fraction-no-window": lambda s, p: sw.extract_shape_track(s, p, centers=[0, 5000], band_limit=2.5),
    "track-band-limit-zero-no-window": lambda s, p: sw.extract_shape_track(s, p, centers=[0, 5000], band_limit=0),
    "window-mu-nan": lambda s, p: sw.window_segment(s, p, 2048, mu=NAN),
    "window-mu-inf": lambda s, p: sw.window_segment(s, p, 2048, mu=np.inf),
    "window-mu-negative": lambda s, p: sw.window_segment(s, p, 2048, mu=-1),
    "window-center-fraction": lambda s, p: sw.window_segment(s, p, 2048.5),
    "window-center-nan": lambda s, p: sw.window_segment(s, p, NAN),
    "window-center-inf": lambda s, p: sw.window_segment(s, p, np.inf),
    "default-centers-mu-nan": lambda s, p: sw.localized.default_centers(s, p, mu=NAN),
    "band-limit-0": lambda s, p: sw.extract_shape(s, p, band_limit=0),
    "band-limit-inf": lambda s, p: sw.extract_shape(s, p, band_limit=np.inf),
    "band-limit-fraction": lambda s, p: sw.extract_shape(s, p, band_limit=2.5),
    "grid-0": lambda s, p: sw.extract_shape(s, p, grid_size=0),
    "grid-float": lambda s, p: sw.extract_shape(s, p, grid_size=4096.0),
    "grid-negative": lambda s, p: sw.extract_shape(s, p, grid_size=-4),
    "spectrum-empty": lambda s, p: sw.forward_spectrum([]),
    "hint-nan": lambda s, p: sw.estimate_phase(s, sw.PhaseEstimateConfig(fundamental_hint=NAN)),
    "hint-inf": lambda s, p: sw.estimate_phase(s, sw.PhaseEstimateConfig(fundamental_hint=np.inf)),
    "dt-nan": lambda s, p: sw.DuffingParams(dt=NAN),
    "t-span-inf": lambda s, p: sw.DuffingParams(t_span=np.inf),
    "duffing-steps-past-max-count": lambda s, p: sw.DuffingParams(dt=1e-300),
    "omega-exponent-nan": lambda s, p: sw.DuffingParams(omega_exponent=NAN),
    "sigma-inf": lambda s, p: sw.NoiseSpec(sigma=np.inf),
    "seed-negative": lambda s, p: sw.NoiseSpec(seed=-1),
    "duffing-5-samples": lambda s, p: sw.gen_duffing(n_samples=5),
    "morph-l-theta-0": lambda s, p: sw.gen_morphing_shape(1024, np.cos, np.cos, l_theta=0),
    "morph-8-samples": lambda s, p: sw.gen_morphing_shape(8, np.cos, np.cos, l_theta=4),
    "morph-l-theta-fraction": lambda s, p: sw.gen_morphing_shape(1000, np.cos, np.cos, l_theta=10.5),
    "example1-fraction-samples": lambda s, p: sw.gen_example1(4096.5),
    "duffing-fraction-samples": lambda s, p: sw.gen_duffing(n_samples=100.5),
    "seed-fraction": lambda s, p: sw.NoiseSpec(seed=1.5).draw(3),
    "band-limit-bool": lambda s, p: sw.extract_shape(s, p, band_limit=True),
    "track-center-none": lambda s, p: sw.extract_shape_track(s, p, centers=[None]),
    "window-center-string": lambda s, p: sw.window_segment(s, p, "5"),
    "default-band-limit-l-theta-0": lambda s, p: sw.default_band_limit(64, 0),
    "band-indices-l-theta-negative": lambda s, p: sw.band_indices(1, -3, 64),
    "band-indices-k-fraction": lambda s, p: sw.band_indices(1.5, 20, 4096),
    "band-indices-k-bool": lambda s, p: sw.band_indices(True, 20, 4096),
    "demodulated-band-k-fraction": lambda s, p: sw.extract_demodulated_band(phase_domain(s), 1.5),
    "demodulated-band-k-bool": lambda s, p: sw.extract_demodulated_band(phase_domain(s), True),
    "sample-fraction": lambda s, p: sw.ShapeFunction(np.ones(3, complex)).sample(2.5),
    "sample-bool": lambda s, p: sw.ShapeFunction(np.ones(3, complex)).sample(True),
    "sample-0": lambda s, p: sw.ShapeFunction(np.ones(3, complex)).sample(0),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_out_of_range_argument_raises(example1, call):
    signal, _, _, phase = example1
    with pytest.raises(InvalidArgument):
        call(signal, phase)


def test_track_band_limit_below_one_raises_instead_of_recording(example1):
    signal, _, _, phase = example1
    with pytest.raises(InvalidArgument, match="band limit must be at least 1"):
        sw.extract_shape_track(signal, phase, centers=[1024, 2048], band_limit=0)


def test_default_grid_past_max_count_raises():
    # 16 samples of 1e17 periods: the default grid, 2**60 points, breaks the grid-size rule
    t = np.arange(16.0)
    signal = sw.validate_signal(t, np.cos(t))
    phase = sw.exact_phase_from_samples(signal, 2.0 * np.pi * 1e17 * t / 15.0)
    with pytest.raises(InvalidArgument, match="grid size must be a power of two no larger than"):
        sw.extract_shape(signal, phase)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTinyStep:
    """A valid record with one tiny step ends in the spline core's typed errors, never in a warning."""

    @pytest.mark.parametrize("step, error, match", [
        (5e-324, sw.DegenerateInput, "spline nodes must be distinct"),
        (1e-300, sw.NonFiniteValue, "spline values exceed the float range")], ids=["5e-324", "1e-300"])
    def test_phase_step(self, step, error, match):
        # 5e-324 normalizes to a repeated node; 1e-300 overflows the spline's build
        signal, phase = make_tone(8, 512)
        theta = phase.phases.copy()
        theta[1] = step
        with pytest.raises(error, match=match):
            sw.extract_shape(signal, sw.exact_phase_from_samples(signal, theta))

    def test_time_step(self):
        signal, _ = make_tone(8, 512)
        t = signal.times.copy()
        t[1] = 1e-300
        with pytest.raises(sw.NonFiniteValue, match="spline values exceed the float range"):
            sw.estimate_phase(sw.validate_signal(t, signal.values))


def test_band_limit_past_nyquist_fails_before_allocating(example1):
    signal, _, _, phase = example1
    # the band indices alone would take 8 PB, more than any address space
    with pytest.raises(sw.BandExceedsNyquist):
        sw.extract_shape(signal, phase, band_limit=10**15)


BIG = np.finfo(float).max


def outcome(call):
    """What ``call()`` returns, or None where it raises a typed error."""
    try:
        return call()
    except (sw.ShapewaveError, InvalidArgument):
        return None


def finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["example1", "uniform", "random"]), n_samples=st.integers(512, 2048),
       periods=st.integers(5, 20), seed=st.integers(0, 2**16), peak=st.floats(5e-324, BIG),
       time_exponent=st.integers(-300, 300), time_offset=st.just(0.0) | st.floats(-1e300, 1e300),
       phase_offset=st.just(0.0) | st.floats(-1e12, 1e12) | st.floats(-1e300, 1e300),
       spike=st.none() | st.floats(-BIG, BIG))
# the two envelopes past the float range: the whole record's, and some windows' after the de-taper
@example(kind="random", n_samples=512, periods=5, seed=0,
         peak=float(np.ldexp(np.max(np.abs(noisy_record(512, 5, False, 0)[2])), 1017)),
         time_exponent=0, time_offset=0.0, phase_offset=0.0, spike=None)
@example(kind="example1", n_samples=4096, periods=20, seed=0, peak=0.99 * BIG,
         time_exponent=0, time_offset=0.0, phase_offset=0.0, spike=None)
def test_extreme_records_give_finite_outputs_or_typed_errors(kind, n_samples, periods, seed, peak, time_exponent,
                                                            time_offset, phase_offset, spike):
    # every public entry point, at any amplitude, time unit, time or phase origin and with a
    # spike, returns finite outputs or raises a typed error, and warns of nothing
    if kind == "example1":
        signal, theta, _ = sw.gen_example1(4096)
        t, values = signal.times, signal.values
    else:
        t, theta, values = noisy_record(n_samples, periods, kind == "uniform", seed)
    values = values / np.max(np.abs(values)) * peak
    if spike is not None:
        values[seed % len(values)] = spike
    t = t * 10.0**time_exponent + time_offset
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        signal = outcome(lambda: sw.validate_signal(t, values))
        if signal is None:
            return
        estimated = outcome(lambda: sw.estimate_phase(signal))
        assert estimated is None or finite(estimated.phases)
        phase = outcome(lambda: sw.exact_phase_from_samples(signal, theta + phase_offset))
        if phase is None:
            return
        result = outcome(lambda: sw.extract_shape(signal, phase))
        assert result is None or finite(result.shape.coeffs, result.envelope.values_phase,
                                        result.envelope.values_time, result.residual,
                                        result.fit.rank1_energy_fraction)
        track = outcome(lambda: sw.extract_shape_track(signal, phase))
        assert track is None or not np.any(np.isinf(track.drift))
        for shape, envelope in zip(track.shapes if track else [], track.envelopes if track else []):
            assert shape is None or finite(shape.coeffs, envelope[~np.isnan(envelope)])
