import numpy as np
import pytest

import shapewave as sw
from shapewave.errors import InvalidArgument

NAN = float("nan")


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
    "grid-negative": lambda s, p: sw.resample_to_phase(s, p, -4),
    "resample-grid-float": lambda s, p: sw.resample_to_phase(s, p, 4096.0),
    "spectrum-empty": lambda s, p: sw.forward_spectrum([]),
    "interp-empty": lambda s, p: sw.interp_phase_to_time([], p),
    "interp-grid-1000": lambda s, p: sw.interp_phase_to_time(np.ones(1000), p),
    "hint-nan": lambda s, p: sw.estimate_phase(s, sw.PhaseEstimateConfig(fundamental_hint=NAN)),
    "hint-inf": lambda s, p: sw.estimate_phase(s, sw.PhaseEstimateConfig(fundamental_hint=np.inf)),
    "dt-nan": lambda s, p: sw.DuffingParams(dt=NAN),
    "t-span-inf": lambda s, p: sw.DuffingParams(t_span=np.inf),
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


def test_band_limit_past_nyquist_fails_before_allocating(example1):
    signal, _, _, phase = example1
    # the band indices alone would take 8 PB, more than any address space
    with pytest.raises(sw.BandExceedsNyquist):
        sw.extract_shape(signal, phase, band_limit=10**15)
