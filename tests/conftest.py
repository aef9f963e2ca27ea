import numpy as np
import pytest

import shapewave as sw

TAU_GRID = 2.0 * np.pi * np.arange(1024) / 1024


def spectrum_frequencies(n: int) -> np.ndarray:
    """Frequency index of each ``forward_spectrum`` entry: -n/2 .. n/2-1."""
    return np.arange(-(n // 2), n // 2)


@pytest.fixture(scope="session")
def example1():
    """Clean first benchmark: (signal, exact theta, exact shape, phase)."""
    signal, theta, shape = sw.gen_example1(4096)
    phase = sw.exact_phase_from_samples(signal, theta)
    return signal, theta, shape, phase


@pytest.fixture(scope="session")
def example1_result(example1):
    signal, _, _, phase = example1
    return sw.extract_shape(signal, phase, band_limit=15)


def make_tone(freq: int, n_samples: int = 2048, endpoint: bool = True):
    """Pure cosine at an integer number of cycles over [0, 1]."""
    if endpoint:
        t = np.linspace(0.0, 1.0, n_samples)
    else:
        t = np.arange(n_samples) / n_samples
    signal = sw.validate_signal(t, np.cos(2.0 * np.pi * freq * t))
    phase = sw.exact_phase_from_samples(signal, 2.0 * np.pi * freq * t)
    return signal, phase


def resample_one(signal, phase, n: int):
    """The record resampled onto the n-point phase grid by the fit's stacked resample, as a stack of one."""
    values = sw.transform._resample_stack([phase.phases], signal.values, phase.l_theta, n)[0]
    return sw.PhaseDomainSignal(grid=sw.NormalizedPhaseGrid(n=n), values=values,
                                spectrum=sw.forward_spectrum(values), l_theta=phase.l_theta)


def interp_one(values_phase, phase):
    """Phase-grid samples, closed periodically, splined back to the phase's time grid as a stack of one."""
    values_phase = np.asarray(values_phase, dtype=float)
    return sw.transform._interp_stack(np.append(values_phase, values_phase[0])[None], [phase.phases])


def noisy_record(n_samples: int, periods: int, uniform: bool, seed: int):
    """An example1-style record with noise 0.1 on [0, 1]: (times, exact theta, values).

    The times are uniform, or sorted uniform-random draws with pinned ends.
    """
    rng = np.random.default_rng(seed)
    if uniform:
        t = np.linspace(0.0, 1.0, n_samples)
    else:
        t = np.sort(rng.uniform(0.0, 1.0, n_samples))
        t[0], t[-1] = 0.0, 1.0
    theta = 2.0 * np.pi * periods * t + 2.0 * np.cos(6.0 * np.pi * t) * periods / 40
    values = (1.0 / (1.1 + np.cos(theta + np.cos(2.0 * theta))) / (2.0 + np.sin(2.0 * np.pi * t))
              + 0.1 * rng.standard_normal(n_samples))
    return t, theta, values
