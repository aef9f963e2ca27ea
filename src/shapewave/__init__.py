"""Adaptive periodic shape-function extraction for quasi-periodic signals.

The model is ``f(t) = a(t) * s(theta(t)) + r(t)`` with a 2*pi-periodic shape
``s`` adapted to the signal, a smooth envelope ``a`` and a small residual.
Given (or having estimated) the phase ``theta``, the pipeline resamples the
signal to normalized phase, splits its spectrum into demodulated harmonic
bands, and solves one rank-1 matrix approximation for envelope and shape.
"""

__version__ = "0.1.0"

from .core import (
    Envelope,
    ExtractionResult,
    FitDiagnostics,
    NormalizedPhaseGrid,
    PhaseFunction,
    ShapeFunction,
    Signal,
    evaluate_shape,
    normalize_rank1_factors,
    validate_phase,
    validate_signal,
)
from .datasets import (
    DuffingParams,
    NoiseSpec,
    example1_shape,
    gen_duffing,
    gen_example1,
    gen_morphing_shape,
    integrate_duffing,
    load_phase_csv,
    load_signal_csv,
)
from .errors import (
    AmbiguousFundamental,
    BandExceedsNyquist,
    CenterOutOfRange,
    DegenerateFactors,
    DegenerateInput,
    GridTooCoarse,
    MismatchedLengths,
    NonConvergence,
    NonFiniteState,
    NonFiniteValue,
    NonIncreasingTimes,
    NonMonotoneEstimate,
    NonMonotonePhase,
    NotNearIntegerPeriods,
    ParseError,
    ShapewaveError,
    TooFewPeriods,
    TooShort,
    WindowTooShort,
)
from .extract import (
    BandMatrix,
    Rank1Fit,
    default_band_limit,
    extract_shape,
    rank_one_fit,
    shape_distance,
)
from .localized import (
    ShapeTrack,
    extract_shape_track,
    raised_cosine_taper,
    window_segment,
)
from .phase import PhaseEstimateConfig, estimate_phase, exact_phase_from_samples
from .transform import (
    DemodulatedBand,
    PhaseDomainSignal,
    band_indices,
    default_grid_size,
    extract_demodulated_band,
    forward_spectrum,
)

__all__ = [
    "Envelope", "ExtractionResult", "FitDiagnostics", "NormalizedPhaseGrid",
    "PhaseFunction", "ShapeFunction", "Signal", "evaluate_shape",
    "normalize_rank1_factors", "validate_phase", "validate_signal",
    "DuffingParams", "NoiseSpec", "example1_shape", "gen_duffing", "gen_example1",
    "gen_morphing_shape", "integrate_duffing", "load_phase_csv", "load_signal_csv",
    "AmbiguousFundamental", "BandExceedsNyquist", "CenterOutOfRange",
    "DegenerateFactors", "DegenerateInput", "GridTooCoarse", "MismatchedLengths",
    "NonConvergence", "NonFiniteState", "NonFiniteValue", "NonIncreasingTimes",
    "NonMonotoneEstimate", "NonMonotonePhase", "NotNearIntegerPeriods",
    "ParseError", "ShapewaveError", "TooFewPeriods", "TooShort", "WindowTooShort",
    "BandMatrix", "Rank1Fit", "default_band_limit",
    "extract_shape", "rank_one_fit", "shape_distance",
    "ShapeTrack", "extract_shape_track", "raised_cosine_taper",
    "window_segment",
    "PhaseEstimateConfig", "estimate_phase", "exact_phase_from_samples",
    "DemodulatedBand", "PhaseDomainSignal", "band_indices", "default_grid_size",
    "extract_demodulated_band", "forward_spectrum",
]
