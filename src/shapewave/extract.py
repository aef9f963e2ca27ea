"""Band-matrix assembly, rank-1 fitting and whole-signal shape extraction.

The demodulated bands of a model signal all carry the same envelope, scaled
by one harmonic coefficient each.  Stacking their real and imaginary parts
as columns therefore yields a matrix that is rank 1 up to the residual, and
the best envelope/coefficient pair in the least-squares sense is the leading
singular triplet.  Each band is a trigonometric polynomial of degree below
``l_theta/2``, so the fit runs on ``l_theta`` samples per band.  Records that
share their period count, grid and band count (the windows of a track) are
fitted as one stack of such matrices.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .core import (
    Envelope,
    ExtractionResult,
    FitDiagnostics,
    PhaseFunction,
    ShapeFunction,
    Signal,
    _is_count,
    _normalization,
    evaluate_shape,
)
from .errors import DegenerateInput, InvalidArgument, NonConvergence, NonFiniteValue
from .transform import (
    _band_samples,
    _check_power_of_two,
    _interp_stack,
    _resample_stack,
    _top_band,
    _trig_stack,
    default_grid_size,
)

#: Cap on the automatically chosen number of harmonic bands.
MAX_DEFAULT_BANDS = 20

#: Most harmonics of an envelope summed directly at the records' phases; one with more is
#: back-interpolated from its phase grid, which costs less there (16 harmonics on 65 536
#: samples take about as long either way).
_DIRECT_HARMONICS = 16


@dataclass(frozen=True)
class BandMatrix:
    """Real m x (2K+1) matrix: m band samples, columns [Re g_0, Re g_1..Re g_K, Im g_1..Im g_K]."""

    entries: np.ndarray


@dataclass(frozen=True)
class Rank1Fit:
    """Leading singular triplet of a band matrix.

    ``objective`` is the squared Frobenius misfit of the rank-1
    approximation, equal to the sum of the squared trailing singular values.
    Fitted on a stack of matrices, every field carries the stack axes.
    """

    left: np.ndarray
    right: np.ndarray
    sigma1: float
    singular_values: np.ndarray
    objective: float


def _band_matrix(bands: np.ndarray) -> BandMatrix:
    """Rows k = 0..K of band samples as columns [Re g_0..Re g_K, Im g_1..Im g_K], per stacked block.

    Band 0's imaginary residue carries no model information."""
    entries = np.concatenate((bands.real, bands[..., 1:, :].imag), axis=-2).swapaxes(-1, -2)
    if not np.all(np.isfinite(entries)):
        raise NonFiniteValue("band matrix contains non-finite entries")
    return BandMatrix(entries=entries)


def rank_one_fit(matrix: BandMatrix) -> Rank1Fit:
    """Best rank-1 approximation of the band matrix in the Frobenius norm.

    A stack of matrices ``(..., m, 2K+1)`` is fitted with one stacked SVD;
    every field of the result then carries the stack axes in front, and
    each matrix's triplet equals its own fit.

    Raises
    ------
    DegenerateInput
        If a matrix is identically zero.
    NonConvergence
        If the underlying SVD fails to converge.
    """
    try:
        u, s, vt = np.linalg.svd(matrix.entries, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"SVD failed: {exc}") from exc
    # the SVD of a zero matrix is exact zeros; a sum of squared entries would underflow
    if np.any(s[..., 0] == 0.0):
        raise DegenerateInput("band matrix is identically zero")
    return Rank1Fit(
        left=u[..., :, 0],
        right=vt[..., 0, :],
        sigma1=s[..., 0],
        singular_values=s,
        objective=np.sum(s[..., 1:] ** 2, axis=-1),
    )


def default_band_limit(n: int, l_theta: int) -> int:
    """Largest Nyquist-feasible band count, capped at ``MAX_DEFAULT_BANDS``."""
    return max(1, min(MAX_DEFAULT_BANDS, _top_band(n, l_theta)))


def coefficients_from_right_vector(right: np.ndarray) -> np.ndarray:
    """Fold the real right singular vector back into complex harmonics.

    Layout matches the band matrix columns: ``right[0..K]`` are the real
    parts of c_0..c_K and ``right[K+1..2K]`` the imaginary parts of c_1..c_K.
    Leading stack axes are kept.
    """
    k_max = (right.shape[-1] - 1) // 2
    coeffs = np.zeros(right.shape[:-1] + (k_max + 1,), dtype=complex)
    coeffs[..., 0] = right[..., 0]
    coeffs[..., 1:] = right[..., 1 : k_max + 1] + 1j * right[..., k_max + 1 :]
    return coeffs


def _grid_and_bands(n_samples: int, l_theta: int, grid_size: int | None, band_limit: int | None):
    """The grid size n and band count K of a fit, defaulted as in :func:`extract_shape`."""
    if grid_size is not None:
        _check_power_of_two(grid_size, "grid size")
    n = grid_size if grid_size is not None else default_grid_size(n_samples, l_theta)
    k_max = band_limit if band_limit is not None else default_band_limit(n, l_theta)
    _check_band_limit(k_max)
    return n, k_max


def _check_band_limit(k_max) -> None:
    """The band-count rule: an integer of at least 1."""
    if not _is_count(k_max, 1):
        raise InvalidArgument(f"band limit must be at least 1 and an integer, got {k_max!r}")


def _fit_stack(phases, values, m: int, n: int, k_max: int, zero_dc: bool = False, grid: bool = False):
    """Fit records that share l_theta m, grid n and band count K as one stack.

    ``phases`` holds each record's phase samples and ``values`` the records'
    values back to back.  One stacked resample, one row-wise FFT and one
    band cut give their W x (K+1) x m band blocks, scaled by ``sqrt(n/m)``
    so that the column inner products (hence sigma, the right vector and
    the objective) are those of the n-sample bands.  One stacked SVD and one
    stacked normalization follow.

    Each envelope is a real trigonometric polynomial whose half spectrum X
    is the ``(m+1)//2`` kept bins of ``sqrt(n/m) * rfft(left)``; on the
    phase grid it is their zero-padded n-point ``irfft``.  Its values at the
    records' own phases come by one of two routes, chosen by its harmonic
    count alone (see ``_DIRECT_HARMONICS``): summed directly, or
    back-interpolated by a natural spline through the phase-grid envelope,
    closed periodically.  Either way every record's outputs equal those of
    a stack holding it alone.  ``grid`` asks for the phase-grid envelopes,
    which the spline route computes in any case.

    Each record is fitted scaled by its power of two ``2**-e`` to a peak in
    [0.5, 1), so that no amplitude the floats hold under- or overflows the
    fit.  The scale is exact and is undone on the envelopes.

    Returns
    -------
    (Rank1Fit, ndarray, ndarray or None, ndarray, ndarray)
        The stacked fit of the scaled records, the normalized coefficients
        (W x (K+1)), the phase-grid envelopes (W x n; None where the direct
        route runs and ``grid`` is false), the records' envelopes on their
        own time grids, back to back, and the exponents e.
    """
    counts = [len(p) for p in phases]
    exponent = np.frexp(np.maximum.reduceat(np.abs(values), np.cumsum([0] + counts[:-1])))[1]
    blocks = np.fft.fft(_resample_stack(phases, np.ldexp(values, -np.repeat(exponent, counts)), m, n))
    blocks = _band_samples(blocks, m, range(k_max + 1), m, True)
    blocks *= np.sqrt(n / m)
    if zero_dc:
        blocks[:, 0] = 0.0
    fit = rank_one_fit(_band_matrix(blocks))
    # the bands live on the shifted variable theta - theta0; rotate the
    # coefficients so each shape is a function of its original phase
    origins = np.array([p[0] for p in phases])
    c_raw = coefficients_from_right_vector(fit.right)
    c_raw *= np.exp(-1j * np.arange(k_max + 1) * origins[:, None])
    # the trim leaves an even m's bin m/2 empty
    bins = np.sqrt(n / m) * np.fft.rfft(fit.left)[..., : (m + 1) // 2]
    # the envelope's mean is Re X_0 / n
    scale, coeffs = _normalization(bins[:, 0].real >= 0.0, c_raw, fit.sigma1)
    direct = (m + 1) // 2 - 1 <= _DIRECT_HARMONICS
    values_phase = None
    if grid or not direct:
        # the back-interpolation's periodically closed grid holds the envelopes, so that no
        # second copy of them shares memory with its spline
        closed = np.empty((len(phases), n + 1))
        values_phase = np.multiply(scale[:, None], np.fft.irfft(bins, n), out=closed[:, :-1])
        closed[:, -1] = closed[:, 0]
    if direct:
        bins *= (scale / n)[:, None]
        values_time = _trig_stack(bins, phases)
    else:
        values_time = _interp_stack(closed, phases)
    with _within_float_range("envelope"):
        if values_phase is not None:
            np.ldexp(values_phase, exponent[:, None], out=values_phase)
        np.ldexp(values_time, np.repeat(exponent, counts), out=values_time)
    return fit, coeffs, values_phase, values_time, exponent


@contextlib.contextmanager
def _within_float_range(what: str):
    """Raise :class:`NonFiniteValue` where a result computed in this block would overflow."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteValue(f"{what} exceeds the float range") from exc


def extract_shape(
    signal: Signal,
    phase: PhaseFunction,
    band_limit: int | None = None,
    grid_size: int | None = None,
    zero_dc: bool = False,
) -> ExtractionResult:
    """Run the full extraction: resample, split bands, fit rank 1, normalize.

    Parameters
    ----------
    signal, phase : Signal, PhaseFunction
        Validated input pair.
    band_limit : int, optional
        Number of harmonic bands K >= 1.  Defaults to the largest
        Nyquist-feasible value capped at ``MAX_DEFAULT_BANDS``.
    grid_size : int, optional
        Phase-grid size (power of two).  Defaults to the smallest power of
        two >= max(n_samples, 8 * l_theta).
    zero_dc : bool
        Let band 0 contribute zeros to the fit, forcing c_0 ~ 0.

    Returns
    -------
    ExtractionResult
        Normalized shape, envelope in both coordinates, residual on the
        time grid and fit diagnostics.  The shape coefficients refer to the
        original phase variable, so the reconstruction is
        ``envelope.values_time * shape(phase.phases)``.
    """
    n, k_max = _grid_and_bands(signal.n_samples, phase.l_theta, grid_size, band_limit)
    fit, coeffs, values_phase, values_time, (e,) = _fit_stack(
        [phase.phases], signal.values, phase.l_theta, n, k_max, zero_dc, grid=True)
    coeffs = coeffs[0]
    with _within_float_range("residual"):
        residual = signal.values - values_time * evaluate_shape(coeffs, phase.phases)

    # singular values past rank l_theta are reported as 0; the fit's are those of the record times 2**-e
    s = fit.singular_values[0]
    s = np.concatenate((s, np.zeros(2 * len(coeffs) - 1 - len(s))))
    s_sq = s**2
    with np.errstate(over="ignore"):  # inf only where the value exceeds the float range
        singular_values, objective = np.ldexp(s, e), np.ldexp(fit.objective[0], 2 * e)
    diagnostics = FitDiagnostics(
        singular_values=singular_values,
        rank1_energy_fraction=float(s_sq[0] / np.sum(s_sq)),
        objective_value=float(objective),
    )
    return ExtractionResult(
        shape=ShapeFunction(coeffs=coeffs),
        envelope=Envelope(values_phase=values_phase[0], values_time=values_time),
        residual=residual,
        fit=diagnostics,
        l_theta=phase.l_theta,
        grid_size=n,
    )


def _pair_distances(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """:func:`shape_distance` of every row pair of two (P, K+1) coefficient stacks.

    Each pair's cross term is sampled on 8*(K+1) rotations; Newton steps then
    polish the local extrema of all pairs together, and each pair keeps its
    smallest misfit.  Every row pair gives what it gives alone.
    """
    c1, c2 = c1.copy(), c2.copy()
    c1[:, 0], c2[:, 0] = c1[:, 0].real, c2[:, 0].real
    k = np.arange(c1.shape[-1])
    weights = np.where(k == 0, 1.0, 2.0)  # mean of s^2 is sum(weights * |c|^2)
    scale = np.maximum(np.sum(weights * np.abs(c1) ** 2, axis=-1),
                       np.sum(weights * np.abs(c2) ** 2, axis=-1))
    # cross(delta) = Re sum_k w_k exp(1j*k*delta), sampled up to a factor 1/m
    w = weights * np.conj(c1) * c2
    m = 8 * len(k)
    mag = np.abs(np.fft.irfft(np.conj(c1) * c2, m))
    pair, j = np.nonzero((mag >= np.roll(mag, 1, axis=-1)) & (mag >= np.roll(mag, -1, axis=-1)))
    delta = 2.0 * np.pi * j / m
    w = w[pair]
    for _ in range(8):  # Newton steps on cross'(delta) = 0
        z = w * np.exp(1j * (delta[:, None] * k))
        curvature = np.sum(z.real * (k * k), axis=-1)
        delta -= np.divide(np.sum(z.imag * k, axis=-1), curvature,
                           out=np.zeros_like(curvature), where=curvature != 0.0)
    # the misfit as a coefficient difference stays accurate for near-equal shapes
    rotated = c2[pair] * np.exp(1j * (delta[:, None] * k))
    misfit = np.minimum(np.sum(weights * np.abs(c1[pair] - rotated) ** 2, axis=-1),
                        np.sum(weights * np.abs(c1[pair] + rotated) ** 2, axis=-1))
    best = np.full(len(c1), np.inf)
    np.minimum.at(best, pair, misfit)
    # a pair of zero shapes is at distance 0
    return np.sqrt(np.divide(best, scale, out=np.zeros_like(scale), where=scale != 0.0))


def _padded(shapes, k_max: int) -> np.ndarray:
    """Coefficients of ``shapes`` zero-padded to K = k_max, one row each."""
    out = np.zeros((len(shapes), k_max + 1), dtype=complex)
    for row, shape in zip(out, shapes):
        row[: len(shape.coeffs)] = shape.coeffs
    return out


def shape_distance(s1: ShapeFunction, s2: ShapeFunction) -> float:
    """Rotation- and sign-invariant relative L2 distance between shapes.

    The L2 misfit of ``s1`` and ``+-s2(. + delta)``, minimized over delta and
    the sign, over the larger norm; all read off the coefficients by Parseval.
    The cross term is sampled on 8*(K+1) rotations, and Newton steps polish
    every local extremum of its magnitude.  Zero iff the shapes coincide up
    to rotation and sign.
    """
    c1, c2 = _padded((s1, s2), max(s1.band_limit, s2.band_limit))
    return float(_pair_distances(c1[None], c2[None])[0])
