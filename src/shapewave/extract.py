"""Band-matrix assembly, rank-1 fitting and whole-signal shape extraction.

The demodulated bands of a model signal all carry the same envelope, scaled
by one harmonic coefficient each.  Stacking their real and imaginary parts
as columns therefore yields a matrix that is rank 1 up to the residual, and
the best envelope/coefficient pair in the least-squares sense is the leading
singular triplet.  Each band is a trigonometric polynomial of degree below
``l_theta/2``, so the fit runs on ``l_theta`` samples per band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Envelope,
    ExtractionResult,
    FitDiagnostics,
    PhaseFunction,
    ShapeFunction,
    Signal,
    evaluate_shape,
    normalize_rank1_factors,
)
from .errors import DegenerateInput, MismatchedLengths, NonConvergence, NonFiniteValue
from .transform import (
    DemodulatedBand,
    _band_samples,
    band_indices,
    default_grid_size,
    interp_phase_to_time,
    resample_to_phase,
)

#: Cap on the automatically chosen number of harmonic bands.
MAX_DEFAULT_BANDS = 20


@dataclass(frozen=True)
class BandMatrix:
    """Real m x (2K+1) matrix: m band samples, columns [Re g_0, Re g_1..Re g_K, Im g_1..Im g_K]."""

    entries: np.ndarray

    @property
    def band_limit(self) -> int:
        return (self.entries.shape[1] - 1) // 2


@dataclass(frozen=True)
class Rank1Fit:
    """Leading singular triplet of a band matrix.

    ``objective`` is the squared Frobenius misfit of the rank-1
    approximation, equal to the sum of the squared trailing singular values.
    """

    left: np.ndarray
    right: np.ndarray
    sigma1: float
    singular_values: np.ndarray
    objective: float


def assemble_band_matrix(bands: list[DemodulatedBand]) -> BandMatrix:
    """Stack demodulated bands k = 0..K into the rank-1 fitting matrix.

    Band 0 contributes only its real part (its imaginary residue carries no
    model information); every higher band contributes a real and an
    imaginary column.
    """
    if not bands:
        raise MismatchedLengths("need at least band 0")
    lengths = {len(b.values) for b in bands}
    if len(lengths) != 1:
        raise MismatchedLengths(f"bands disagree on grid size: {sorted(lengths)}")
    ordered = sorted(bands, key=lambda b: b.k)
    if [b.k for b in ordered] != list(range(len(bands))):
        raise MismatchedLengths("bands must cover k = 0..K exactly once")
    return _band_matrix(np.array([b.values for b in ordered]))


def _band_matrix(bands: np.ndarray) -> BandMatrix:
    """Rows k = 0..K of band samples as columns [Re g_0..Re g_K, Im g_1..Im g_K]."""
    entries = np.hstack((bands.real.T, bands[1:].imag.T))
    if not np.all(np.isfinite(entries)):
        raise NonFiniteValue("band matrix contains non-finite entries")
    return BandMatrix(entries=entries)


def rank_one_fit(matrix: BandMatrix) -> Rank1Fit:
    """Best rank-1 approximation of the band matrix in the Frobenius norm.

    Raises
    ------
    DegenerateInput
        If the matrix is identically zero.
    NonConvergence
        If the underlying SVD fails to converge.
    """
    entries = matrix.entries
    total = float(np.sum(entries * entries))
    if total == 0.0:
        raise DegenerateInput("band matrix is identically zero")
    try:
        u, s, vt = np.linalg.svd(entries, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"SVD failed: {exc}") from exc
    objective = float(np.sum(s[1:] ** 2))
    return Rank1Fit(
        left=u[:, 0],
        right=vt[0],
        sigma1=float(s[0]),
        singular_values=s,
        objective=objective,
    )


def default_band_limit(n: int, l_theta: int, cap: int = MAX_DEFAULT_BANDS) -> int:
    """Largest Nyquist-feasible band count, capped at ``cap``."""
    half_hi = (l_theta + 1) // 2
    feasible = (n // 2 - half_hi) // l_theta
    return max(1, min(cap, feasible))


def coefficients_from_right_vector(right: np.ndarray) -> np.ndarray:
    """Fold the real right singular vector back into complex harmonics.

    Layout matches the band matrix columns: ``right[0..K]`` are the real
    parts of c_0..c_K and ``right[K+1..2K]`` the imaginary parts of c_1..c_K.
    """
    k_max = (len(right) - 1) // 2
    coeffs = np.zeros(k_max + 1, dtype=complex)
    coeffs[0] = right[0]
    coeffs[1:] = right[1 : k_max + 1] + 1j * right[k_max + 1 :]
    return coeffs


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
    n = grid_size if grid_size is not None else default_grid_size(signal.n_samples, phase.l_theta)
    k_max = band_limit if band_limit is not None else default_band_limit(n, phase.l_theta)
    if k_max < 1:
        raise ValueError("band limit must be at least 1")
    # fail early with the guidance message if band K does not fit
    band_indices(k_max, phase.l_theta, n)

    pds = resample_to_phase(signal, phase, n)
    # m = l_theta samples per trimmed band, scaled by sqrt(n/m), keep the
    # column inner products (so sigma, right vector, objective) of n samples
    m = phase.l_theta
    bands = np.sqrt(n / m) * _band_samples(pds, np.arange(k_max + 1), m, True)
    if zero_dc:
        bands[0] = 0.0
    fit = rank_one_fit(_band_matrix(bands))
    # zero-pad the envelope to n points; the trim leaves an even m's bin m/2 empty
    left = np.fft.irfft(np.sqrt(n / m) * np.fft.rfft(fit.left)[: (m + 1) // 2], n)
    padding = np.zeros(len(fit.right) - len(fit.singular_values))
    singular_values = np.concatenate((fit.singular_values, padding))

    # the bands live on the shifted variable theta - theta0; rotate the
    # coefficients so the shape is a function of the original phase
    c_raw = coefficients_from_right_vector(fit.right)
    c_raw *= np.exp(-1j * np.arange(k_max + 1) * phase.phase_origin)
    values_phase, coeffs = normalize_rank1_factors(left, c_raw, fit.sigma1)

    values_time = interp_phase_to_time(values_phase, phase, signal.times)
    residual = signal.values - values_time * evaluate_shape(coeffs, phase.phases)

    s_sq = singular_values**2
    diagnostics = FitDiagnostics(
        singular_values=singular_values,
        rank1_energy_fraction=float(s_sq[0] / np.sum(s_sq)),
        objective_value=fit.objective,
    )
    return ExtractionResult(
        shape=ShapeFunction(coeffs=coeffs),
        envelope=Envelope(values_phase=values_phase, values_time=values_time),
        residual=residual,
        fit=diagnostics,
        l_theta=phase.l_theta,
        grid_size=n,
    )


def shape_distance(s1: ShapeFunction, s2: ShapeFunction) -> float:
    """Rotation- and sign-invariant relative L2 distance between shapes.

    The L2 misfit of ``s1`` and ``+-s2(. + delta)``, minimized over delta and
    the sign, over the larger norm; all read off the coefficients by Parseval.
    The cross term is sampled on 8*(K+1) rotations, and Newton steps polish
    every local extremum of its magnitude.  Zero iff the shapes coincide up
    to rotation and sign.
    """
    k_max = max(s1.band_limit, s2.band_limit)
    c1, c2 = (np.pad(np.asarray(s.coeffs, dtype=complex), (0, k_max - s.band_limit)) for s in (s1, s2))
    c1[0], c2[0] = c1[0].real, c2[0].real
    k = np.arange(k_max + 1)
    weights = np.where(k == 0, 1.0, 2.0)  # mean of s^2 is weights @ |c|^2
    scale = max(weights @ np.abs(c1) ** 2, weights @ np.abs(c2) ** 2)
    if scale == 0.0:
        return 0.0
    # cross(delta) = Re sum_k w_k exp(1j*k*delta), sampled up to a factor 1/m
    w = weights * np.conj(c1) * c2
    m = 8 * (k_max + 1)
    mag = np.abs(np.fft.irfft(np.conj(c1) * c2, m))
    delta = 2.0 * np.pi * np.flatnonzero((mag >= np.roll(mag, 1)) & (mag >= np.roll(mag, -1))) / m
    for _ in range(8):  # Newton steps on cross'(delta) = 0
        z = w * np.exp(1j * np.outer(delta, k))
        curvature = z.real @ (k * k)
        delta -= np.divide(z.imag @ k, curvature, out=np.zeros_like(curvature), where=curvature != 0.0)
    # the misfit as a coefficient difference stays accurate for near-equal shapes
    rotated = c2 * np.exp(1j * np.outer(delta, k))
    misfit = np.minimum(np.abs(c1 - rotated) ** 2 @ weights, np.abs(c1 + rotated) ** 2 @ weights)
    return float(np.sqrt(np.min(misfit) / scale))
