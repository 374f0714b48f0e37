"""Divergences between fitted Gaussians and the pairwise distance matrix.

Three model divergences are provided:

* squared 2-Wasserstein distance,
  ``|m1 - m2|^2 + Tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})``
* Bhattacharyya distance,
  ``(1/8) d^T Sbar^{-1} d + (1/2) ln(|Sbar| / sqrt(|S1| |S2|))``
  with ``Sbar = (S1 + S2)/2``
* Kullback-Leibler divergence (asymmetric),
  ``(1/2) [ln(|S2|/|S1|) - d + Tr(S2^{-1} S1) + d^T S2^{-1} d]``

plus plain Euclidean distance between means for the mean-only baselines.

Each divergence has one row kernel: for model i it stacks all partners j
into (m, d, d) arrays and makes one batched LAPACK call for the row, a
symmetric eigensolve for W2 and one Cholesky factorization of the averaged
covariances for Bhattacharyya. The matrix builder calls it once per row,
and a scalar entry point is a batch of one through it, so a matrix entry
equals the scalar call bit for bit. KL k-means' model-to-center table uses
the kl formula and per-model factors of the kl row, one batched column per
center, with the centers given as stacked arrays. All values are
mathematically non-negative; tiny negative results from rounding are
clamped to zero, anything below ``-negative_clamp`` raises NumericalError.
A failure names ``model i`` or the first failing ``pair (i, j)`` in
row-major order.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMatrix,
    NotPositiveSemidefinite,
    NumericalError,
    SingularMatrix,
)
from .gaussian import GaussianModel
from .matrixcore import (
    DEFAULT_TOLERANCES,
    Tolerances,
    max_asymmetry,
    mirror_in_place,
    raise_first_failure,
)

METRIC_WASSERSTEIN_SQ = "wasserstein_sq"
METRIC_BHATTACHARYYA = "bhattacharyya"
METRIC_KL = "kl"
METRIC_EUCLIDEAN = "euclidean"

KNOWN_METRICS = (
    METRIC_WASSERSTEIN_SQ,
    METRIC_BHATTACHARYYA,
    METRIC_KL,
    METRIC_EUCLIDEAN,
)

# bytes of one row block's difference array in mean_euclidean_matrix
_EUCLIDEAN_BLOCK_BYTES = 1 << 22

# kl is a directed divergence; everything else is a metric-like symmetric value
SYMMETRIC_METRICS = frozenset(
    {METRIC_WASSERSTEIN_SQ, METRIC_BHATTACHARYYA, METRIC_EUCLIDEAN}
)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """n x n matrix of pairwise divergences, tagged with the metric name.

    Construction canonicalizes floating-point noise: diagonals within
    tolerance of zero become exactly zero, near-negative entries are clamped
    to zero, and for symmetric metrics the lower triangle is replaced by an
    exact mirror of the upper one.
    """

    values: np.ndarray
    metric: str

    def __post_init__(self):
        if self.metric not in KNOWN_METRICS:
            raise InvalidMatrix(f"unknown metric tag {self.metric!r}")
        a = np.array(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidMatrix("distance entries must be finite")
        tol = DEFAULT_TOLERANCES.negative_clamp
        diag = np.diagonal(a)
        if np.any(np.abs(diag) > tol):
            raise InvalidMatrix(
                f"self-distance as large as {np.abs(diag).max():.6e} on the diagonal"
            )
        if a.min() < -tol:
            raise InvalidMatrix(f"negative distance entry {a.min():.6e}")
        np.fill_diagonal(a, 0.0)
        np.clip(a, 0.0, None, out=a)
        if self.metric in SYMMETRIC_METRICS:
            gap = max_asymmetry(a)
            if gap > tol * max(1.0, float(a.max())):
                raise InvalidMatrix(
                    f"matrix tagged {self.metric!r} is asymmetric by {gap:.6e}"
                )
            # the lower triangle mirrors the upper; + 0.0 turns -0.0 into 0.0
            mirror_in_place(a, lambda upper, lower: upper + 0.0)
        a.flags.writeable = False
        object.__setattr__(self, "values", a)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return self.metric in SYMMETRIC_METRICS


def _stack(models: Sequence[GaussianModel]) -> tuple[np.ndarray, np.ndarray]:
    """The models' means (n, d) and covariances (n, d, d) as two stacks."""
    _common_dim(models)
    return np.stack([m.mean for m in models]), np.stack([m.covariance.values for m in models])


def _factors(
    mean: np.ndarray, cov: np.ndarray, metric: str, tol: Tolerances, what: str = "model"
) -> dict:
    """Per-model inputs of a metric's row kernel, from stacked means (n, d)
    and covariances (n, d, d).

    One batched ``eigh`` covers every model: W2's PSD-clamped root S^{1/2},
    or kl's log-determinant, S^{1/2} and S^{-1/2}. A stacked ``eigh`` runs
    the same LAPACK call per matrix as a single one, so the factors equal
    ``spd_sqrt`` and ``spd_roots`` bit for bit, and a scalar call reads the
    same bits as a matrix row. Bhattacharyya checks the smallest eigenvalues
    with one batched ``eigvalsh``, then takes its log-determinants
    2 sum(ln diag(L)) from one batched Cholesky factorization S = L L^T,
    the routine and formula its rows use, so a model compared with itself
    cancels to exactly 0. A failure names the first failing ``{what} i``.
    """
    out = {"mean": mean, "cov": cov}
    if metric == METRIC_BHATTACHARYYA:
        w = np.linalg.eigvalsh(cov)
    else:
        w, v = np.linalg.eigh(cov)
        vt = v.transpose(0, 2, 1)
    if metric == METRIC_WASSERSTEIN_SQ:
        floor = -tol.psd_floor * np.maximum(1.0, w[:, -1])
        root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ vt
        raise_first_failure(lambda k: f"{what} {k}", [
            (w[:, 0] < floor, NotPositiveSemidefinite,
             lambda k: f"min eigenvalue {w[k, 0]:.6e} below tolerance {floor[k]:.6e}"),
            (~np.isfinite(root).all(axis=(1, 2)), InvalidMatrix,
             lambda k: "matrix entries must be finite"),
        ])
        out["trace"] = np.trace(cov, axis1=1, axis2=2)
        out["root"] = (root + root.transpose(0, 2, 1)) / 2.0
        return out
    where = "log-determinant" if metric == METRIC_BHATTACHARYYA else "covariance"
    raise_first_failure(lambda k: f"{what} {k}", [
        (w[:, 0] <= 0.0, SingularMatrix,
         lambda k: f"non-positive eigenvalue {w[k, 0]:.6e} in {where}"),
    ])
    if metric == METRIC_BHATTACHARYYA:
        factor, failed = _cholesky(cov)
        raise_first_failure(lambda k: f"{what} {k}", [
            (failed, SingularMatrix,
             lambda k: f"Cholesky factorization failed in log-determinant "
                       f"(min eigenvalue {w[k, 0]:.6e})"),
        ])
        out["logdet"] = _cholesky_logdet(factor)
        return out
    out["logdet"] = np.log(w).sum(axis=1)
    if metric == METRIC_KL:
        root = np.sqrt(w)[:, None, :]
        out["root"] = (v * root) @ vt
        out["invroot"] = (v / root) @ vt
    return out


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors L of a stack of symmetric matrices, and the
    mask of those that are not numerically positive definite; a failed
    matrix gets the identity's factor. numpy raises for the whole stack when
    one matrix fails, so only that case factors them one at a time."""
    try:
        return np.linalg.cholesky(a), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    failed = np.zeros(len(a), dtype=bool)
    for k, m in enumerate(a):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            failed[k] = True
    a = a.copy()
    a[failed] = np.eye(a.shape[1])
    return np.linalg.cholesky(a), failed


def _cholesky_logdet(factor: np.ndarray) -> np.ndarray:
    """ln|L L^T| = 2 sum(ln diag(L)) for each factor of a stack."""
    return 2.0 * np.log(np.diagonal(factor, axis1=1, axis2=2)).sum(axis=1)


def _checked(i: int, js: np.ndarray, vals, tol: Tolerances, what: str, checks=()):
    """Clamp a row's values to zero, or raise for its first failing pair.

    ``checks`` are ``(failed mask, error class, message for partner k)`` in
    the order one pair runs them; the value guard runs last.
    """
    raise_first_failure(lambda k: f"pair ({i}, {js[k]})", [
        *checks,
        (vals < -tol.negative_clamp, NumericalError, lambda k: f"{what} evaluated to {vals[k]:.6e}"),
    ])
    return np.clip(vals, 0.0, None)


def _wasserstein_row(f: dict, i: int, js: np.ndarray, tol: Tolerances) -> np.ndarray:
    """W2 from model i to each model in js; Tr((S_i^{1/2} S_j S_i^{1/2})^{1/2})
    is the sum of the square roots of the inner matrix's eigenvalues."""
    root = f["root"][i]
    inner = root @ f["cov"][js] @ root
    inner = (inner + inner.transpose(0, 2, 1)) / 2.0
    finite = np.isfinite(inner).all(axis=(1, 2))
    inner[~finite] = 0.0
    w = np.linalg.eigvalsh(inner)
    floor = -tol.psd_floor * np.maximum(1.0, w[:, -1])
    cross = np.sqrt(np.clip(w, 0.0, None)).sum(axis=1)
    diff = f["mean"][i] - f["mean"][js]
    vals = (diff * diff).sum(axis=1) + f["trace"][i] + f["trace"][js] - 2.0 * cross
    return _checked(i, js, vals, tol, "squared Wasserstein distance", [
        (~finite, InvalidMatrix, lambda k: "Bures inner matrix entries must be finite"),
        (w[:, 0] < floor, NotPositiveSemidefinite,
         lambda k: f"min eigenvalue {w[k, 0]:.6e} below tolerance {floor[k]:.6e}"),
    ])


def _bhattacharyya_row(f: dict, i: int, js: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Bhattacharyya from model i to each model in js. One batched Cholesky
    factorization Sbar = L L^T of the averaged covariances gives both terms:
    ln|Sbar| from diag(L), and d^T Sbar^{-1} d = ||L^{-1} d||^2 by forward
    substitution over the d columns, vectorized over the partners. The
    average of two exactly symmetric covariances is exactly symmetric, and
    (S + S)/2 == S, so a model compared with itself gets the factor
    ``_factors`` took its log-determinant from and cancels to exactly 0."""
    mixed = (f["cov"][i] + f["cov"][js]) / 2.0
    finite = np.isfinite(mixed).all(axis=(1, 2))
    mixed[~finite] = np.eye(mixed.shape[1])
    factor, failed = _cholesky(mixed)
    z = f["mean"][js] - f["mean"][i]
    for c in range(z.shape[1]):
        z[:, c] /= factor[:, c, c]
        z[:, c + 1 :] -= factor[:, c + 1 :, c] * z[:, c : c + 1]
    quad = (z * z).sum(axis=1)
    logdet = _cholesky_logdet(factor)
    vals = 0.125 * quad + 0.5 * (logdet - 0.5 * (f["logdet"][i] + f["logdet"][js]))
    return _checked(i, js, vals, tol, "Bhattacharyya distance", [
        (~finite, InvalidMatrix, lambda k: "averaged covariance entries must be finite"),
        (failed, SingularMatrix,
         lambda k: f"Cholesky factorization failed in averaged covariance "
                   f"(min eigenvalue {np.linalg.eigvalsh(mixed[k])[0]:.6e})"),
    ])


def _kl(p: dict, i, q: dict, j) -> np.ndarray:
    """KL(p's model i || q's model j), where one of i and j indexes many
    models. The trace term is ||S_j^{-1/2} S_i^{1/2}||_F^2."""
    invroot = q["invroot"][j]
    diff = q["mean"][j] - p["mean"][i]
    prod = invroot @ p["root"][i]
    trace = (prod**2).reshape(len(diff), -1).sum(axis=1)
    z = (invroot @ diff[:, :, None])[:, :, 0]
    quad = (z * z).sum(axis=1)
    return 0.5 * (q["logdet"][j] - p["logdet"][i] - diff.shape[1] + trace + quad)


def _kl_row(f: dict, i: int, js: np.ndarray, tol: Tolerances) -> np.ndarray:
    """KL(model i || model j) for each j in js."""
    return _checked(i, js, _kl(f, i, f, js), tol, "KL divergence")


_ROW_KERNELS = {
    METRIC_WASSERSTEIN_SQ: _wasserstein_row,
    METRIC_BHATTACHARYYA: _bhattacharyya_row,
    METRIC_KL: _kl_row,
}


def _scalar(metric: str, a: GaussianModel, b: GaussianModel, tol: Tolerances) -> float:
    """Entry (0, 1) of the two-model matrix: a batch of one through the row
    kernel, so errors name a as model 0 and b as model 1."""
    f = _factors(*_stack([a, b]), metric, tol)
    return float(_ROW_KERNELS[metric](f, 0, np.array([1]), tol)[0])


def wasserstein_sq(
    a: GaussianModel, b: GaussianModel, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Squared 2-Wasserstein distance between two Gaussians."""
    return _scalar(METRIC_WASSERSTEIN_SQ, a, b, tol)


def bhattacharyya(
    a: GaussianModel, b: GaussianModel, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Bhattacharyya distance between two Gaussians."""
    return _scalar(METRIC_BHATTACHARYYA, a, b, tol)


def kl_divergence(
    a: GaussianModel, b: GaussianModel, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """KL(a || b) for two Gaussians. Asymmetric: KL(a||b) != KL(b||a)."""
    return _scalar(METRIC_KL, a, b, tol)


def _common_dim(models: Sequence[GaussianModel]) -> int:
    if not models:
        raise InvalidMatrix("need at least one model")
    d = models[0].dim
    for m in models[1:]:
        if m.dim != d:
            raise DimensionMismatch(
                f"models of dimension {d} and {m.dim} are not comparable"
            )
    return d


def distance_matrix(
    models: Sequence[GaussianModel],
    metric: str,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DistanceMatrix:
    """Pairwise divergence matrix over a list of models.

    Per-model factors (matrix square roots, log-determinants, inverse
    roots) are computed once; then one row-kernel call per model covers all
    its partners. Symmetric metrics fill the upper triangle and mirror it; kl
    fills both triangles independently.
    """
    if metric not in KNOWN_METRICS:
        raise InvalidMatrix(f"unknown metric tag {metric!r}")
    if metric == METRIC_EUCLIDEAN:
        return mean_euclidean_matrix(models)
    n = len(models)
    f = _factors(*_stack(models), metric, tol)
    row = _ROW_KERNELS[metric]
    out = np.zeros((n, n))
    for i in range(n):
        js = np.delete(np.arange(n), i) if metric == METRIC_KL else np.arange(i + 1, n)
        if js.size:
            out[i, js] = row(f, i, js, tol)
    if metric in SYMMETRIC_METRICS:
        out = out + out.T
    return DistanceMatrix(out, metric)


def mean_euclidean_matrix(models: Sequence[GaussianModel]) -> DistanceMatrix:
    """Pairwise Euclidean distances between model means (covariances ignored).

    Rows are computed in blocks, so no (n, n, d) difference array is built.
    Both triangles are computed; m_i - m_j is exactly -(m_j - m_i), so they
    agree bit for bit.
    """
    _common_dim(models)
    means = np.stack([m.mean for m in models])
    n = len(means)
    out = np.empty((n, n))
    rows = max(1, _EUCLIDEAN_BLOCK_BYTES // (8 * n * means.shape[1]))
    for s in range(0, n, rows):
        diff = means[s : s + rows, None, :] - means[None, :, :]
        out[s : s + rows] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return DistanceMatrix(out, METRIC_EUCLIDEAN)


def kl_factors(models: Sequence[GaussianModel], tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Per-model inputs of ``kl_divergence_table``: the stacked ``mean`` and
    ``cov`` arrays and the kl row's factors, for reuse across calls."""
    return _factors(*_stack(models), METRIC_KL, tol)


def kl_divergence_table(
    factors: dict,
    center_means: np.ndarray,
    center_covs: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """(n_models, n_centers) table of KL(model_i || center_j).

    The inner loop of KL k-means: the kl row's formula and factors, one
    batched column per center. The models come as ``kl_factors(models)``,
    the centers as stacked means (k, d) and covariances (k, d, d), factored
    here by the same stacked ``eigh``.
    """
    if center_covs.shape[1:] != factors["cov"].shape[1:]:
        raise DimensionMismatch("centers do not match model dimension")
    center_factors = _factors(center_means, center_covs, METRIC_KL, tol, what="center")
    out = np.empty((len(factors["mean"]), len(center_means)))
    for j in range(len(center_means)):
        out[:, j] = _kl(factors, slice(None), center_factors, j)
    bad = np.argwhere(out < -tol.negative_clamp)
    if bad.size:
        i, j = bad[0]
        raise NumericalError(f"model {i}, center {j}: KL divergence evaluated to {out[i, j]:.6e}")
    np.clip(out, 0.0, None, out=out)
    return out
