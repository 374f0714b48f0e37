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

Each divergence has one pair kernel: for index arrays (I, J) it stacks the
pairs' matrices into (b, d, d) arrays and makes one batched LAPACK call for
them, a symmetric eigensolve for W2 and one Cholesky factorization of the
averaged covariances for Bhattacharyya. The matrix builder cuts the pairs,
in row-major order, into blocks of whole rows and runs W2 blocks on threads
(the batched LAPACK calls release the GIL); a scalar
entry point is a batch of one through the same kernel. A matrix's LAPACK
and BLAS calls run once per matrix whatever stack it sits in, so a matrix
entry equals the scalar call bit for bit at any block size and thread
count. KL k-means' model-to-center table uses the kl formula and per-model
factors of the kl kernel, one batched column per center, with the centers
given as stacked arrays. All values are mathematically non-negative; tiny
negative results from rounding are clamped to zero; a value below
``-NEGATIVE_CLAMP``, or one that overflowed to inf or nan, raises
NumericalError.
A failure names ``model i`` or the first failing ``pair (i, j)`` in
row-major order.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix, NumericalError, SingularMatrix
from .gaussian import GaussianModel
from .matrixcore import (
    NEGATIVE_CLAMP,
    _trusted,
    max_asymmetry,
    mirror_in_place,
    positive_check,
    psd_check,
    psd_root,
    raise_first_failure,
    spd_roots,
)
from .parallel import kernel_threads, run_blocks

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
# distance_matrix groups whole rows into a block up to this many bytes per
# (pairs, d, d) stack: 668 pairs at d = 7. Smaller blocks pay more per-call
# overhead, which a second thread waits on under the GIL; larger ones raise
# peak memory and the page faults of fresh temporaries
_PAIR_BLOCK_BYTES = 1 << 18

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
    exact mirror of the upper one. ``distance_matrix`` builds its matrices
    already in this form.
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
        diag = np.diagonal(a)
        if np.any(np.abs(diag) > NEGATIVE_CLAMP):
            raise InvalidMatrix(
                f"self-distance as large as {np.abs(diag).max():.6e} on the diagonal"
            )
        if a.min() < -NEGATIVE_CLAMP:
            raise InvalidMatrix(f"negative distance entry {a.min():.6e}")
        np.fill_diagonal(a, 0.0)
        np.clip(a, 0.0, None, out=a)
        if self.metric in SYMMETRIC_METRICS:
            gap = max_asymmetry(a)
            if gap > NEGATIVE_CLAMP * max(1.0, float(a.max())):
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


def _factors(mean: np.ndarray, cov: np.ndarray, metric: str, what: str = "model") -> dict:
    """Per-model inputs of a metric's pair kernel, from stacked means (n, d)
    and covariances (n, d, d).

    W2 takes its trace and PSD-clamped root S^{1/2} from ``psd_root``, kl
    its log-determinant, S^{1/2} and S^{-1/2} from ``spd_roots``: one
    batched ``eigh`` covers every model, the same call a scalar divergence
    or a single model makes as a batch of one, so both read the same bits.
    Bhattacharyya checks the smallest eigenvalues of one batched
    ``eigvalsh`` with ``positive_check``, then takes its log-determinants
    2 sum(ln diag(L)) from one batched Cholesky factorization S = L L^T,
    the routine and formula its rows use, so a model compared with itself
    cancels to exactly 0. A failure names the first failing ``{what} i``.
    """
    out = {"mean": mean, "cov": cov}

    def name(k):
        return f"{what} {k}"

    if metric == METRIC_WASSERSTEIN_SQ:
        out["trace"] = np.trace(cov, axis1=1, axis2=2)
        out["root"] = psd_root(cov, name)
    elif metric == METRIC_KL:
        out["logdet"], out["root"], out["invroot"] = spd_roots(cov, name)
    else:
        w = np.linalg.eigvalsh(cov)
        raise_first_failure(name, [positive_check(w, "log-determinant")])
        factor, failed = _cholesky(cov)
        raise_first_failure(name, [
            (failed, SingularMatrix,
             lambda k: f"Cholesky factorization failed in log-determinant "
                       f"(min eigenvalue {w[k, 0]:.6e})"),
        ])
        out["logdet"] = _cholesky_logdet(factor)
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


def _bad_values(vals: np.ndarray) -> np.ndarray:
    """Mask of divergence values that are non-finite or more negative than
    rounding explains."""
    return ~np.isfinite(vals) | (vals < -NEGATIVE_CLAMP)


def _checked(I: np.ndarray, J: np.ndarray, vals, what: str, checks=()):
    """Clamp a block's values to zero, or raise for its first failing pair.

    ``checks`` are ``(failed mask, error class, message for pair k)`` in the
    order one pair runs them; the value guard runs last and fails values
    that are non-finite or below ``-NEGATIVE_CLAMP``.
    """
    raise_first_failure(lambda k: f"pair ({np.broadcast_to(I, J.shape)[k]}, {J[k]})", [
        *checks,
        (_bad_values(vals), NumericalError, lambda k: f"{what} evaluated to {vals[k]:.6e}"),
    ])
    return np.clip(vals, 0.0, None)


def _wasserstein_pairs(f: dict, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """W2 from model I[k] to model J[k] for each pair k;
    Tr((S_i^{1/2} S_j S_i^{1/2})^{1/2}) is the sum of the square roots of
    the inner matrix's eigenvalues."""
    root = f["root"][I]
    inner = root @ f["cov"][J] @ root
    inner = (inner + inner.transpose(0, 2, 1)) / 2.0
    finite = np.isfinite(inner).all(axis=(1, 2))
    inner[~finite] = 0.0
    w = np.linalg.eigvalsh(inner)
    cross = np.sqrt(np.clip(w, 0.0, None)).sum(axis=1)
    diff = f["mean"][I] - f["mean"][J]
    vals = (diff * diff).sum(axis=1) + f["trace"][I] + f["trace"][J] - 2.0 * cross
    return _checked(I, J, vals, "squared Wasserstein distance", [
        (~finite, InvalidMatrix, lambda k: "Bures inner matrix entries must be finite"),
        psd_check(w),
    ])


def _bhattacharyya_pairs(f: dict, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Bhattacharyya between models I[k] and J[k] for each pair k. One
    batched Cholesky factorization Sbar = L L^T of the averaged covariances
    gives both terms: ln|Sbar| from diag(L), and d^T Sbar^{-1} d =
    ||L^{-1} d||^2 by forward substitution over the d columns, vectorized
    over the pairs. The average of two exactly symmetric covariances is
    exactly symmetric, and (S + S)/2 == S, so a model compared with itself
    gets the factor ``_factors`` took its log-determinant from and cancels
    to exactly 0."""
    mixed = (f["cov"][I] + f["cov"][J]) / 2.0
    finite = np.isfinite(mixed).all(axis=(1, 2))
    mixed[~finite] = np.eye(mixed.shape[1])
    factor, failed = _cholesky(mixed)
    z = f["mean"][J] - f["mean"][I]
    for c in range(z.shape[1]):
        z[:, c] /= factor[:, c, c]
        z[:, c + 1 :] -= factor[:, c + 1 :, c] * z[:, c : c + 1]
    quad = (z * z).sum(axis=1)
    logdet = _cholesky_logdet(factor)
    vals = 0.125 * quad + 0.5 * (logdet - 0.5 * (f["logdet"][I] + f["logdet"][J]))
    return _checked(I, J, vals, "Bhattacharyya distance", [
        (~finite, InvalidMatrix, lambda k: "averaged covariance entries must be finite"),
        (failed, SingularMatrix,
         lambda k: f"Cholesky factorization failed in averaged covariance "
                   f"(min eigenvalue {np.linalg.eigvalsh(mixed[k])[0]:.6e})"),
    ])


def _kl(p: dict, i, q: dict, j) -> np.ndarray:
    """KL(p's model i || q's model j), where i and j index many models, or
    one of them a single model. The trace term is ||S_j^{-1/2} S_i^{1/2}||_F^2."""
    invroot = q["invroot"][j]
    diff = q["mean"][j] - p["mean"][i]
    prod = invroot @ p["root"][i]
    trace = (prod**2).reshape(len(diff), -1).sum(axis=1)
    z = (invroot @ diff[:, :, None])[:, :, 0]
    quad = (z * z).sum(axis=1)
    return 0.5 * (q["logdet"][j] - p["logdet"][i] - diff.shape[1] + trace + quad)


def _kl_pairs(f: dict, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """KL(model I[k] || model J[k]) for each pair k."""
    return _checked(I, J, _kl(f, I, f, J), "KL divergence")


_PAIR_KERNELS = {
    METRIC_WASSERSTEIN_SQ: _wasserstein_pairs,
    METRIC_BHATTACHARYYA: _bhattacharyya_pairs,
    METRIC_KL: _kl_pairs,
}


def _scalar(metric: str, a: GaussianModel, b: GaussianModel) -> float:
    """Entry (0, 1) of the two-model matrix: a batch of one through the pair
    kernel, so errors name a as model 0 and b as model 1."""
    f = _factors(*_stack([a, b]), metric)
    return float(_PAIR_KERNELS[metric](f, np.array([0]), np.array([1]))[0])


def wasserstein_sq(a: GaussianModel, b: GaussianModel) -> float:
    """Squared 2-Wasserstein distance between two Gaussians."""
    return _scalar(METRIC_WASSERSTEIN_SQ, a, b)


def bhattacharyya(a: GaussianModel, b: GaussianModel) -> float:
    """Bhattacharyya distance between two Gaussians."""
    return _scalar(METRIC_BHATTACHARYYA, a, b)


def kl_divergence(a: GaussianModel, b: GaussianModel) -> float:
    """KL(a || b) for two Gaussians. Asymmetric: KL(a||b) != KL(b||a)."""
    return _scalar(METRIC_KL, a, b)


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


def _pair_blocks(n: int, metric: str, size: int):
    """The computed pairs in row-major order, cut into blocks of whole rows:
    the upper triangle for symmetric metrics, every off-diagonal pair for kl.

    Consecutive rows are grouped while a block holds at most ``size`` pairs;
    a longer row is a block on its own. Returns the number of blocks and a
    function from a block number to its index arrays (I, J); I is the row
    number when the block is one row, and broadcasts against J.
    """
    lengths = np.full(n, n - 1) if metric == METRIC_KL else np.arange(n - 1, -1, -1)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    ends = offsets.tolist()
    cuts = [0]  # first row of each block
    for i in range(1, n):
        if ends[i + 1] - ends[cuts[-1]] > size:
            cuts.append(i)
    if ends[cuts[-1]] == ends[n]:
        cuts.pop()  # the triangle's last row is empty
    cuts.append(n)

    def pairs(b: int) -> tuple[np.ndarray, np.ndarray]:
        first, last = cuts[b], cuts[b + 1]
        I = np.repeat(np.arange(first, last), lengths[first:last])
        J = np.arange(offsets[first], offsets[last]) - offsets[I]
        J += (J >= I) if metric == METRIC_KL else I + 1
        return (first if last - first == 1 else I), J

    return len(cuts) - 1, pairs


def distance_matrix(models: Sequence[GaussianModel], metric: str) -> DistanceMatrix:
    """Pairwise divergence matrix over a list of models.

    Per-model factors (matrix square roots, log-determinants, inverse
    roots) are computed once. The computed pairs, in row-major order, are
    cut into blocks of whole rows, up to ``_PAIR_BLOCK_BYTES`` per
    (pairs, d, d) stack, and one pair-kernel call per block fails
    non-finite values and clamps the rest to zero. W2 blocks run on
    ``kernel_threads()`` threads, the others on the calling thread; the
    error is the first failing block's, so it names the first failing pair
    in row-major order.
    Symmetric metrics fill the upper triangle and add its exact transpose;
    kl fills both triangles independently.
    """
    if metric not in KNOWN_METRICS:
        raise InvalidMatrix(f"unknown metric tag {metric!r}")
    if metric == METRIC_EUCLIDEAN:
        return mean_euclidean_matrix(models)
    n = len(models)
    f = _factors(*_stack(models), metric)
    kernel = _PAIR_KERNELS[metric]
    out = np.zeros((n, n))
    # kl's kernel is light: grouped rows and a second thread both measured
    # slower than one row at a time on the calling thread. Bhattacharyya's
    # blocks measured no faster on a second thread; W2's eigensolves gain
    size = 1 if metric == METRIC_KL else max(1, _PAIR_BLOCK_BYTES // (8 * f["cov"][0].size))
    threads = kernel_threads() if metric == METRIC_WASSERSTEIN_SQ else 1
    count, pairs = _pair_blocks(n, metric, size)

    def block(b):
        I, J = pairs(b)
        out[I, J] = kernel(f, I, J)

    run_blocks(block, count, threads)
    if metric in SYMMETRIC_METRICS:
        out = out + out.T
    out.flags.writeable = False
    return _trusted(DistanceMatrix, values=out, metric=metric)


def mean_euclidean_matrix(models: Sequence[GaussianModel]) -> DistanceMatrix:
    """Pairwise Euclidean distances between model means (covariances ignored).

    Rows are computed in blocks, so no (n, n, d) difference array is built.
    Each pair is computed once: a row block from its diagonal onward, its
    transpose mirrored below. m_i - m_j is exactly -(m_j - m_i), so the
    mirror is what the lower triangle would compute, and the diagonal is
    exactly 0. The one check is finiteness: squared differences of finite
    means can overflow.
    """
    _common_dim(models)
    means = np.stack([m.mean for m in models])
    n = len(means)
    out = np.empty((n, n))
    rows = max(1, _EUCLIDEAN_BLOCK_BYTES // (8 * n * means.shape[1]))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        diff = means[s:e, None, :] - means[None, s:, :]
        out[s:e, s:] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        out[e:, s:e] = out[s:e, e:].T
    if not np.isfinite(out).all():
        raise InvalidMatrix("distance entries must be finite")
    out.flags.writeable = False
    return _trusted(DistanceMatrix, values=out, metric=METRIC_EUCLIDEAN)


def kl_factors(models: Sequence[GaussianModel]) -> dict:
    """Per-model inputs of ``kl_divergence_table``: the stacked ``mean`` and
    ``cov`` arrays and the kl row's factors, for reuse across calls."""
    return _factors(*_stack(models), METRIC_KL)


def kl_divergence_table(
    factors: dict, center_means: np.ndarray, center_covs: np.ndarray
) -> np.ndarray:
    """(n_models, n_centers) table of KL(model_i || center_j).

    The inner loop of KL k-means: the kl row's formula and factors, one
    batched column per center. The models come as ``kl_factors(models)``,
    the centers as stacked means (k, d) and covariances (k, d, d), factored
    here by the same stacked ``eigh``.
    """
    if center_covs.shape[1:] != factors["cov"].shape[1:]:
        raise DimensionMismatch("centers do not match model dimension")
    center_factors = _factors(center_means, center_covs, METRIC_KL, what="center")
    out = np.empty((len(factors["mean"]), len(center_means)))
    for j in range(len(center_means)):
        out[:, j] = _kl(factors, slice(None), center_factors, j)
    bad = np.argwhere(_bad_values(out))
    if bad.size:
        i, j = bad[0]
        raise NumericalError(f"model {i}, center {j}: KL divergence evaluated to {out[i, j]:.6e}")
    np.clip(out, 0.0, None, out=out)
    return out
