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

W2 and Bhattacharyya each have one pair kernel: for index arrays (I, J) it
stacks the pairs' matrices into (b, d, d) arrays and makes one batched
LAPACK call for them, a symmetric eigensolve for W2 and one Cholesky
factorization of the averaged covariances for Bhattacharyya. The matrix
builder cuts the upper triangle, in row-major order, into blocks of whole
rows and runs the blocks on threads (the batched LAPACK calls release
the GIL); a scalar entry point is a batch of one through the same kernel. KL
has one column function, one batched column per center: it builds KL
k-means' model-to-center table, the kl matrix as that table with the models
as their own centers, and the scalar as a one-by-one table. A matrix's
LAPACK and BLAS calls run once per matrix whatever stack it sits in, so a
matrix entry equals the scalar call bit for bit at any block size and
thread count. All values are mathematically non-negative; tiny
negative results from rounding are clamped to zero; a value below
``-NEGATIVE_CLAMP``, or one that overflowed to inf or nan, raises
NumericalError. W2 cancels to 0 for equal models at any scale, so a W2 pair
adds its own rounding bound, scaled by eps d (tr S_i + tr S_j + |dm|^2),
to ``NEGATIVE_CLAMP``.
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
from .parallel import kernel_threads, row_blocks, run_blocks

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

# bytes of one thread's difference buffer in mean_euclidean_matrix (about 9
# rows at n = 2000, d = 7: measured faster than 4 MiB on one thread), and of
# all threads' buffers together
_EUCLIDEAN_THREAD_BYTES = 1 << 20
_EUCLIDEAN_TOTAL_BYTES = 1 << 22
# distance_matrix groups whole rows into a block up to this many bytes per
# (pairs, d, d) stack: 668 pairs at d = 7. Smaller blocks pay more per-call
# overhead, which a second thread waits on under the GIL; larger ones raise
# peak memory and the page faults of fresh temporaries
_PAIR_BLOCK_BYTES = 1 << 18

_EPS = np.finfo(float).eps
# margin on the unit constants of a W2 pair's rounding slack (see
# _wasserstein_pairs)
_W2_SLACK = 16

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


def _means(models: Sequence[GaussianModel]) -> np.ndarray:
    """The models' means as one (n, d) stack; ``_common_dim`` checks them."""
    _common_dim(models)
    return np.stack([m.mean for m in models])


def _stack(models: Sequence[GaussianModel]) -> tuple[np.ndarray, np.ndarray]:
    """The models' means (n, d) and covariances (n, d, d) as two stacks."""
    return _means(models), np.stack([m.covariance.values for m in models])


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


def _bad_values(vals: np.ndarray, slack=0.0) -> np.ndarray:
    """Mask of divergence values that are non-finite or more negative than
    rounding explains: below -(NEGATIVE_CLAMP + slack), where ``slack`` is
    a value's own rounding bound."""
    return ~np.isfinite(vals) | (vals < -(NEGATIVE_CLAMP + slack))


def _checked(I: np.ndarray, J: np.ndarray, vals, what: str, checks=(), slack=0.0):
    """Clamp a block's values to zero, or raise for its first failing pair.

    ``checks`` are ``(failed mask, error class, message for pair k)`` in the
    order one pair runs them; the value guard runs last and fails values
    that are non-finite or below ``-(NEGATIVE_CLAMP + slack)``.
    """
    raise_first_failure(lambda k: f"pair ({I[k]}, {J[k]})", [
        *checks,
        (_bad_values(vals, slack), NumericalError,
         lambda k: f"{what} evaluated to {vals[k]:.6e}"),
    ])
    return np.clip(vals, 0.0, None)


def _wasserstein_pairs(f: dict, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """W2 from model I[k] to model J[k] for each pair k;
    Tr((S_i^{1/2} S_j S_i^{1/2})^{1/2}) is the sum of the square roots of
    the inner matrix's eigenvalues.

    W2 = |dm|^2 + tr S_i + tr S_j - 2 sum sqrt(w) cancels, to 0 for a model
    and its copy, so a pair's negative rounding is bounded per pair, not by
    ``NEGATIVE_CLAMP`` alone. The sums round by a few eps d (|dm|^2 +
    tr S_i + tr S_j); forming the inner matrix and its eigensolve move each
    eigenvalue by up to delta = eps d tr S_i tr S_j, which can raise its
    root by up to sqrt(w) - sqrt(w - delta), all of sqrt(w) where w <=
    delta (near-singular covariances). The pair's slack is the sums'
    rounding plus twice those root increases, with eps scaled by
    ``_W2_SLACK``.
    """
    root = f["root"][I]
    inner = root @ f["cov"][J] @ root
    inner = (inner + inner.transpose(0, 2, 1)) / 2.0
    finite = np.isfinite(inner).all(axis=(1, 2))
    inner[~finite] = 0.0
    w = np.linalg.eigvalsh(inner)
    roots = np.sqrt(np.clip(w, 0.0, None))
    cross = roots.sum(axis=1)
    diff = f["mean"][I] - f["mean"][J]
    scale = (diff * diff).sum(axis=1) + f["trace"][I] + f["trace"][J]
    vals = scale - 2.0 * cross
    with np.errstate(over="ignore"):  # an inf term only widens the slack
        unit = _W2_SLACK * _EPS * w.shape[1]
        delta = unit * (f["trace"][I] * f["trace"][J])
        lifted = roots - np.sqrt(np.clip(w - delta[:, None], 0.0, None))
        slack = unit * scale + 2.0 * lifted.sum(axis=1)
    return _checked(I, J, vals, "squared Wasserstein distance", [
        (~finite, InvalidMatrix, lambda k: "Bures inner matrix entries must be finite"),
        psd_check(w),
    ], slack)


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


_PAIR_KERNELS = {
    METRIC_WASSERSTEIN_SQ: _wasserstein_pairs,
    METRIC_BHATTACHARYYA: _bhattacharyya_pairs,
}


def _kl_columns(p: dict, q: dict, name) -> np.ndarray:
    """(len(p), len(q)) table of KL(p's model i || q's model j), one batched
    column per j; the trace term is ||S_j^{-1/2} S_i^{1/2}||_F^2.

    When q is p, the diagonal is exactly 0 and is not checked. A value that
    is non-finite or below ``-NEGATIVE_CLAMP`` raises NumericalError named
    ``name(i, j)`` for the first such entry in row-major order; the rest are
    clamped to zero.
    """
    n, m = len(p["mean"]), len(q["mean"])
    out = np.empty((n, m))
    for j in range(m):
        invroot = q["invroot"][j]
        diff = q["mean"][j] - p["mean"]
        prod = invroot @ p["root"]
        trace = (prod**2).reshape(n, -1).sum(axis=1)
        z = (invroot @ diff[:, :, None])[:, :, 0]
        quad = (z * z).sum(axis=1)
        out[:, j] = 0.5 * (q["logdet"][j] - p["logdet"] - diff.shape[1] + trace + quad)
    bad = _bad_values(out)
    if q is p:
        np.fill_diagonal(out, 0.0)
        np.fill_diagonal(bad, False)
    raise_first_failure(lambda k: name(*divmod(k, m)), [
        (bad.ravel(), NumericalError, lambda k: f"KL divergence evaluated to {out.flat[k]:.6e}"),
    ])
    return np.clip(out, 0.0, None, out=out)


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
    """KL(a || b) for two Gaussians. Asymmetric: KL(a||b) != KL(b||a). A
    one-by-one table: only KL(a || b) is evaluated, and errors name a as
    model 0 and b as model 1."""
    f = _factors(*_stack([a, b]), METRIC_KL)
    a_f, b_f = ({key: v[k : k + 1] for key, v in f.items()} for k in (0, 1))
    return float(_kl_columns(a_f, b_f, lambda i, j: "pair (0, 1)")[0, 0])


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


def _pair_blocks(n: int, size: int):
    """The upper triangle's pairs in row-major order, cut into blocks of
    whole rows.

    Consecutive rows are grouped while a block holds at most ``size`` pairs;
    a longer row is a block on its own. Returns the number of blocks and a
    function from a block number to its index arrays (I, J).
    """
    lengths = np.arange(n - 1, -1, -1)
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
        J += I + 1
        return I, J

    return len(cuts) - 1, pairs


def distance_matrix(models: Sequence[GaussianModel], metric: str) -> DistanceMatrix:
    """Pairwise divergence matrix over a list of models.

    Per-model factors (matrix square roots, log-determinants, inverse
    roots) are computed once. kl is KL k-means' table with the models as
    their own centers, built by columns. Otherwise the upper triangle, in
    row-major order, is cut into blocks of whole rows, up to
    ``_PAIR_BLOCK_BYTES`` per (pairs, d, d) stack, one pair-kernel call per
    block, and mirrored in place, in row blocks. Both metrics' blocks run on
    ``kernel_threads()`` threads. Non-finite values fail, the rest are
    clamped to zero, and the error names the first failing pair in
    row-major order.
    """
    if metric not in KNOWN_METRICS:
        raise InvalidMatrix(f"unknown metric tag {metric!r}")
    if metric == METRIC_EUCLIDEAN:
        return mean_euclidean_matrix(models)
    f = _factors(*_stack(models), metric)
    if metric == METRIC_KL:
        out = _kl_columns(f, f, lambda i, j: f"pair ({i}, {j})")
    else:
        n = len(models)
        kernel = _PAIR_KERNELS[metric]
        out = np.zeros((n, n))
        size = max(1, _PAIR_BLOCK_BYTES // (8 * f["cov"][0].size))
        count, pairs = _pair_blocks(n, size)

        def block(b):
            I, J = pairs(b)
            out[I, J] = kernel(f, I, J)

        run_blocks(block, count, kernel_threads())
        # the lower triangle is still zero: upper + 0.0 is upper + lower
        mirror_in_place(out, lambda upper, lower: upper + 0.0)
    out.flags.writeable = False
    return _trusted(DistanceMatrix, values=out, metric=metric)


def mean_euclidean_matrix(models: Sequence[GaussianModel]) -> DistanceMatrix:
    """Pairwise Euclidean distances between model means (covariances ignored).

    Each pair is computed once: a row block from its diagonal onward, its
    transpose mirrored below. m_i - m_j is exactly -(m_j - m_i), so the
    mirror is what the lower triangle would compute, and the diagonal is
    exactly 0. The row blocks run on the kernel threads through
    ``row_blocks``: block [s, e) writes ``out[s:e, s:]`` and its mirror
    ``out[e:, s:e]``, so no two blocks write the same entry. A block takes
    as many of its rows at a time as its thread's scratch buffer holds the
    differences of. A buffer holds 1 MiB, less where the threads' buffers
    would pass 4 MiB together, and one row's differences at least, so no
    (n, n, d) difference array is built. An entry is its own subtraction,
    sum over d and root, so neither the chunks nor the threads change a
    byte. The one check is finiteness: squared differences of finite means
    can overflow.
    """
    means = _means(models)
    n, d = means.shape
    out = np.empty((n, n))

    def block(s, e, buffer):
        rows = len(buffer) // ((n - s) * d)
        for i in range(s, e, rows):
            j = min(i + rows, e)
            diff = buffer[: (j - i) * (n - s) * d].reshape(j - i, n - s, d)
            np.subtract(means[i:j, None, :], means[None, s:, :], out=diff)
            np.einsum("ijk,ijk->ij", diff, diff, out=out[i:j, s:])
        np.sqrt(out[s:e, s:], out=out[s:e, s:])
        out[e:, s:e] = out[s:e, e:].T
        # the distances are >= 0 or inf, so the max is finite exactly when they are
        return bool(np.isfinite(out[s:e, s:].max()))

    per_thread = min(_EUCLIDEAN_THREAD_BYTES, _EUCLIDEAN_TOTAL_BYTES // kernel_threads())
    scratch = max(n * d, per_thread // 8)
    if not all(row_blocks(n, block, scratch=scratch)):
        raise InvalidMatrix("distance entries must be finite")
    out.flags.writeable = False
    return _trusted(DistanceMatrix, values=out, metric=METRIC_EUCLIDEAN)


def kl_factors(models: Sequence[GaussianModel]) -> dict:
    """Per-model inputs of ``kl_divergence_table``: the stacked ``mean`` and
    ``cov`` arrays and the kl factors, for reuse across calls."""
    return _factors(*_stack(models), METRIC_KL)


def kl_divergence_table(
    factors: dict, center_means: np.ndarray, center_covs: np.ndarray
) -> np.ndarray:
    """(n_models, n_centers) table of KL(model_i || center_j).

    The inner loop of KL k-means, one batched column per center, as the kl
    matrix is built. The models come as ``kl_factors(models)``,
    the centers as stacked means (k, d) and covariances (k, d, d), factored
    here by the same stacked ``eigh``.
    """
    k, d = len(center_covs), factors["mean"].shape[1]
    if center_means.shape != (k, d) or center_covs.shape != (k, d, d):
        raise DimensionMismatch(f"centers do not match model dimension {d}: means of shape "
                                f"{center_means.shape}, covariances {center_covs.shape}")
    center_factors = _factors(center_means, center_covs, METRIC_KL, what="center")
    return _kl_columns(factors, center_factors, lambda i, j: f"model {i}, center {j}")
