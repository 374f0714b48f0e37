"""Normalized spectral clustering on a divergence matrix.

The pipeline is the standard symmetric-Laplacian one: Gaussian kernel on the
stored divergence entries, L_sym = D^{-1/2} (D - W) D^{-1/2}, embedding by
the eigenvectors of the k smallest eigenvalues with row normalization, then
k-means on embedding rows.

The kernel ``exp(-x^2 / (2 sigma^2))`` is applied to matrix entries as
stored; for the squared-Wasserstein metric the entries are already squared
distances, and ``on_sqrt=True`` switches to kernelizing their square roots
instead. The default bandwidth is the median of the strictly positive
upper-triangle entries of whichever values feed the kernel.

``kernelize`` checks only finiteness (the rest holds by construction). The
bottom k eigenpairs of L_sym come from block subspace iteration on
M = D^{-1/2} W D^{-1/2} = I - L_sym (block b = k + min(5k, 30), one QR and
one Rayleigh-Ritz step per pass, start block from a fixed seed), stopped on
the residuals and certified: divergence kernels and user matrices are
indefinite, and an O(n^2) deflation bound on the whole Rayleigh-Ritz block
proves that no eigenvalue of M outside the k found lies above them. Up to
6 b objects, and when the iteration stalls or the bound refuses, the full
``numpy.linalg.eigh`` of the Laplacian runs instead; ``eigensolver`` says
which one did.

k-means runs all restarts in lockstep, from seeding to scoring. The
k-means++ draw seeds every restart at once on (restarts, n) arrays: each
pick takes one uniform from each restart's generator and looks it up in
that restart's normalized cumulative weights (the inverse CDF), the index
``Generator.choice`` with those probabilities would return. In Lloyd's
iteration one batched GEMM scores every restart's centers, and rows that
its rounding could misorder are scored again in the exact difference form,
so the labels are those of one restart run alone. Lloyd's iteration and
KL k-means (``klcluster``) are both Bregman hard clustering and share one
loop, ``_hard_cluster``, with the convergence test, the ``max_iter`` cap
and Brent's cycle stop; each caller passes its pass and its checkpoint.
The within-cluster sums of squares that pick the best restart are scored
for every restart in one pass, over points sorted by (restart, label).
Eigenvector signs are left as LAPACK returns them: negating a column
negates every difference, product and mean exactly, so seeds, labels and
sums of squares do not change.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBandwidth,
    InvalidConfig,
    InvalidMatrix,
    MetricNotSymmetric,
    NumericalError,
)
from .matrixcore import _BLOCK_ROWS, _trusted, max_asymmetry, mirror_in_place
from .metrics import DistanceMatrix

_ENTRY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Symmetric kernel matrix with unit diagonal and entries in [0, 1];
    ``kernelize`` builds its kernels already in this form."""

    values: np.ndarray
    bandwidth_sigma: float

    def __post_init__(self):
        a = np.array(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidMatrix("adjacency entries must be finite")
        if max_asymmetry(a) > _ENTRY_TOL:
            raise InvalidMatrix("adjacency matrix must be symmetric")
        if np.any(np.abs(np.diagonal(a) - 1.0) > _ENTRY_TOL):
            raise InvalidMatrix("adjacency diagonal must be 1")
        if a.min() < -_ENTRY_TOL or a.max() > 1.0 + _ENTRY_TOL:
            raise InvalidMatrix("adjacency entries must lie in [0, 1]")
        mirror_in_place(a, lambda upper, lower: (upper + lower) / 2.0)
        np.clip(a, 0.0, 1.0, out=a)
        np.fill_diagonal(a, 1.0)
        if not self.bandwidth_sigma > 0:
            raise InvalidBandwidth(f"sigma must be positive, got {self.bandwidth_sigma}")
        a.flags.writeable = False
        object.__setattr__(self, "values", a)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Labels in [0, k) for n objects."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=int)
        if lab.ndim != 1 or lab.size < 1:
            raise InvalidConfig("labels must be a non-empty 1-d array")
        if self.k < 1 or lab.size < self.k:
            raise InvalidConfig(f"k={self.k} invalid for {lab.size} objects")
        if lab.min() < 0 or lab.max() >= self.k:
            raise InvalidConfig(f"labels must lie in [0, {self.k})")
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True, eq=False)
class KMeansResult:
    assignment: ClusterAssignment
    centers: np.ndarray
    wcss: float


@dataclass(frozen=True, eq=False)
class SpectralResult:
    assignment: ClusterAssignment
    ncut: float
    bandwidth_sigma: float
    eigensolver: str  # "subspace" or "dense", as in spectral_embedding


def median_bandwidth(x: np.ndarray) -> float:
    """Median of the strictly positive upper-triangle entries, or 1.0 if
    every off-diagonal entry is zero.

    One partition of the upper triangle: its non-positive entries sort
    first, so the positive ones hold the ranks from their count on. The
    result is ``np.median``'s: the middle entry, or the mean of the middle
    pair, the lower of which is the largest entry below the upper one.
    """
    n = x.shape[0]
    upper = np.concatenate([x[i, i + 1:] for i in range(n)]) if n > 1 else np.empty(0)
    low = np.count_nonzero(upper <= 0.0)
    size = np.count_nonzero(upper > 0.0)
    if size == 0:
        return 1.0
    mid = low + size // 2
    upper.partition(mid)  # one kth: numpy partitions for two kth ~5x slower
    middle = upper[mid : mid + 1] if size % 2 else np.array([upper[:mid].max(), upper[mid]])
    return float(np.mean(middle))


def _kernel_scale(sigma: float, error=InvalidBandwidth) -> float:
    """2 sigma^2, the kernel's divisor; ``error`` for a sigma that is not
    positive or whose 2 sigma^2 overflows."""
    if not sigma > 0:
        raise error(f"sigma must be positive, got {sigma}")
    try:
        scale = 2.0 * sigma**2
    except OverflowError:  # float ** raises where float * returns inf
        scale = np.inf
    if not np.isfinite(scale):
        raise error(f"sigma {sigma} is too large: 2 sigma^2 overflows")
    return scale


def kernelize(
    dm: DistanceMatrix, sigma: float | None = None, on_sqrt: bool = False
) -> AdjacencyMatrix:
    """Gaussian kernel W = exp(-x^2 / (2 sigma^2)) over a distance matrix.

    Rejects asymmetric (kl) matrices. When sigma is omitted it defaults to
    the median heuristic over the kernelized values. W is exactly symmetric
    with a unit diagonal and entries in [0, 1] by construction; the one check
    is finiteness, as 2 sigma^2 can underflow and turn a zero entry into 0/0.
    """
    if not dm.is_symmetric:
        raise MetricNotSymmetric(
            f"metric {dm.metric!r} is asymmetric; kernel needs a symmetric matrix"
        )
    x = np.sqrt(dm.values) if on_sqrt else dm.values
    if sigma is None:
        sigma = median_bandwidth(x)
    scale = _kernel_scale(sigma)
    # exp(-(x**2) / (2 sigma^2)), one operation at a time in one array; an
    # underflowed scale makes 0/0 here, which the finiteness check reports
    w = np.square(x)
    np.negative(w, out=w)
    with np.errstate(divide="ignore", invalid="ignore"):
        w /= scale
        np.exp(w, out=w)
    np.fill_diagonal(w, 1.0)
    if not np.isfinite(w).all():
        raise InvalidMatrix("adjacency entries must be finite")
    w.flags.writeable = False
    return _trusted(AdjacencyMatrix, values=w, bandwidth_sigma=float(sigma))


def normalized_laplacian(w: AdjacencyMatrix) -> np.ndarray:
    """Symmetric normalized Laplacian D^{-1/2} (D - W) D^{-1/2}.

    Degrees are at least 1 because the kernel diagonal is 1, so the scaling
    is always defined. (w_ij r_i) r_j is not exactly symmetric, and ``eigh``
    reads one triangle, so the result is symmetrized as (L + L^T)/2.
    """
    degrees = w.values.sum(axis=1)
    inv_root = 1.0 / np.sqrt(degrees)
    lap = -(w.values * inv_root[:, None]) * inv_root[None, :]
    np.fill_diagonal(lap, 1.0 + np.diagonal(lap))
    mirror_in_place(lap, lambda upper, lower: (upper + lower) / 2.0)
    return lap


# The bottom-k solver. The block has b = k + min(5k, _OVERSAMPLE) columns:
# the deflation bound holds only once the block carries nearly all of M's
# Frobenius mass, and on d = 7 W2 and Bhattacharyya kernels at k = 5, 30
# columns were the fewest that certified every one tried (240 at n = 200,
# 12 at n = 600, 2 at n = 2000). With it the iteration takes 6-12 passes at
# every k. A pass costs about n^2 b and the full ``eigh`` n^3; on one BLAS
# thread they broke even between 6 b and 8 b objects for k = 3-30 (10 b at
# k = 2), so the iteration runs for n > _DENSE_PER_COLUMN b.
_OVERSAMPLE = 30
_DENSE_PER_COLUMN = 6
_MAX_PASSES = 50
_RESIDUAL_TOL = 1e-10  # on every ||M v - theta v||, for unit v
# From pass 2 * _STALL_WINDOW on, the iteration gives up once the residual's
# contraction over the last _STALL_WINDOW passes, kept up, would not reach
# _RESIDUAL_TOL within _MAX_PASSES: the dense fallback then runs at once.
_STALL_WINDOW = 5
# c must clear the k-th and (k+1)-th Ritz values by more than the residuals
# (sqrt(k) * _RESIDUAL_TOL) and the bound's rounding; a smaller gap, such
# as lambda_k = lambda_{k+1}, leaves the certificate to rounding
_MIN_GAP = 1e-8
# multiple of n eps (|M|_F^2 + block columns) that the deflation bound adds
# for the rounding of its inputs
_BOUND_SLACK = 16


def _frobenius_sq(w: AdjacencyMatrix, r: np.ndarray) -> float:
    """|M|_F^2 = sum_i r_i^2 sum_j W_ij^2 r_j^2 for M = r W r, in row blocks,
    so no n x n temporary is built."""
    r2 = np.square(r[:, 0])
    total = 0.0
    for s in range(0, w.n, _BLOCK_ROWS):
        total += float(r2[s : s + _BLOCK_ROWS] @ (np.square(w.values[s : s + _BLOCK_ROWS]) @ r2))
    return total


def _deflation_bound(
    w: AdjacencyMatrix, r: np.ndarray, q: np.ndarray, mq: np.ndarray,
    theta: np.ndarray, ritz: np.ndarray, k: int,
) -> bool:
    """Whether every x orthogonal to the k found Ritz vectors V has
    x^T M x < c |x|^2, c midway between the k-th and (k+1)-th Ritz values,
    shown in O(n^2) from the whole Rayleigh-Ritz block Y = q ritz.

    Write x = U a + z with U the other Ritz vectors (values Theta_U, at most
    theta_{k+1}) and z orthogonal to Y. U^T M z = R_U^T z for the residuals
    R_U = M U - U Theta_U, and z^T M z <= gamma |z|^2, where gamma^2 =
    |M|_F^2 - sum_i theta_i^2 bounds the Frobenius norm of M compressed
    to the complement of Y (Y^T M Y = Theta). So x^T M x is at most the
    top eigenvalue of [[theta_{k+1}, |R_U|_F], [|R_U|_F, gamma]] times
    |x|^2. Every computed term is within a few n eps (|M|_F^2 + b) of its
    exact value (b block columns; |M|_2 <= 1 as W >= 0, and the sums have
    positive terms); that slack is added to gamma^2 and to the bound.
    """
    n, b = q.shape
    top = theta[k]
    others = q @ ritz[:, k:]
    coupling = float(np.linalg.norm(mq @ ritz[:, k:] - others * theta[k:]))
    fro2 = _frobenius_sq(w, r)
    slack = _BOUND_SLACK * n * _EPS * (fro2 + b)
    gamma = np.sqrt(max(fro2 - float(theta @ theta), 0.0) + slack)
    bound = 0.5 * (top + gamma) + np.hypot(0.5 * (top - gamma), coupling)
    return bound + slack < 0.5 * (theta[k - 1] + theta[k])


def _block_columns(k: int) -> int:
    """Columns of the subspace iteration's block for k eigenpairs."""
    return k + min(5 * k, _OVERSAMPLE)


def _subspace_bottom(w: AdjacencyMatrix, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The k smallest eigenvalues of L_sym and their eigenvectors by block
    subspace iteration with Rayleigh-Ritz (Halko, Martinsson & Tropp 2011),
    or None when the iteration or its certificate fails. The full ``eigh``
    of ``normalized_laplacian`` is its fallback and its reference.

    L_sym = I - M with M = D^-1/2 W D^-1/2, so the pairs sought are the top
    k of M, applied as ``r * (W @ (r * Q))`` without building L. The block
    has ``_block_columns(k)`` columns: the convergence factor is the ratio
    of the eigenvalue past the block to the k-th, and the certificate needs
    the block to hold nearly all of M's Frobenius mass. The start block
    comes from a fixed seed, so the result depends on W alone.

    The iteration finds the k largest Ritz values of the block, but W may be
    indefinite (divergence kernels, user matrices), so an eigenvalue of M
    above them could be missing from the block. The certificate excludes
    that: with V the k Ritz vectors and c midway between the k-th and
    (k+1)-th Ritz values, it shows x^T M x < c |x|^2 for every x orthogonal
    to V, and by Courant-Fischer no eigenvalue of M but the k near the Ritz
    values lies above c. The certificate is the O(n^2) deflation bound
    alone; where it refuses, as when M has more negative eigenvalue mass
    than the block leaves room for, the result is None. A gap between those
    Ritz values under _MIN_GAP, as when the k-th and (k+1)-th eigenvalues
    coincide, leaves no room for c and fails the certificate.
    """
    n = w.n
    r = (1.0 / np.sqrt(w.values.sum(axis=1)))[:, None]
    start = np.random.default_rng(0).standard_normal((n, _block_columns(k)))
    q, _ = np.linalg.qr(start)
    worst = []  # largest residual of every pass
    for passes in range(1, _MAX_PASSES + 1):
        mq = r * (w.values @ (r * q))
        theta, ritz = np.linalg.eigh(q.T @ mq)
        theta, ritz = theta[::-1], ritz[:, ::-1]
        vectors = q @ ritz[:, :k]
        residuals = np.linalg.norm(mq @ ritz[:, :k] - vectors * theta[:k], axis=0)
        worst.append(residuals.max())
        if worst[-1] <= _RESIDUAL_TOL:
            break
        if passes >= 2 * _STALL_WINDOW:
            # the contraction of the last window, kept up for the passes left
            rate = worst[-1] / worst[-1 - _STALL_WINDOW]
            if worst[-1] * rate ** ((_MAX_PASSES - passes) / _STALL_WINDOW) > _RESIDUAL_TOL:
                return None
        q, _ = np.linalg.qr(mq)
    else:
        return None
    if theta[k - 1] - theta[k] <= _MIN_GAP or not _deflation_bound(w, r, q, mq, theta, ritz, k):
        return None
    return 1.0 - theta[:k], vectors


def spectral_embedding(w: AdjacencyMatrix, k: int) -> tuple[np.ndarray, np.ndarray, str]:
    """Rows of the k bottom eigenvectors of L_sym, row-normalized.

    Returns (embedding, eigenvalues, eigensolver): eigenvalues are the k
    smallest, ascending, and eigensolver is ``"subspace"`` or ``"dense"``.
    All-zero rows are left at zero rather than divided. Above
    _DENSE_PER_COLUMN objects per block column, n > 6 (k + min(5k, 30))
    (72 at k = 2, 180 at k = 5, 240 at k = 10, 360 from k = 30 on), the
    subspace iteration runs, certified by the O(n^2) deflation bound. The
    full ``eigh`` runs otherwise and whenever the iteration stalls or the
    bound refuses.
    """
    if k < 1 or k > w.n:
        raise InvalidConfig(f"k={k} invalid for {w.n} objects")
    found = None
    if w.n > _DENSE_PER_COLUMN * _block_columns(k):
        found = _subspace_bottom(w, k)
    eigensolver = "subspace"
    if found is None:
        eigensolver = "dense"
        eigenvalues, vectors = np.linalg.eigh(normalized_laplacian(w))
        found = eigenvalues[:k].copy(), vectors[:, :k].copy()
    eigenvalues, basis = found
    norms = np.linalg.norm(basis, axis=1)
    keep = norms > 0.0
    basis[keep] /= norms[keep, None]
    return basis, eigenvalues, eigensolver


def _plus_plus(n: int, k: int, rngs, distances_to, power: int) -> np.ndarray:
    """The ++ draw of k indices out of n for every generator at once, one
    row of the returned (R, k) array per generator: the first index is
    uniform, each later one is drawn with probability proportional to its
    distance to the nearest index chosen in its row, raised to ``power``.
    ``distances_to(idx)`` gives, for an (R,) array of indices, every index's
    distance to each of them as an (R, n) array; the nearest distances are
    kept as an (R, n) running minimum, updated once per pick.

    Each pick takes one ``random()`` from each row's generator and looks it
    up in that row's normalized cumulative weights, the first index whose
    cumulative weight exceeds it. That is the inverse-CDF lookup of
    ``Generator.choice(n, p=weights / total)``, on the same cumulative sum,
    so a row draws the index that call would. A row whose unchosen weights
    are all zero falls back to a uniform draw over its unchosen indices.
    Weights that overflow to inf, or are nan, raise ``NumericalError``
    naming the row (restart) and the pick.
    """
    r = len(rngs)
    rows = np.arange(r)
    chosen = np.empty((r, k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    nearest = np.full((r, n), np.inf)
    for pick in range(1, k):
        np.minimum(nearest, distances_to(chosen[:, pick - 1]), out=nearest)
        with np.errstate(over="ignore"):  # an overflow fails the totals check
            weights = nearest**power
            weights[rows[:, None], chosen[:, :pick]] = 0.0
            totals = weights.sum(axis=1)
        bad = ~np.isfinite(totals)
        if bad.any():
            row = int(bad.argmax())
            raise NumericalError(
                f"restart {row}, pick {pick}: ++ weights sum to {totals[row]:.6e}"
            )
        live = totals > 0.0
        for row in np.flatnonzero(~live):
            unchosen = np.setdiff1d(np.arange(n), chosen[row, :pick])
            chosen[row, pick] = rngs[row].choice(unchosen)
        cdf = np.cumsum(weights[live] / totals[live, None], axis=1)
        cdf /= cdf[:, -1:]
        draws = np.array([rngs[row].random() for row in np.flatnonzero(live)])
        chosen[live, pick] = np.count_nonzero(cdf <= draws[:, None], axis=1)
    return chosen


def _plus_plus_seed(points: np.ndarray, k: int, rngs) -> np.ndarray:
    """k-means++ center choice, sampling weighted by squared distance: the
    (R, k, d) center sets of R restarts, one per generator, drawn in
    lockstep."""

    def squared_distances_to(idx):
        diff = points - points[idx][:, None, :]
        return np.einsum("rnd,rnd->rn", diff, diff)

    return points[_plus_plus(points.shape[0], k, rngs, squared_distances_to, 1)]


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _assign(
    points: np.ndarray, minus_2xt: np.ndarray, sq_points: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels (R, n) for R stacked (k, d) center sets, and
    each set's summed squared distance of the points to their nearest
    center. ``minus_2xt`` is -2 X^T and ``sq_points`` every |x|^2.

    The distances come from one batched GEMM, |c|^2 + |x|^2 - 2 C X^T.
    That form and the exact one, sum((x - c)^2), are each within
    (2d + 4) u S of the true distance, with u = eps / 2 and
    S = |x|^2 + max |c|^2, so a row with only its best GEMM distance within
    16 (d + 3) eps S of that best has the same unique exact argmin, the
    one center inside the bound. Every other row, exact ties included, is
    scored again in the exact form, so the labels and their first-index
    tie-breaking are those of that form. The tiny term covers underflow; a
    non-finite S sends the row to the exact form too.
    """
    _, k, d = centers.shape
    sq_centers = np.einsum("rkd,rkd->rk", centers, centers)
    table = centers @ minus_2xt
    table += sq_centers[:, :, None]
    table += sq_points
    best = table.min(axis=1)
    limit = (16 * (d + 3) * _EPS) * (sq_points + sq_centers.max(axis=1)[:, None]) + _TINY
    limit += best
    inside = table <= limit[:, None, :]
    labels = np.einsum("rkn,k->rn", inside, np.arange(k))  # the one center inside
    uncertain = (np.add.reduce(inside, axis=1, dtype=np.intp) != 1) | (limit == np.inf)
    if uncertain.any():
        rows, cols = np.nonzero(uncertain)
        diff = points[cols, None, :] - centers[rows]
        exact = np.einsum("ijk,ijk->ij", diff, diff)
        labels[rows, cols] = exact.argmin(axis=1)
        best[rows, cols] = exact.min(axis=1)
    return labels, best.sum(axis=1)


def _repair_empty(labels: np.ndarray, k: int, own_cost) -> np.ndarray:
    """Move the point of largest cost into each empty cluster, stealing only
    from clusters that keep at least one member. ``own_cost(labels)`` gives
    every point's cost under its label in ``labels``; it is asked again after
    each move. Lloyd's and KL k-means share this repair."""
    labels = labels.copy()
    for empty in range(k):
        counts = np.bincount(labels, minlength=k)
        if counts[empty] > 0:
            continue
        own = np.where(counts[labels] < 2, -np.inf, own_cost(labels))
        donor = int(own.argmax())
        if not np.isfinite(own[donor]):
            break
        labels[donor] = empty
    return labels


def _cluster_means(values: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The means (R, k, ...) of ``values`` (n, ...) over each cluster of
    every label row (R, n), 0 for an empty cluster.

    They are ``np.mean``'s: over more than one column it adds a cluster's
    rows in index order, as ``np.bincount`` does over label-plus-row offsets
    (one block of offsets per column), and divides by the count. A single
    column it sums pairwise, so there each cluster is summed as it does.
    """
    r, n = labels.shape
    flat = values.reshape(n, -1)
    f = flat.shape[1]
    cells = (labels + k * np.arange(r)[:, None]).ravel()
    counts = np.bincount(cells, minlength=r * k)
    if f == 1:
        sums = np.array([[flat[lab == j].sum() for j in range(k)] for lab in labels])
    else:
        offsets = (cells + r * k * np.arange(f)[:, None]).ravel()
        weights = np.broadcast_to(flat.T[:, None, :], (f, r, n)).ravel()
        sums = np.bincount(offsets, weights=weights, minlength=f * r * k).reshape(f, r * k).T
    means = sums.reshape(r * k, f) / np.maximum(counts, 1)[:, None]
    return means.reshape(r, k, *values.shape[1:])


def _sq_dist_to_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Each point's squared distance to the mean of its cluster."""
    diff = points - _cluster_means(points, labels[None], k)[0, labels]
    return np.einsum("ij,ij->i", diff, diff)


def wcss(points: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Within-cluster sum of squared distances to cluster means."""
    total = 0.0
    for j in range(k):
        members = points[labels == j]
        if members.shape[0] > 0:
            total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def _restart_wcss(points: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``wcss`` of every restart's labels (R, n), scored about its centers
    (R, k, d), the means of those labels, in one pass.

    The points are ordered by (restart, label) with a stable sort, so each
    cluster's squared deviations form one contiguous block, its members in
    index order. ``.sum()`` over a block is the pairwise sum ``wcss`` takes
    over the cluster's (members, d) array, and the cluster sums are added in
    label order from 0.0, so every score equals ``wcss`` to the byte.
    """
    r, n = labels.shape
    k = centers.shape[1]
    cells = (labels + k * np.arange(r)[:, None]).ravel()
    order = np.argsort(cells, kind="stable")
    sq = points[order % n] - centers.reshape(r * k, -1)[cells[order]]
    sq = np.square(sq, out=sq).ravel()
    ends = np.cumsum(np.bincount(cells, minlength=r * k)) * points.shape[1]
    sums = [sq[s:e].sum() for s, e in zip([0, *ends[:-1].tolist()], ends.tolist())]
    return np.cumsum(np.reshape(sums, (r, k)), axis=1)[:, -1]


def _update_step(
    points: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Repair the label rows (R, n) that leave a cluster empty, in place,
    then return them with their (R, k, d) cluster means."""
    r = len(labels)
    counts = np.bincount((labels + k * np.arange(r)[:, None]).ravel(), minlength=r * k)
    for row in np.flatnonzero(counts.reshape(r, k).min(axis=1) == 0):
        labels[row] = _repair_empty(labels[row], k, lambda lab: _sq_dist_to_means(points, lab, k))
    return labels, _cluster_means(points, labels, k)


def _hard_cluster(labels: np.ndarray, step, state, max_iter: int) -> tuple[np.ndarray, list]:
    """Bregman hard clustering (Banerjee, Merugu, Dhillon & Ghosh 2005) of R
    runs in lockstep from their label rows (R, n), updated in place: whether
    each run converged, and its cost after every pass it ran.

    ``step(rows)`` runs a pass of the runs ``rows``: it repairs their labels
    in place, updates their centers and returns their new labels and costs.
    A run converges when a pass leaves its labels unchanged, and ends after
    ``max_iter`` passes otherwise. ``state(rows)`` copies each run's row of
    what its next pass reads, so once that equals the state of p passes
    earlier the run repeats with period p, as when k exceeds the number of
    distinct points and each assignment undoes the last repair. It then
    stops at the first pass congruent to ``max_iter`` modulo p, which ends
    as pass ``max_iter`` would. Brent's method finds the repeat: the state
    is compared with a checkpoint that moves to the current pass each
    time the passes since it reach a power of two, so a cycle shows within
    about twice its start plus its period.
    """
    runs = len(labels)
    history = [[] for _ in range(runs)]
    converged = np.zeros(runs, dtype=bool)
    active = np.arange(runs)
    last = np.full(runs, max_iter)  # the pass each run ends after
    mark, mark_pass, span = state(active), np.zeros_like(last), np.ones_like(last)
    for passes in range(1, max_iter + 1):
        new_labels, cost = step(active)
        for row, c in zip(active, cost.tolist()):
            history[row].append(c)
        moved = (new_labels != labels[active]).any(axis=1)
        converged[active[~moved]] = True
        labels[active[moved]] = new_labels[moved]
        active = active[moved]
        now = state(active)
        repeat = active[(now == mark[active]).all(axis=1)]
        period = passes - mark_pass[repeat]
        last[repeat] = np.minimum(last[repeat], passes + (max_iter - passes) % period)
        moving = passes - mark_pass[active] == span[active]
        move = active[moving]
        mark[move], mark_pass[move], span[move] = now[moving], passes, 2 * span[move]
        active = active[last[active] != passes]
        if not active.size:
            break
    return converged, history


def _lloyd(
    points: np.ndarray, k: int, rngs: list[np.random.Generator], max_iter: int
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Lloyd's iteration for one restart per generator, in lockstep through
    ``_hard_cluster``: labels (R, n), centers (R, k, d), and each restart's
    cost after every assignment, from the GEMM distances. Lloyd's iteration
    never raises that cost (up to their rounding); a repair lowers it too.
    A pass's labels are a function of the labels before it (repair, means,
    assignment), so they are the checkpoint. A restart that did not
    converge takes one last update, so every restart ends as it would alone.
    """
    minus_2xt = -2.0 * points.T
    sq_points = np.einsum("ij,ij->i", points, points)
    centers = _plus_plus_seed(points, k, rngs)
    labels, cost = _assign(points, minus_2xt, sq_points, centers)

    def step(rows):
        labels[rows], centers[rows] = _update_step(points, labels[rows], k)
        return _assign(points, minus_2xt, sq_points, centers[rows])

    converged, history = _hard_cluster(labels, step, lambda rows: labels[rows], max_iter)
    ended = np.flatnonzero(~converged)
    if ended.size:
        labels[ended], centers[ended] = _update_step(points, labels[ended], k)
    return labels, centers, [[c, *costs] for c, costs in zip(cost.tolist(), history)]


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    restarts: int = 10,
    max_iter: int = 300,
) -> KMeansResult:
    """k-means with k-means++ seeding and multiple restarts.

    The best restart is the one with the lowest within-cluster sum of
    squares of its final labels, scored for all restarts in one pass; ties
    keep the earliest restart. Restarts use generators derived from a single
    base seed drawn from ``rng``, so results depend only on the incoming
    generator state.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidConfig(f"points must be a non-empty 2-d array, got {pts.shape}")
    if k < 1 or k > pts.shape[0]:
        raise InvalidConfig(f"k={k} invalid for {pts.shape[0]} points")
    if restarts < 1 or max_iter < 1:
        raise InvalidConfig("restarts and max_iter must be positive")
    seed_base = int(rng.integers(0, 2**63))
    subs = [np.random.default_rng(seed_base + r) for r in range(restarts)]
    labels, centers, _ = _lloyd(pts, k, subs, max_iter)
    scores = _restart_wcss(pts, labels, centers).tolist()
    best = min(range(restarts), key=scores.__getitem__)  # the earliest of ties
    return KMeansResult(
        ClusterAssignment(labels[best].copy(), k), centers[best].copy(), scores[best]
    )


def ncut(w: AdjacencyMatrix, assignment: ClusterAssignment) -> float:
    """Normalized cut value (1/2) sum_i W(A_i, comp A_i) / vol(A_i).

    A diagnostic for the quality of a partition under the kernel; lower is
    better. Empty clusters contribute zero. With H the (n, k) one-hot label
    matrix, every cut is a column sum of (W (1 - H)) * H and every volume
    one of degrees^T H. The cut is summed directly rather than as the
    volume minus the weight inside, which cancels when the cut is tiny.
    """
    if assignment.n != w.n:
        raise InvalidConfig(
            f"assignment over {assignment.n} objects against a {w.n}-node graph"
        )
    h = np.zeros((w.n, assignment.k))
    h[np.arange(w.n), assignment.labels] = 1.0
    cut = ((w.values @ (1.0 - h)) * h).sum(axis=0)
    vol = w.values.sum(axis=1) @ h
    present = h.any(axis=0)
    return 0.5 * float((cut[present] / vol[present]).sum())


def spectral_cluster(
    w: AdjacencyMatrix,
    k: int,
    rng: np.random.Generator,
    restarts: int = 10,
    max_iter: int = 300,
) -> SpectralResult:
    """Cluster graph nodes by k-means on the normalized spectral embedding."""
    basis, _, eigensolver = spectral_embedding(w, k)
    result = kmeans(basis, k, rng, restarts=restarts, max_iter=max_iter)
    return SpectralResult(
        assignment=result.assignment,
        ncut=ncut(w, result.assignment),
        bandwidth_sigma=w.bandwidth_sigma,
        eigensolver=eigensolver,
    )
