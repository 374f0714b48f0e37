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
M = D^{-1/2} W D^{-1/2} = I - L_sym (block k + 10, one QR and one
Rayleigh-Ritz step per pass, start block from a fixed seed), stopped on the
residuals and certified by one Cholesky factorization: divergence kernels
and user matrices are indefinite, and the certificate proves that no
eigenvalue of M outside the k found lies above them. Up to
120 * max(1, k / 5)^2 objects, for k + 10 >= n, and when the iteration or
its certificate fails, the full ``numpy.linalg.eigh`` of the Laplacian runs
instead; ``eigensolver`` says which one did.

k-means runs Lloyd's iteration from k-means++ seeds, all restarts in
lockstep: one batched GEMM scores every restart's centers, and rows that
its rounding could misorder are scored again in the exact difference form,
so the labels are those of one restart run alone. The within-cluster sum
of squares that picks the best restart is evaluated once per restart, on
its final labels. Eigenvector signs are left as LAPACK returns them:
negating a column negates every difference, product and mean exactly, so
seeds, labels and sums of squares do not change.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBandwidth,
    InvalidConfig,
    InvalidMatrix,
    MetricNotSymmetric,
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
    embedding: np.ndarray
    eigenvalues: np.ndarray
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
    if not sigma > 0:
        raise InvalidBandwidth(f"sigma must be positive, got {sigma}")
    try:
        scale = 2.0 * sigma**2
    except OverflowError:  # float ** raises where float * returns inf
        scale = np.inf
    if not np.isfinite(scale):
        raise InvalidBandwidth(f"sigma {sigma} is too large: 2 sigma^2 overflows")
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


# The bottom-k solver. At or below _DENSE_MAX_N * max(1, k / _DENSE_K)^2
# objects the full ``eigh`` is at least as fast as the subspace iteration: a
# pass costs about n^2 (k + 10) and the passes grow with k, where ``eigh``
# costs n^3 whatever k is. Dense against subspace on mean-distance kernels
# (``generate_benchmark(7, k, n)``), one BLAS thread, with passes:
#   k = 5:  2.1 against 2.7 ms (11) at n = 120, 5.3 against 3.6 ms (10) at
#           n = 200, 245 against 57 ms (10) at n = 1000;
#   k = 10: 5.0 against 9.4 ms (28) at n = 200, 18 against 28 ms (30) at
#           n = 400, 39 against 36 ms (30) at n = 500, 250 against 131 ms
#           (34) at n = 1000;
#   k = 20: 4.8 against 16 ms (27) at n = 200, 19 against 43 ms (42) at
#           n = 400; from n = 700 to 2000 the iteration stalls and gives up
#           after 10 passes, a tenth of the dense time wasted.
_DENSE_MAX_N = 120
_DENSE_K = 5
_OVERSAMPLE = 10  # block columns beyond k
_MAX_PASSES = 50
_RESIDUAL_TOL = 1e-10  # on every ||M v - theta v||, for unit v
# From pass 2 * _STALL_WINDOW on, the iteration gives up once the residual's
# contraction over the last _STALL_WINDOW passes, kept up, would not reach
# _RESIDUAL_TOL within _MAX_PASSES: the dense fallback then runs at once.
_STALL_WINDOW = 5
# c must clear the k-th and (k+1)-th Ritz values by more than the residuals
# (sqrt(k) * _RESIDUAL_TOL) and the Cholesky's rounding; a smaller gap, such
# as lambda_k = lambda_{k+1}, leaves the certificate to rounding
_MIN_GAP = 1e-8


class _Embedding(tuple):
    """``spectral_embedding``'s ``(basis, eigenvalues)`` pair, which unpacks
    as before; ``eigensolver`` names the solver that produced it."""

    eigensolver: str


def _subspace_bottom(w: AdjacencyMatrix, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The k smallest eigenvalues of L_sym and their eigenvectors by block
    subspace iteration with Rayleigh-Ritz (Halko, Martinsson & Tropp 2011),
    or None when the iteration or its certificate fails. The full ``eigh``
    of ``normalized_laplacian`` is its fallback and its reference.

    L_sym = I - M with M = D^-1/2 W D^-1/2, so the pairs sought are the top
    k of M, applied as ``r * (W @ (r * Q))`` without building L. The start
    block comes from a fixed seed, so the result depends on W alone.

    The iteration finds the k largest Ritz values of the block, but W may be
    indefinite (divergence kernels, user matrices), so an eigenvalue of M
    above them could be missing from the block. The certificate excludes
    that: with V the k Ritz vectors and c midway between the k-th and
    (k+1)-th Ritz values, a Cholesky factor of
    A = c I - (M - V (Theta + 2) V^T) proves A positive definite, so
    x^T M x < c |x|^2 for every x orthogonal to V, and by Courant-Fischer no
    eigenvalue of M but the k near the Ritz values lies above c. A gap
    between those Ritz values under _MIN_GAP, as when the k-th and (k+1)-th
    eigenvalues coincide, leaves no room for c and fails the certificate.
    """
    n = w.n
    r = (1.0 / np.sqrt(w.values.sum(axis=1)))[:, None]
    start = np.random.default_rng(0).standard_normal((n, k + _OVERSAMPLE))
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
    if theta[k - 1] - theta[k] <= _MIN_GAP:
        return None
    # A = c I - M + V (Theta + 2) V^T, built in one n x n array
    a = w.values * -r
    a *= r.T
    a.flat[:: n + 1] += 0.5 * (theta[k - 1] + theta[k])
    lifted = vectors * (theta[:k] + 2.0)
    for s in range(0, n, _BLOCK_ROWS):
        a[s : s + _BLOCK_ROWS] += lifted[s : s + _BLOCK_ROWS] @ vectors.T
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return 1.0 - theta[:k], vectors


def spectral_embedding(w: AdjacencyMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the k bottom eigenvectors of L_sym, row-normalized.

    Returns (embedding, eigenvalues) where eigenvalues are the k smallest,
    ascending; the pair's ``eigensolver`` is ``"subspace"`` or ``"dense"``.
    All-zero rows are left at zero rather than divided. Above
    _DENSE_MAX_N * max(1, k / _DENSE_K)^2 objects (120 for k <= 5, 480 for
    k = 10), and below n - _OVERSAMPLE columns, the certified subspace
    iteration runs; the full ``eigh`` runs otherwise and whenever that
    iteration or its certificate fails.
    """
    if k < 1 or k > w.n:
        raise InvalidConfig(f"k={k} invalid for {w.n} objects")
    found = None
    if w.n > _DENSE_MAX_N * max(1.0, k / _DENSE_K) ** 2 and k + _OVERSAMPLE < w.n:
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
    embedding = _Embedding((basis, eigenvalues))
    embedding.eigensolver = eigensolver
    return embedding


def _plus_plus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ center choice: squared-distance-weighted sampling. Each
    point's squared distance to its nearest chosen center is kept as a
    running minimum, updated once per pick."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    for _ in range(1, k):
        diff = points - points[chosen[-1]]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
        d2[chosen] = 0.0
        total = d2.sum()
        if total > 0.0:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        else:
            # all remaining points coincide with a center; fall back to
            # a uniform pick among unchosen indices
            pool = np.setdiff1d(np.arange(n), chosen)
            chosen.append(int(rng.choice(pool)))
    return points[chosen].copy()


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


def _sq_dist_to_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Each point's squared distance to the mean of its cluster."""
    counts = np.bincount(labels, minlength=k)
    centers = np.stack(
        [
            points[labels == j].mean(axis=0) if counts[j] > 0 else np.zeros(points.shape[1])
            for j in range(k)
        ]
    )
    diff = points - centers[labels]
    return np.einsum("ij,ij->i", diff, diff)


def wcss(points: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Within-cluster sum of squared distances to cluster means."""
    total = 0.0
    for j in range(k):
        members = points[labels == j]
        if members.shape[0] > 0:
            total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def _update_step(
    points: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Repair the label rows (R, n) that leave a cluster empty, in place,
    then return them with their (R, k, d) cluster means.

    The means are ``np.mean``'s: for d >= 2 it adds a cluster's rows in
    index order, as ``np.bincount`` does over label-plus-row offsets (one
    block of offsets per coordinate), and divides by the count. A 1-d
    column it sums pairwise, so there each cluster is summed as it does.
    """
    r, n = labels.shape
    d = points.shape[1]
    cells = (labels + k * np.arange(r)[:, None]).ravel()
    counts = np.bincount(cells, minlength=r * k)
    if counts.min() == 0:
        for row in np.flatnonzero(counts.reshape(r, k).min(axis=1) == 0):
            labels[row] = _repair_empty(
                labels[row], k, lambda lab: _sq_dist_to_means(points, lab, k)
            )
        cells = (labels + k * np.arange(r)[:, None]).ravel()
        counts = np.bincount(cells, minlength=r * k)
    if d == 1:
        sums = np.array([[points[lab == j].sum() for j in range(k)] for lab in labels])
    else:
        offsets = (cells + r * k * np.arange(d)[:, None]).ravel()
        weights = np.broadcast_to(points.T[:, None, :], (d, r, n)).ravel()
        sums = np.bincount(offsets, weights=weights, minlength=d * r * k).reshape(d, r * k).T
    return labels, (sums.reshape(r * k, d) / counts[:, None]).reshape(r, k, d)


def _lloyd(
    points: np.ndarray, k: int, rngs: list[np.random.Generator], max_iter: int
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Lloyd's iteration for one restart per generator, all in lockstep:
    labels (R, n), centers (R, k, d), and each restart's assignment cost
    after every assignment step it ran, from the GEMM distances. Lloyd's
    iteration never raises that cost (up to their rounding); an
    empty-cluster repair lowers it too.

    Each restart seeds its own k-means++ centers and leaves the active set
    when an assignment leaves its labels unchanged, or after ``max_iter``
    passes and one last update; so every restart ends as it would alone.
    A pass's labels are a function of the labels before it (repair, means,
    assignment), so once a restart's labels equal those of p passes earlier
    the rest of its run repeats with period p, as when k exceeds the number
    of distinct points and each assignment undoes the last repair. It then
    stops at the first pass congruent to ``max_iter`` modulo p, whose labels
    are those of pass ``max_iter``, and takes its last update there. Brent's
    method finds the repeat: the labels are compared with a checkpoint that
    moves to the current pass each time the passes since it reach a power
    of two, so a cycle shows within about twice its start plus its period.
    """
    minus_2xt = -2.0 * points.T
    sq_points = np.einsum("ij,ij->i", points, points)
    centers = np.stack([_plus_plus_seed(points, k, rng) for rng in rngs])
    labels, cost = _assign(points, minus_2xt, sq_points, centers)
    history = [[c] for c in cost.tolist()]
    active = np.arange(len(rngs))
    last = np.full(len(rngs), max_iter)  # the pass each restart ends after
    mark, mark_pass, span = labels.copy(), np.zeros(len(rngs), dtype=int), np.ones_like(last)
    for passes in range(1, max_iter + 1):
        labels[active], centers[active] = _update_step(points, labels[active], k)
        new_labels, cost = _assign(points, minus_2xt, sq_points, centers[active])
        for row, c in zip(active, cost.tolist()):
            history[row].append(c)
        moved = (new_labels != labels[active]).any(axis=1)
        labels[active[moved]] = new_labels[moved]
        active = active[moved]
        repeat = active[(labels[active] == mark[active]).all(axis=1)]
        period = passes - mark_pass[repeat]
        last[repeat] = np.minimum(last[repeat], passes + (max_iter - passes) % period)
        move = active[passes - mark_pass[active] == span[active]]
        mark[move], mark_pass[move], span[move] = labels[move], passes, 2 * span[move]
        ending = last[active] == passes
        if ending.any():
            done = active[ending]
            labels[done], centers[done] = _update_step(points, labels[done], k)
            active = active[~ending]
        if not active.size:
            break
    return labels, centers, history


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    restarts: int = 10,
    max_iter: int = 300,
) -> KMeansResult:
    """k-means with k-means++ seeding and multiple restarts.

    The best restart is the one with the lowest within-cluster sum of
    squares of its final labels, computed once per restart; ties keep the
    earliest restart. Restarts use generators derived from a single
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
    scores = [wcss(pts, lab, k) for lab in labels]
    best = min(range(restarts), key=scores.__getitem__)  # the earliest of ties
    return KMeansResult(
        ClusterAssignment(labels[best].copy(), k), centers[best].copy(), scores[best]
    )


def ncut(w: AdjacencyMatrix, assignment: ClusterAssignment) -> float:
    """Normalized cut value (1/2) sum_i W(A_i, comp A_i) / vol(A_i).

    A diagnostic for the quality of a partition under the kernel; lower is
    better. Empty clusters contribute zero.
    """
    if assignment.n != w.n:
        raise InvalidConfig(
            f"assignment over {assignment.n} objects against a {w.n}-node graph"
        )
    degrees = w.values.sum(axis=1)
    total = 0.0
    for j in range(assignment.k):
        inside = assignment.labels == j
        if not inside.any():
            continue
        vol = float(degrees[inside].sum())
        cross = float(w.values[np.ix_(inside, ~inside)].sum())
        total += cross / vol
    return 0.5 * total


def spectral_cluster(
    w: AdjacencyMatrix,
    k: int,
    rng: np.random.Generator,
    restarts: int = 10,
    max_iter: int = 300,
) -> SpectralResult:
    """Cluster graph nodes by k-means on the normalized spectral embedding."""
    embedding = spectral_embedding(w, k)
    basis, eigenvalues = embedding
    result = kmeans(basis, k, rng, restarts=restarts, max_iter=max_iter)
    return SpectralResult(
        assignment=result.assignment,
        embedding=basis,
        eigenvalues=eigenvalues,
        ncut=ncut(w, result.assignment),
        bandwidth_sigma=w.bandwidth_sigma,
        eigensolver=embedding.eigensolver,
    )
