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

k-means runs Lloyd's iteration from k-means++ seeds with restarts. Each
restart's Lloyd loop tracks only the assignment cost it already computes;
the within-cluster sum of squares that picks the best restart is evaluated
once per restart, on its final labels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBandwidth,
    InvalidConfig,
    InvalidMatrix,
    MetricNotSymmetric,
)
from .matrixcore import SymMatrix, max_asymmetry, mirror_in_place, sym_eigen
from .metrics import DistanceMatrix

_ENTRY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Symmetric kernel matrix with unit diagonal and entries in [0, 1]."""

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


def median_bandwidth(x: np.ndarray) -> float:
    """Median of the strictly positive upper-triangle entries, or 1.0 if
    every off-diagonal entry is zero."""
    positive = x[np.triu(x > 0.0, 1)]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def kernelize(
    dm: DistanceMatrix, sigma: float | None = None, on_sqrt: bool = False
) -> AdjacencyMatrix:
    """Gaussian kernel W = exp(-x^2 / (2 sigma^2)) over a distance matrix.

    Rejects asymmetric (kl) matrices. When sigma is omitted it defaults to
    the median heuristic over the kernelized values.
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
    # exp(-(x**2) / (2 sigma^2)), one operation at a time in one array
    w = np.square(x)
    np.negative(w, out=w)
    w /= 2.0 * sigma**2
    np.exp(w, out=w)
    np.fill_diagonal(w, 1.0)
    return AdjacencyMatrix(w, float(sigma))


def normalized_laplacian(w: AdjacencyMatrix) -> SymMatrix:
    """Symmetric normalized Laplacian D^{-1/2} (D - W) D^{-1/2}.

    Degrees are strictly positive because the kernel diagonal is 1, so the
    scaling is always defined.
    """
    degrees = w.values.sum(axis=1)
    inv_root = 1.0 / np.sqrt(degrees)
    lap = -(w.values * inv_root[:, None]) * inv_root[None, :]
    np.fill_diagonal(lap, 1.0 + np.diagonal(lap))
    return SymMatrix(lap)


def spectral_embedding(w: AdjacencyMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the k bottom eigenvectors of L_sym, row-normalized.

    Returns (embedding, eigenvalues) where eigenvalues are the k smallest.
    All-zero rows are left at zero rather than divided.
    """
    if k < 1 or k > w.n:
        raise InvalidConfig(f"k={k} invalid for {w.n} objects")
    eig = sym_eigen(normalized_laplacian(w))
    basis = eig.eigenvectors[:, :k].copy()
    norms = np.linalg.norm(basis, axis=1)
    keep = norms > 0.0
    basis[keep] /= norms[keep, None]
    return basis, eig.eigenvalues[:k].copy()


def _plus_plus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ center choice: squared-distance-weighted sampling."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        diff = points[:, None, :] - points[chosen][None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1)
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


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest-center labels, and the summed squared distance of every point
    to its nearest center."""
    diff = points[:, None, :] - centers[None, :, :]
    table = np.einsum("ijk,ijk->ij", diff, diff)
    labels = table.argmin(axis=1)
    return labels, float(table[np.arange(len(labels)), labels].sum())


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
    if np.bincount(labels, minlength=k).min() == 0:
        labels = _repair_empty(labels, k, lambda lab: _sq_dist_to_means(points, lab, k))
    centers = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
    return labels, centers


def _lloyd(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """One restart: labels, centers, and the assignment cost after every
    assignment step. Lloyd's iteration never raises that cost; an
    empty-cluster repair lowers it too."""
    centers = _plus_plus_seed(points, k, rng)
    labels, cost = _assign(points, centers)
    history = [cost]
    converged = False
    for _ in range(max_iter):
        labels, centers = _update_step(points, labels, k)
        new_labels, cost = _assign(points, centers)
        history.append(cost)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    if not converged:
        labels, centers = _update_step(points, labels, k)
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
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for r in range(restarts):
        sub = np.random.default_rng(seed_base + r)
        labels, centers, _ = _lloyd(pts, k, sub, max_iter)
        final = wcss(pts, labels, k)
        if best is None or final < best[0]:
            best = (final, labels, centers)
    return KMeansResult(ClusterAssignment(best[1], k), best[2], best[0])


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
    basis, eigenvalues = spectral_embedding(w, k)
    result = kmeans(basis, k, rng, restarts=restarts, max_iter=max_iter)
    return SpectralResult(
        assignment=result.assignment,
        embedding=basis,
        eigenvalues=eigenvalues,
        ncut=ncut(w, result.assignment),
        bandwidth_sigma=w.bandwidth_sigma,
    )
