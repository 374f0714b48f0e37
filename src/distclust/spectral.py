"""Normalized spectral clustering on a divergence matrix.

The pipeline is the standard symmetric-Laplacian one: Gaussian kernel on the
stored divergence entries, L_sym = D^{-1/2} (D - W) D^{-1/2}, embedding by
the eigenvectors of the k smallest eigenvalues with row normalization, then
k-means on embedding rows (``klcluster.kmeans``).

The kernel ``exp(-x^2 / (2 sigma^2))`` is applied to matrix entries as
stored; for the squared-Wasserstein metric the entries are already squared
distances, and ``on_sqrt=True`` switches to kernelizing their square roots
instead. The default bandwidth is the median of the strictly positive
upper-triangle entries of whichever values feed the kernel, found in one
pass over square tiles that counts every entry and gathers only those
inside a bracket from a fixed sample into one array, so the triangle is
never copied.
``kernelize`` builds the kernel in the matrix's own array when that array
is writeable, as the pipeline makes the mean-distance matrix it builds for
one run, and in a new array otherwise; a public ``DistanceMatrix`` is
read-only, so a caller's matrix is never written. So ``spectral_means``
holds one n x n array, and the divergence runs two while they kernelize.

The n x n passes run in fixed blocks of ``_BLOCK_ROWS`` rows through
``parallel.row_blocks``, on the kernel threads once there is more than one
block: the kernel's root, then the kernel's one pass, which squares,
divides, takes the exp and sums each block's rows into the degrees
(``AdjacencyMatrix.degrees``, whose finiteness is the kernel's one check),
every subspace pass's product W (r Q), |M|_F^2, and ncut's W (1 - H). Each
block writes its own rows of arrays allocated before the blocks run. The
median's pass stays on the calling thread, as the array it gathers into
may grow, which no helper thread may do. A block is the same row range at any
thread count, so no result depends on the threads.

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
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidBandwidth, InvalidConfig, InvalidMatrix, MetricNotSymmetric
from .klcluster import ClusterAssignment, kmeans
from .matrixcore import _BLOCK_ROWS, _trusted, max_asymmetry, mirror_in_place
from .metrics import DistanceMatrix
from .parallel import row_blocks

_ENTRY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Symmetric kernel matrix with unit diagonal and entries in [0, 1];
    ``kernelize`` builds its kernels already in this form, with ``degrees``,
    W's read-only row sums, which every solver and ``ncut`` read."""

    values: np.ndarray
    bandwidth_sigma: float
    degrees: np.ndarray = field(init=False, repr=False)

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
        degrees = a.sum(axis=1)
        degrees.flags.writeable = False
        object.__setattr__(self, "values", a)
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return self.values.shape[0]


# The median's bracket: the ranks _BRACKET_WIDTH sqrt(m) either side of the
# middle of the m positive entries among _SAMPLE_PAIRS drawn from a fixed
# seed, six standard deviations of the median's rank in that sample. A
# middle rank outside it widens it _WIDEN times.
_SAMPLE_PAIRS = 4096
_BRACKET_WIDTH = 3.0
_WIDEN = 4


def median_bandwidth(x: np.ndarray) -> float:
    """Median of the strictly positive upper-triangle entries, or 1.0 if
    every off-diagonal entry is zero: ``np.median``'s value, the middle
    entry or the mean of the middle pair.

    The bracket [lo, hi] comes from a sample of upper entries (Floyd &
    Rivest 1975), or is the whole positive range (0, inf] for a triangle of
    at most one row block of entries (n <= 2 _BLOCK_ROWS + 1). One pass
    counts the entries below, at and above it and gathers only those
    strictly inside, so the triangle is never copied and ties at the ends
    are never gathered. The ranks come from exact counts: the sample decides
    how much is gathered, never the value. A middle rank outside the bracket
    widens it and passes again, up to the whole range, which holds them all.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    upper = n * (n - 1) // 2
    ends = [0.0, np.inf]  # the sorted positive sample between the open ends
    drawn = 0
    if upper > _BLOCK_ROWS * n:
        sample = _sample_upper(x)
        drawn = sample.size
        ends[1:1] = np.sort(sample[sample > 0.0]).tolist()
    middle = len(ends) // 2
    reach = max(1, int(_BRACKET_WIDTH * math.sqrt(len(ends) - 2)))
    while True:
        a, b = max(middle - reach, 0), min(middle + reach, len(ends) - 1)
        lo, hi = ends[a], ends[b]
        # room for the share of the sample strictly inside the bracket and a
        # quarter more, or for every entry of a triangle that was not sampled
        inside = max(0, bisect.bisect_left(ends, hi, a, b) - bisect.bisect_right(ends, lo, a, b))
        room = min(upper, int(1.25 * inside * upper / drawn)) if drawn else upper
        size, above_lo, at_lo, above_hi, found = _bracket_pass(x, lo, hi, room)
        if size == 0:
            return 1.0
        ranks = [size // 2] if size % 2 else [size // 2 - 1, size // 2]
        start = size - above_lo  # the rank of the lowest gathered entry
        if start - at_lo <= ranks[0] and ranks[-1] < size - above_hi:
            break
        reach *= _WIDEN
    inside = [r - start for r in ranks if start <= r < start + found.size]
    values = [lo] * sum(r < start for r in ranks) + (_ranked(found, inside) if inside else [])
    values += [hi] * (len(ranks) - len(values))
    # np.median's mean of the middle pair, (a + b) / 2
    return float(values[0] if len(values) == 1 else (values[0] + values[1]) / 2)


def _ranked(found: np.ndarray, ranks: list) -> list:
    """The entries of ``found`` at one or two consecutive ascending ranks;
    ``found`` is partitioned in place."""
    top = ranks[-1]
    found.partition(top)  # one kth: numpy partitions for two kth ~5x slower
    return [found[:top].max(), found[top]] if len(ranks) == 2 else [found[top]]


def _sample_upper(x: np.ndarray) -> np.ndarray:
    """The upper entries of ``x`` at _SAMPLE_PAIRS pairs drawn from a fixed
    seed, those with i = j dropped."""
    i, j = np.random.default_rng(0).integers(x.shape[0], size=(2, _SAMPLE_PAIRS))
    return x[np.minimum(i, j)[i != j], np.maximum(i, j)[i != j]]


def _upper_parts(x: np.ndarray):
    """A square array's upper-triangle entries in square tiles of
    _BLOCK_ROWS, one row block at a time: the block's part of the diagonal
    tile as a 1-d copy, then the tiles right of it as views. Tiles keep a
    pass's masks and gathered pieces small beside what it gathers."""
    n = x.shape[0]
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        yield x[s:e, s:e][~np.tri(e - s, dtype=bool)]
        for c in range(e, n, _BLOCK_ROWS):
            yield x[s:e, c:c + _BLOCK_ROWS]


def _bracket_pass(x: np.ndarray, lo: float, hi: float, room: int) -> tuple:
    """How many upper entries of ``x`` are positive, above lo, equal to lo
    and above hi, and those strictly between lo and hi, gathered, in one
    pass. An open end, lo = 0 or hi = inf, skips its counts: every positive
    entry is above 0, and none is above inf, so inf entries are gathered.

    The entries are gathered into one array of ``room`` entries, which
    doubles if they outgrow it."""
    size = above_lo = at_lo = above_hi = used = 0
    found = np.empty(room)
    for part in _upper_parts(x):
        keep = part > lo
        above_lo += np.count_nonzero(keep)
        if lo > 0.0:
            size += np.count_nonzero(part > 0.0)
            at_lo += np.count_nonzero(part == lo)
        if hi < np.inf:
            above_hi += np.count_nonzero(part > hi)
            keep &= part < hi
        piece = part[keep]
        if used + piece.size > found.size:
            grown = np.empty(2 * (used + piece.size))
            grown[:used] = found[:used]
            found = grown
        found[used:used + piece.size] = piece
        used += piece.size
    return (size if lo > 0.0 else above_lo), above_lo, at_lo, above_hi, found[:used]


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

    W is built in one array, in row blocks on the kernel threads: the root
    (for ``on_sqrt``), then one pass that squares, divides by -2 sigma^2,
    takes the exp and sums the rows into the degrees, which are finite
    exactly when W is (a nan entry carries into its row's sum). The median's
    one pass, between the root and the square, runs on the calling thread.
    That array is ``dm.values`` itself when it is writeable, which hands the
    matrix over to W and leaves ``dm`` holding the kernel, read-only; for a
    read-only matrix, as every public ``DistanceMatrix`` is, it is a new one
    and ``dm`` is left as it was.
    """
    if not dm.is_symmetric:
        raise MetricNotSymmetric(
            f"metric {dm.metric!r} is asymmetric; kernel needs a symmetric matrix"
        )
    x = dm.values
    n = len(x)
    w = x if x.flags.writeable else np.empty_like(x)
    if on_sqrt:
        row_blocks(n, lambda s, e: np.sqrt(x[s:e], out=w[s:e]))
        x = w
    if sigma is None:
        sigma = median_bandwidth(x)
    divisor = -_kernel_scale(sigma)
    degrees = np.empty(n)

    def kernel(s, e):
        # exp(x**2 / -(2 sigma^2)), the bits of exp(-(x**2) / (2 sigma^2));
        # an underflowed scale makes 0/0 here, which the check reports
        rows = w[s:e]
        np.square(x[s:e], out=rows)
        rows /= divisor
        np.exp(rows, out=rows)
        np.fill_diagonal(rows[:, s:e], 1.0)
        np.sum(rows, axis=1, out=degrees[s:e])

    with np.errstate(divide="ignore", invalid="ignore"):
        row_blocks(n, kernel)
    if not np.isfinite(degrees).all():
        raise InvalidMatrix("adjacency entries must be finite")
    w.flags.writeable = False
    degrees.flags.writeable = False
    return _trusted(AdjacencyMatrix, values=w, bandwidth_sigma=float(sigma), degrees=degrees)


def normalized_laplacian(w: AdjacencyMatrix) -> np.ndarray:
    """Symmetric normalized Laplacian D^{-1/2} (D - W) D^{-1/2}.

    Degrees are at least 1 because the kernel diagonal is 1, so the scaling
    is always defined. (w_ij r_i) r_j is not exactly symmetric, and ``eigh``
    reads one triangle, so the result is symmetrized as (L + L^T)/2. The
    product is built in the result's own array, whose negation is exact.
    """
    inv_root = 1.0 / np.sqrt(w.degrees)
    lap = np.multiply(w.values, inv_root[:, None], out=np.empty_like(w.values))
    lap *= inv_root[None, :]
    np.negative(lap, out=lap)
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
_EPS = np.finfo(float).eps
# rows of W squared at a time for |M|_F^2: 32 n floats of scratch per thread
_SQUARED_ROWS = 32


def _product(w: AdjacencyMatrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """W @ x into ``out``, one GEMM per row block. A block small enough for
    the BLAS's small-matrix kernel can round differently from the whole
    product, but the blocks are the same at every thread count."""
    row_blocks(w.n, lambda s, e: np.matmul(w.values[s:e], x, out=out[s:e]))
    return out


def _frobenius_sq(w: AdjacencyMatrix, r: np.ndarray) -> float:
    """|M|_F^2 = sum_i r_i^2 sum_j W_ij^2 r_j^2 for M = r W r, in row blocks,
    their squares taken _SQUARED_ROWS rows at a time in a thread's scratch,
    so no n x n temporary is built. The blocks' terms are added in block
    order, so the sum does not depend on the threads."""
    n = w.n
    r2 = np.square(r[:, 0])

    def block(s, e, buffer):
        sums = np.empty(e - s)
        for c in range(s, e, _SQUARED_ROWS):
            f = min(c + _SQUARED_ROWS, e)
            squares = np.square(w.values[c:f], out=buffer[: (f - c) * n].reshape(f - c, n))
            np.matmul(squares, r2, out=sums[c - s : f - s])
        return float(r2[s:e] @ sums)

    total = 0.0
    for term in row_blocks(n, block, scratch=_SQUARED_ROWS * n):
        total += term
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
    r = (1.0 / np.sqrt(w.degrees))[:, None]
    start = np.random.default_rng(0).standard_normal((n, _block_columns(k)))
    q, _ = np.linalg.qr(start)
    mq = np.empty_like(q)  # every pass's M Q, in turn
    worst = []  # largest residual of every pass
    for passes in range(1, _MAX_PASSES + 1):
        _product(w, r * q, mq)
        mq *= r
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
    cut = (_product(w, 1.0 - h, np.empty_like(h)) * h).sum(axis=0)
    vol = w.degrees @ h
    present = h.any(axis=0)
    return 0.5 * float((cut[present] / vol[present]).sum())


def spectral_cluster(
    w: AdjacencyMatrix,
    k: int,
    rng: np.random.Generator,
    restarts: int = 10,
    max_iter: int = 300,
) -> tuple[ClusterAssignment, dict]:
    """Cluster graph nodes by k-means on the normalized spectral embedding:
    the labels, and ``{"bandwidth_sigma", "ncut", "eigensolver"}``, the
    kernel's bandwidth, the labels' normalized cut and the solver that
    found the embedding (``"subspace"`` or ``"dense"``)."""
    basis, _, eigensolver = spectral_embedding(w, k)
    assignment, _ = kmeans(basis, k, rng, restarts=restarts, max_iter=max_iter)
    return assignment, {
        "bandwidth_sigma": w.bandwidth_sigma,
        "ncut": ncut(w, assignment),
        "eigensolver": eigensolver,
    }
