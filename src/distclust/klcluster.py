"""k-means: Lloyd's on points, and KL k-means directly on Gaussian models.

Both are Bregman hard clustering (Banerjee, Merugu, Dhillon & Ghosh, JMLR
2005) with a different divergence, and run in one loop, ``_hard_cluster``:
the convergence test, the ``max_iter`` cap, Brent's cycle stop and one
update step, which repairs a cluster left empty (``_repair_empty``, with
the caller's cost) and then updates the centers. A run that did not
converge takes one last update step, so its labels fill all k clusters.

Lloyd's k-means (``kmeans``) runs all restarts in lockstep, from seeding to
scoring. The k-means++ draw seeds every restart at once on (restarts, n)
arrays: each pick takes one uniform from each restart's generator and looks
it up in that restart's normalized cumulative weights (the inverse CDF),
the index ``Generator.choice`` with those probabilities would return. In
each assignment one batched GEMM scores every restart's centers, and rows
that its rounding could misorder are scored again in the exact difference
form, so the labels are those of one restart run alone. The within-cluster
sums of squares that pick the best restart are scored for every restart in
one pass, over points sorted by (restart, label). Eigenvector signs of a
spectral embedding do not matter: negating a column negates every
difference, product and mean exactly, so seeds, labels and sums of squares
do not change.

KL k-means (``kl_cluster``; Davis & Dhillon, NIPS 2006) makes each center a
Gaussian. For a fixed assignment ``sum_i KL(model_i || center_{l(i)})`` is
minimized by the closed-form center

    a_j = mean of member means
    X_j = mean over members of (S_i + (m_i - a_j)(m_i - a_j)^T)

so the objective is non-increasing except across repairs, which may raise
it. X_j then takes the models' own ridge (``gaussian._ridged``), so centers
over point masses stay invertible; ``eps_scale = 0`` leaves X_j exact.
Seeding is ``random`` (k distinct models drawn uniformly) or ``klpp``, the
++ draw as a batch of one, weighted by each model's KL divergence to its
nearest chosen center (optionally squared). A run is a batch of one on
stacked arrays: ``kl_factors`` stacks and factors the models once, and the
centers are a (k, d) mean array and a (k, d, d) covariance array, which
``center_update`` rebuilds from the returned labels. The checkpoint is the
labels and the centers, since the repair, with each model's KL divergence
to its own center as its cost, reads the last table.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster, InvalidConfig, NumericalError, _check_non_negative
from .gaussian import GaussianModel, _ridged
from .metrics import _kl_columns, kl_divergence_table, kl_factors

SEEDING_RANDOM = "random"
SEEDING_KLPP = "klpp"
SEEDINGS = (SEEDING_RANDOM, SEEDING_KLPP)

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _check_k(k: int, n: int, items: str, max_iter: int = 1) -> None:
    """InvalidConfig unless 1 <= k <= n and max_iter is positive."""
    if k < 1 or k > n:
        raise InvalidConfig(f"k={k} invalid for {n} {items}")
    if max_iter < 1:
        raise InvalidConfig("max_iter must be positive")


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Integer labels in [0, k) for n objects."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 1 or lab.size < 1:
            raise InvalidConfig("labels must be a non-empty 1-d array")
        if not np.issubdtype(lab.dtype, np.integer):
            raise InvalidConfig(f"labels must be integers, got dtype {lab.dtype}")
        lab = np.array(lab, dtype=int)
        _check_k(self.k, lab.size, "objects")
        if lab.min() < 0 or lab.max() >= self.k:
            raise InvalidConfig(f"labels must lie in [0, {self.k})")
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True, eq=False)
class KlClusterResult:
    assignment: ClusterAssignment
    iterations: int
    converged: bool
    objective_history: tuple[float, ...]
    repair_iterations: tuple[int, ...]


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


def _repair_empty(labels: np.ndarray, k: int, own_cost) -> np.ndarray:
    """Move the point of largest cost into each empty cluster, stealing only
    from clusters that keep at least one member. ``own_cost(labels)`` gives
    every point's cost under its label in ``labels``; it is asked again after
    each move."""
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


def _update_step(labels: np.ndarray, rows: np.ndarray, k: int, own_cost, update) -> np.ndarray:
    """The update step of both k-means: repair each of the label rows
    ``rows`` (of ``labels``, R x n, in place) that leaves a cluster empty,
    by ``_repair_empty`` with ``own_cost``, then ``update(rows)`` their
    centers from their labels. The rows repaired."""
    r = len(rows)
    cells = (labels[rows] + k * np.arange(r)[:, None]).ravel()
    repaired = rows[np.bincount(cells, minlength=r * k).reshape(r, k).min(axis=1) == 0]
    for row in repaired:
        labels[row] = _repair_empty(labels[row], k, own_cost)
    update(rows)
    return repaired


def _hard_cluster(
    labels: np.ndarray, k: int, own_cost, update, assign, state, max_iter: int
) -> tuple[np.ndarray, list, list]:
    """Bregman hard clustering (Banerjee, Merugu, Dhillon & Ghosh 2005) of R
    runs in lockstep from their label rows (R, n), updated in place: whether
    each run converged, its cost after every pass it ran, and the passes
    that began with a repair.

    A pass of the runs ``rows`` is ``_update_step`` (the repair, with
    ``own_cost``, and ``update(rows)``), then ``assign(rows)``, which returns
    their new labels and costs. A run converges when a pass leaves its
    labels unchanged, and ends after ``max_iter`` passes otherwise.
    ``state(rows)`` copies each run's row of what its next pass reads, so
    once that equals the state of p passes earlier the run repeats with
    period p, as when k exceeds the number of distinct points and each
    assignment undoes the last repair. It then stops at the first pass
    congruent to ``max_iter`` modulo p, which ends as pass ``max_iter``
    would. Brent's method finds the repeat: the state is compared with a
    checkpoint that moves to the current pass each time the passes since it
    reach a power of two, so a cycle shows within about twice its start plus
    its period. A run that did not converge takes one last update step, so
    its labels fill all k clusters and its centers are theirs.
    """
    runs = len(labels)
    history = [[] for _ in range(runs)]
    repairs = [[] for _ in range(runs)]
    converged = np.zeros(runs, dtype=bool)
    active = np.arange(runs)
    last = np.full(runs, max_iter)  # the pass each run ends after
    mark, mark_pass, span = state(active), np.zeros_like(last), np.ones_like(last)
    for passes in range(1, max_iter + 1):
        for row in _update_step(labels, active, k, own_cost, update):
            repairs[row].append(passes)
        new_labels, cost = assign(active)
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
    ended = np.flatnonzero(~converged)
    if ended.size:
        _update_step(labels, ended, k, own_cost, update)
    return converged, history, repairs


def _plus_plus_seed(points: np.ndarray, k: int, rngs) -> np.ndarray:
    """k-means++ center choice, sampling weighted by squared distance: the
    (R, k, d) center sets of R restarts, one per generator, drawn in
    lockstep."""

    def squared_distances_to(idx):
        diff = points - points[idx][:, None, :]
        return np.einsum("rnd,rnd->rn", diff, diff)

    return points[_plus_plus(points.shape[0], k, rngs, squared_distances_to, 1)]


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


def _lloyd(
    points: np.ndarray, k: int, rngs: list[np.random.Generator], max_iter: int
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Lloyd's iteration for one restart per generator, in lockstep through
    ``_hard_cluster``: labels (R, n), centers (R, k, d), and each restart's
    cost after every assignment, from the GEMM distances. Lloyd's iteration
    never raises that cost (up to their rounding); a repair lowers it too.
    A pass's labels are a function of the labels before it (repair, means,
    assignment), so they are the checkpoint.
    """
    minus_2xt = -2.0 * points.T
    sq_points = np.einsum("ij,ij->i", points, points)
    centers = _plus_plus_seed(points, k, rngs)
    labels, cost = _assign(points, minus_2xt, sq_points, centers)

    def update(rows):
        centers[rows] = _cluster_means(points, labels[rows], k)

    _, history, _ = _hard_cluster(
        labels,
        k,
        lambda lab: _sq_dist_to_means(points, lab, k),
        update,
        lambda rows: _assign(points, minus_2xt, sq_points, centers[rows]),
        lambda rows: labels[rows],
        max_iter,
    )
    return labels, centers, [[c, *costs] for c, costs in zip(cost.tolist(), history)]


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    restarts: int = 10,
    max_iter: int = 300,
) -> tuple[ClusterAssignment, dict]:
    """k-means with k-means++ seeding and multiple restarts: the labels of
    the best restart, and ``{"wcss": ...}``, their within-cluster sum of
    squares. The restart's centers are the means of its clusters,
    ``_cluster_means(points, labels[None], k)[0]``.

    The best restart is the one with the lowest within-cluster sum of
    squares of its final labels, scored for all restarts in one pass; ties
    keep the earliest restart. Restarts use generators derived from a single
    base seed drawn from ``rng``, so results depend only on the incoming
    generator state.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidConfig(f"points must be a non-empty 2-d array, got {pts.shape}")
    _check_k(k, pts.shape[0], "points", max_iter)
    if restarts < 1:
        raise InvalidConfig("restarts must be positive")
    seed_base = int(rng.integers(0, 2**63))
    subs = [np.random.default_rng(seed_base + r) for r in range(restarts)]
    labels, centers, _ = _lloyd(pts, k, subs, max_iter)
    scores = _restart_wcss(pts, labels, centers).tolist()
    best = min(range(restarts), key=scores.__getitem__)  # the earliest of ties
    return ClusterAssignment(labels[best], k), {"wcss": scores[best]}


def center_update(
    factors: dict, labels: np.ndarray, k: int, eps_scale: float = 1e-8
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form KL centers for the given assignment, as stacked means
    (k, d) and covariances (k, d, d).

    One pass over ``kl_factors(models)``: a_j is the members' mean of m_i
    and X_j their mean of the exactly symmetric S_i + (m_i - a_j)(m_i -
    a_j)^T, both as ``np.mean`` gives them; X_j then takes the fit's ridge
    (``gaussian._ridged``). Raises
    EmptyCluster if any label in [0, k) has no members; callers are
    expected to repair the assignment first.
    """
    counts = np.bincount(labels, minlength=k)
    if counts.min() == 0:
        raise EmptyCluster(f"cluster {int(counts.argmin())} has no members")
    means = _cluster_means(factors["mean"], labels[None], k)[0]
    dev = factors["mean"] - means[labels]
    scatter = factors["cov"] + dev[:, :, None] * dev[:, None, :]
    return means, _ridged(_cluster_means(scatter, labels[None], k)[0], eps_scale)


def klpp_seed(
    factors: dict, k: int, rng: np.random.Generator, squared: bool = False
) -> list[int]:
    """++-style seeding: indices of k models chosen as initial centers.

    The models come as ``kl_factors(models)``. The first index is uniform;
    each later one is drawn with probability proportional to the model's KL
    divergence to its nearest already-chosen center (or that divergence
    squared). When every candidate has zero divergence the draw falls back
    to uniform over unchosen indices. Each pick takes one ``rng.random()``
    and the inverse CDF of the weights, as ``rng.choice(n, p=...)`` would;
    weights that overflow raise ``NumericalError``. A pick's divergences
    are ``_seed_table``'s.
    """
    n = len(factors["mean"])
    _check_k(k, n, "models")
    picks = _plus_plus(n, k, [rng], lambda idx: _seed_table(factors, idx).T, 2 if squared else 1)
    return picks[0].tolist()


def _seed_table(factors: dict, idx) -> np.ndarray:
    """KL(model i || model idx[j]) for ``kl_factors`` ``factors``, the
    models at ``idx`` as centers: their factors are read from the stack,
    where each equals the one ``kl_divergence_table`` would take of that
    model alone, so this is that table's bits without factoring them again.
    """
    seeds = {key: v[idx] for key, v in factors.items()}
    return _kl_columns(factors, seeds, lambda i, j: f"model {i}, center {j}")


def kl_cluster(
    models: list[GaussianModel],
    k: int,
    rng: np.random.Generator,
    seeding: str = SEEDING_RANDOM,
    max_iter: int = 100,
    klpp_squared: bool = False,
    eps_scale: float = 1e-8,
) -> KlClusterResult:
    """Cluster Gaussian models by alternating KL assignment and closed-form
    center updates until the assignment is stable, or for ``max_iter``
    passes.

    A run that cycles stops early and ends as pass ``max_iter`` would, and
    a run that did not converge takes one last repair and center update, as
    a Lloyd's restart does (see ``_hard_cluster``). ``iterations``,
    ``objective_history`` and ``repair_iterations`` cover the passes run.
    Centers take the ridge of ``eps_scale``, the models' fit setting; 0
    leaves them unridged. They are ``center_update(kl_factors(models),
    labels, k, eps_scale)`` of the returned labels.
    """
    n = len(models)
    _check_k(k, n, "models", max_iter)
    if seeding not in SEEDINGS:
        raise InvalidConfig(f"unknown seeding {seeding!r}")
    _check_non_negative("eps_scale", eps_scale)

    factors = kl_factors(models)
    if seeding == SEEDING_KLPP:
        seed_idx = klpp_seed(factors, k, rng, squared=klpp_squared)
    else:
        seed_idx = [int(i) for i in rng.choice(n, size=k, replace=False)]
    means, covs = factors["mean"][seed_idx], factors["cov"][seed_idx]
    table = _seed_table(factors, seed_idx)
    labels = table.argmin(axis=1)[None]
    objects = np.arange(n)

    def update(rows):
        nonlocal means, covs, table
        means, covs = center_update(factors, labels[0], k, eps_scale)
        table = kl_divergence_table(factors, means, covs)

    def assign(rows):
        new_labels = table.argmin(axis=1)
        return new_labels[None], table[objects, new_labels].sum(keepdims=True)

    def state(rows):
        raw = labels.tobytes() + means.tobytes() + covs.tobytes()
        return np.tile(np.frombuffer(raw, dtype=np.uint8), (len(rows), 1))

    converged, (history,), (repairs,) = _hard_cluster(
        labels, k, lambda lab: table[objects, lab], update, assign, state, max_iter
    )
    return KlClusterResult(
        assignment=ClusterAssignment(labels[0], k),
        iterations=len(history),
        converged=bool(converged[0]),
        objective_history=tuple(history),
        repair_iterations=tuple(repairs),
    )
