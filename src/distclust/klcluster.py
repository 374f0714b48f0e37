"""k-means-style clustering directly on Gaussian models under KL divergence.

Each cluster center is itself a Gaussian. For a fixed assignment the
objective ``sum_i KL(model_i || center_{l(i)})`` is minimized by the
closed-form center

    a_j = mean of member means
    X_j = mean over members of (S_i + (m_i - a_j)(m_i - a_j)^T)

so the usual two-step iteration applies: update centers, reassign each model
to its nearest center by KL. The objective is non-increasing except across
empty-cluster repairs, which may raise it. X_j then takes the models' own
ridge (``gaussian._ridged``), so centers over point masses stay invertible;
it moves the objective slightly, and ``eps_scale = 0`` leaves X_j exact.

Seeding is either ``random`` (k distinct models drawn uniformly) or ``klpp``,
the ++-style scheme that picks each next center with probability
proportional to the model's KL divergence to its nearest chosen center
(optionally the squared divergence). kl++ runs the lockstep ++ draw of
k-means++ in ``spectral`` as a batch of one: one uniform per pick, looked
up in the normalized cumulative weights (the inverse CDF).

The iteration is Lloyd's Bregman hard-clustering loop,
``spectral._hard_cluster``, as a batch of one, on stacked arrays:
``kl_factors`` stacks and factors the models once, and every center set is
a (k, d) mean array and a (k, d, d) covariance array. The returned centers
become ``GaussianModel`` objects once, at the end, unvalidated: the last
table already factored them. The checkpoint is the labels and the centers,
since the repair of a cluster left empty (Lloyd's repair, with each model's
KL divergence to its own center as its cost) reads the last table.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster, InvalidConfig, _check_non_negative
from .gaussian import GaussianModel, _ridged
from .matrixcore import SymMatrix, _trusted
from .metrics import kl_divergence_table, kl_factors
from .spectral import ClusterAssignment, _cluster_means, _hard_cluster, _plus_plus, _repair_empty

SEEDING_RANDOM = "random"
SEEDING_KLPP = "klpp"
SEEDINGS = (SEEDING_RANDOM, SEEDING_KLPP)


@dataclass(frozen=True, eq=False)
class KlClusterResult:
    assignment: ClusterAssignment
    centers: tuple[GaussianModel, ...]
    iterations: int
    converged: bool
    objective_history: tuple[float, ...]
    repair_iterations: tuple[int, ...]


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
    weights that overflow raise ``NumericalError``.
    """
    n = len(factors["mean"])
    if k < 1 or k > n:
        raise InvalidConfig(f"k={k} invalid for {n} models")

    def kl_to(idx):
        return kl_divergence_table(factors, factors["mean"][idx], factors["cov"][idx]).T

    return _plus_plus(n, k, [rng], kl_to, 2 if squared else 1)[0].tolist()


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

    A run that cycles stops early and ends as pass ``max_iter`` would (see
    ``spectral._hard_cluster``). A run that did not converge takes one last
    repair and center update, as a Lloyd's restart does, so its labels fill
    all k clusters. ``iterations``, ``objective_history`` and
    ``repair_iterations`` cover the passes run. Centers take the ridge of
    ``eps_scale``, the models' fit setting; 0 leaves them unridged.
    """
    n = len(models)
    if k < 1 or k > n:
        raise InvalidConfig(f"k={k} invalid for {n} models")
    if seeding not in SEEDINGS:
        raise InvalidConfig(f"unknown seeding {seeding!r}")
    if max_iter < 1:
        raise InvalidConfig("max_iter must be positive")
    _check_non_negative("eps_scale", eps_scale)

    factors = kl_factors(models)
    if seeding == SEEDING_KLPP:
        seed_idx = klpp_seed(factors, k, rng, squared=klpp_squared)
    else:
        seed_idx = [int(i) for i in rng.choice(n, size=k, replace=False)]
    means, covs = factors["mean"][seed_idx], factors["cov"][seed_idx]
    table = kl_divergence_table(factors, means, covs)
    labels = table.argmin(axis=1)[None]
    repaired = []  # whether each pass began with a repair

    def update() -> bool:
        """Repair the labels if they leave a cluster empty, then update the
        centers and their table; whether a repair ran."""
        nonlocal means, covs, table
        empty = np.bincount(labels[0], minlength=k).min() == 0
        if empty:
            # table still holds the divergences to the last centers
            labels[0] = _repair_empty(labels[0], k, lambda lab: table[np.arange(n), lab])
        means, covs = center_update(factors, labels[0], k, eps_scale)
        table = kl_divergence_table(factors, means, covs)
        return empty

    def step(rows):
        repaired.append(update())
        new_labels = table.argmin(axis=1)
        return new_labels[None], table[np.arange(n), new_labels].sum(keepdims=True)

    def state(rows):
        raw = labels.tobytes() + means.tobytes() + covs.tobytes()
        return np.tile(np.frombuffer(raw, dtype=np.uint8), (len(rows), 1))

    converged, (history,) = _hard_cluster(labels, step, state, max_iter)
    if not converged[0]:
        update()  # a run that did not converge ends as Lloyd's does
    means.flags.writeable = covs.flags.writeable = False
    return KlClusterResult(
        assignment=ClusterAssignment(labels[0], k),
        centers=tuple(
            _trusted(GaussianModel, mean=mu, covariance=_trusted(SymMatrix, values=cov),
                     group_id=f"center_{j}")
            for j, (mu, cov) in enumerate(zip(means, covs))
        ),
        iterations=len(history),
        converged=bool(converged[0]),
        objective_history=tuple(history),
        repair_iterations=tuple(p for p, r in enumerate(repaired, 1) if r),
    )
