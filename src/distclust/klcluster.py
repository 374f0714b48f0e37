"""k-means-style clustering directly on Gaussian models under KL divergence.

Each cluster center is itself a Gaussian. For a fixed assignment the
objective ``sum_i KL(model_i || center_{l(i)})`` is minimized by the
closed-form center

    a_j = mean of member means
    X_j = mean over members of (S_i + (m_i - a_j)(m_i - a_j)^T)

so the usual two-step iteration applies: update centers, reassign each model
to its nearest center by KL. The objective is non-increasing except across
empty-cluster repairs, which may raise it.

Seeding is either ``random`` (k distinct models drawn uniformly) or ``klpp``,
the ++-style scheme that picks each next center with probability
proportional to the model's KL divergence to its nearest chosen center
(optionally the squared divergence).

The iteration runs on stacked arrays from start to finish: ``kl_factors``
stacks and factors the models once, and every center set is a (k, d) mean
array and a (k, d, d) covariance array. The returned centers are built as
``GaussianModel`` objects once, at the end. An empty cluster is refilled by
the repair that Lloyd's k-means in ``spectral`` uses, with each model's KL
divergence to its own center as its cost.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster, InvalidConfig
from .gaussian import GaussianModel
from .matrixcore import SymMatrix
from .metrics import kl_divergence_table, kl_factors
from .spectral import ClusterAssignment, _repair_empty

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
    factors: dict, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form KL centers for the given assignment, as stacked means
    (k, d) and covariances (k, d, d).

    Averages the stacked ``mean`` and ``cov`` arrays of ``kl_factors(models)``
    over each cluster's members; each covariance gets the (X + X^T)/2 that
    ``SymMatrix`` applies. Raises EmptyCluster if any label in [0, k) has no
    members; callers are expected to repair the assignment first.
    """
    means = np.empty((k, factors["mean"].shape[1]))
    covs = np.empty((k, *factors["cov"].shape[1:]))
    for j in range(k):
        member_idx = np.flatnonzero(labels == j)
        if member_idx.size == 0:
            raise EmptyCluster(f"cluster {j} has no members")
        members = factors["mean"][member_idx]
        means[j] = members.mean(axis=0)
        dev = members - means[j]
        covs[j] = factors["cov"][member_idx].mean(axis=0) + (dev.T @ dev) / member_idx.size
    return means, (covs + covs.transpose(0, 2, 1)) / 2.0


def klpp_seed(
    factors: dict, k: int, rng: np.random.Generator, squared: bool = False
) -> list[int]:
    """++-style seeding: indices of k models chosen as initial centers.

    The models come as ``kl_factors(models)``. The first index is uniform;
    each later one is drawn with probability proportional to the model's KL
    divergence to its nearest already-chosen center (or that divergence
    squared). When every candidate has zero divergence the draw falls back
    to uniform over unchosen indices.
    """
    n = len(factors["mean"])
    if k < 1 or k > n:
        raise InvalidConfig(f"k={k} invalid for {n} models")
    chosen = [int(rng.integers(n))]
    nearest = np.full(n, np.inf)
    for _ in range(1, k):
        latest = chosen[-1:]
        table = kl_divergence_table(factors, factors["mean"][latest], factors["cov"][latest])
        nearest = np.minimum(nearest, table[:, 0])
        weights = nearest**2 if squared else nearest
        weights = weights.copy()
        weights[chosen] = 0.0
        total = weights.sum()
        if total > 0.0:
            chosen.append(int(rng.choice(n, p=weights / total)))
        else:
            pool = np.setdiff1d(np.arange(n), chosen)
            chosen.append(int(rng.choice(pool)))
    return chosen


def kl_cluster(
    models: list[GaussianModel],
    k: int,
    rng: np.random.Generator,
    seeding: str = SEEDING_RANDOM,
    max_iter: int = 100,
    klpp_squared: bool = False,
) -> KlClusterResult:
    """Cluster Gaussian models by alternating KL assignment and closed-form
    center updates until the assignment is stable."""
    n = len(models)
    if k < 1 or k > n:
        raise InvalidConfig(f"k={k} invalid for {n} models")
    if seeding not in SEEDINGS:
        raise InvalidConfig(f"unknown seeding {seeding!r}")
    if max_iter < 1:
        raise InvalidConfig("max_iter must be positive")

    factors = kl_factors(models)
    if seeding == SEEDING_KLPP:
        seed_idx = klpp_seed(factors, k, rng, squared=klpp_squared)
    else:
        seed_idx = [int(i) for i in rng.choice(n, size=k, replace=False)]
    table = kl_divergence_table(factors, factors["mean"][seed_idx], factors["cov"][seed_idx])
    labels = table.argmin(axis=1)

    history: list[float] = []
    repairs: list[int] = []
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if np.bincount(labels, minlength=k).min() == 0:
            # table still holds the divergences to the centers that left a
            # cluster empty
            labels = _repair_empty(labels, k, lambda lab: table[np.arange(n), lab])
            repairs.append(iteration)
        means, covs = center_update(factors, labels, k)
        table = kl_divergence_table(factors, means, covs)
        new_labels = table.argmin(axis=1)
        history.append(float(table[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels

    return KlClusterResult(
        assignment=ClusterAssignment(labels, k),
        centers=tuple(
            GaussianModel(means[j], SymMatrix(covs[j]), group_id=f"center_{j}") for j in range(k)
        ),
        iterations=iteration,
        converged=converged,
        objective_history=tuple(history),
        repair_iterations=tuple(repairs),
    )
