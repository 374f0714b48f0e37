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
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster, InvalidConfig
from .gaussian import GaussianModel
from .matrixcore import SymMatrix
from .metrics import kl_divergence_table, kl_factors
from .spectral import ClusterAssignment

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
    models: list[GaussianModel],
    labels: np.ndarray,
    k: int,
    model_factors: dict | None = None,
) -> list[GaussianModel]:
    """Closed-form KL centers for the given assignment.

    Averages the models' stacked means and covariances; ``model_factors``
    from ``kl_factors(models)`` already holds those stacks. Raises
    EmptyCluster if any label in [0, k) has no members; callers are
    expected to repair the assignment first.
    """
    if model_factors is None:
        model_factors = {
            "mean": np.stack([m.mean for m in models]),
            "cov": np.stack([m.covariance.values for m in models]),
        }
    centers = []
    for j in range(k):
        member_idx = np.flatnonzero(labels == j)
        if member_idx.size == 0:
            raise EmptyCluster(f"cluster {j} has no members")
        means = model_factors["mean"][member_idx]
        a = means.mean(axis=0)
        dev = means - a
        x = model_factors["cov"][member_idx].mean(axis=0) + (dev.T @ dev) / member_idx.size
        centers.append(GaussianModel(a, SymMatrix(x), group_id=f"center_{j}"))
    return centers


def klpp_seed(
    models: list[GaussianModel],
    k: int,
    rng: np.random.Generator,
    squared: bool = False,
    model_factors: dict | None = None,
) -> list[int]:
    """++-style seeding: indices of k models chosen as initial centers.

    The first index is uniform; each later one is drawn with probability
    proportional to the model's KL divergence to its nearest already-chosen
    center (or that divergence squared). When every candidate has zero
    divergence the draw falls back to uniform over unchosen indices.
    """
    n = len(models)
    if k < 1 or k > n:
        raise InvalidConfig(f"k={k} invalid for {n} models")
    if model_factors is None:
        model_factors = kl_factors(models)
    chosen = [int(rng.integers(n))]
    nearest = np.full(n, np.inf)
    for _ in range(1, k):
        latest = kl_divergence_table(
            models, [models[chosen[-1]]], model_factors=model_factors
        )[:, 0]
        nearest = np.minimum(nearest, latest)
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


def _repair_empty(
    models: list[GaussianModel],
    labels: np.ndarray,
    k: int,
    centers: list[GaussianModel],
    model_factors: dict,
) -> np.ndarray:
    """Move the model farthest from its own center into each empty cluster,
    taking donors only from clusters that keep at least one member."""
    labels = labels.copy()
    table = kl_divergence_table(models, centers, model_factors=model_factors)
    for empty in range(k):
        counts = np.bincount(labels, minlength=k)
        if counts[empty] > 0:
            continue
        own = table[np.arange(len(models)), labels].copy()
        own[counts[labels] < 2] = -np.inf
        donor = int(own.argmax())
        if not np.isfinite(own[donor]):
            break
        labels[donor] = empty
    return labels


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

    model_factors = kl_factors(models)
    if seeding == SEEDING_KLPP:
        seed_idx = klpp_seed(
            models, k, rng, squared=klpp_squared, model_factors=model_factors
        )
    else:
        seed_idx = [int(i) for i in rng.choice(n, size=k, replace=False)]
    centers = [models[i] for i in seed_idx]
    labels = kl_divergence_table(models, centers, model_factors=model_factors).argmin(
        axis=1
    )

    history: list[float] = []
    repairs: list[int] = []
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if np.bincount(labels, minlength=k).min() == 0:
            labels = _repair_empty(models, labels, k, centers, model_factors)
            repairs.append(iteration)
        centers = center_update(models, labels, k, model_factors)
        table = kl_divergence_table(models, centers, model_factors=model_factors)
        new_labels = table.argmin(axis=1)
        history.append(float(table[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels

    return KlClusterResult(
        assignment=ClusterAssignment(labels, k),
        centers=tuple(centers),
        iterations=iteration,
        converged=converged,
        objective_history=tuple(history),
        repair_iterations=tuple(repairs),
    )
