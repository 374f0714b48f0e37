import re
import warnings

import numpy as np
import pytest

from conftest import random_model, two_block_adjacency
from distclust import klcluster
from distclust.errors import EmptyCluster, InvalidConfig, NumericalError
from distclust.gaussian import GaussianModel, SampleGroup, estimate_gaussians
from distclust.klcluster import (
    SEEDING_KLPP,
    SEEDING_RANDOM,
    ClusterAssignment,
    _cluster_means,
    _lloyd,
    _repair_empty,
    _sq_dist_to_means,
    center_update,
    kl_cluster,
    klpp_seed,
    kmeans,
    wcss,
)
from distclust.matrixcore import SymMatrix
from distclust.metrics import kl_divergence, kl_divergence_table, kl_factors
from distclust.spectral import spectral_embedding


def model(mean, cov) -> GaussianModel:
    return GaussianModel(np.asarray(mean, dtype=float), SymMatrix(cov))


def two_blobs(rng, per_side: int = 6, gap: float = 8.0):
    left = [
        model(rng.normal(0.0, 0.3, size=2), np.eye(2) + 0.1 * np.diag(rng.uniform(0, 1, 2)))
        for _ in range(per_side)
    ]
    right = [
        model(
            rng.normal(gap, 0.3, size=2),
            3.0 * np.eye(2) + 0.1 * np.diag(rng.uniform(0, 1, 2)),
        )
        for _ in range(per_side)
    ]
    return left + right


def kl_centers(models, result, eps_scale=1e-8):
    """A KL k-means run's centers, rebuilt from its labels."""
    assignment = result.assignment
    return center_update(kl_factors(models), assignment.labels, assignment.k, eps_scale)


def lloyd_centers(points, assignment):
    """A Lloyd's k-means run's centers, the means of its clusters."""
    return _cluster_means(points, assignment.labels[None], assignment.k)[0]


def member_list_center(members, eps_scale):
    """The KL center of ``members`` one member at a time: the mean of the
    member means a, the mean of S_i + (m_i - a)(m_i - a)^T, then the fit's
    ridge, eps_scale * tr / d, or eps_scale where the trace is 0."""
    a = np.stack([m.mean for m in members]).mean(axis=0)
    cov = np.mean([m.covariance.values + np.outer(m.mean - a, m.mean - a) for m in members], axis=0)
    trace = np.trace(cov)
    eps = eps_scale * trace / len(a) if trace > 0 else eps_scale
    return a, cov + eps * np.eye(len(a))


class TestCenterUpdate:
    def test_stacked_factors_match_member_lists_bytes(self, rng):
        for d in (1, 2, 3, 7):
            models = [random_model(d, rng, spread=4.0) for _ in range(20)]
            labels = rng.integers(0, 3, size=20)
            labels[:3] = [0, 1, 2]
            for eps_scale in (0.0, 1e-8, 0.3):
                center_means, center_covs = center_update(kl_factors(models), labels, 3, eps_scale)
                assert center_means.shape == (3, d) and center_covs.shape == (3, d, d)
                for j in range(3):
                    mean, cov = member_list_center(
                        [models[i] for i in np.flatnonzero(labels == j)], eps_scale
                    )
                    assert center_means[j].tobytes() == mean.tobytes(), (d, eps_scale, j)
                    assert center_covs[j].tobytes() == cov.tobytes(), (d, eps_scale, j)
                    assert np.array_equal(center_covs[j], center_covs[j].T)

    def test_zero_eps_scale_leaves_centers_unridged(self, rng):
        # a run's centers are the moment match of its labels, ridged by the
        # run's eps_scale, so at 0 they are the bare moment match
        models = [random_model(3, rng, spread=4.0) for _ in range(15)]
        for eps_scale in (0.0, 1e-8):
            result = kl_cluster(models, 3, np.random.default_rng(1), eps_scale=eps_scale)
            _, covs = kl_centers(models, result, eps_scale)
            for j, center_cov in enumerate(covs):
                members = [models[i] for i in np.flatnonzero(result.assignment.labels == j)]
                cov = member_list_center(members, eps_scale)[1]
                assert center_cov.tobytes() == cov.tobytes(), (eps_scale, j)

    def test_bad_eps_scale_is_a_config_error(self, rng):
        models = [random_model(2, rng) for _ in range(4)]
        for eps_scale in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidConfig, match="^eps_scale must be finite and non-negative"):
                kl_cluster(models, 2, np.random.default_rng(0), eps_scale=eps_scale)

    def test_hand_case(self):
        members = [model([0.0, 0.0], np.eye(2)), model([2.0, 0.0], np.eye(2))]
        means, covs = center_update(kl_factors(members), np.array([0, 0]), 1)
        np.testing.assert_allclose(means[0], [1.0, 0.0])
        np.testing.assert_allclose(covs[0], [[2.0, 0.0], [0.0, 1.0]])

    def test_single_member_center_is_the_member(self, rng):
        m = random_model(3, rng)
        means, covs = center_update(kl_factors([m]), np.array([0]), 1)
        np.testing.assert_allclose(means[0], m.mean)
        np.testing.assert_allclose(covs[0], m.covariance.values)

    def test_empty_cluster_raises(self, rng):
        with pytest.raises(EmptyCluster):
            center_update(kl_factors([random_model(2, rng)]), np.array([0]), 2)

    def test_center_minimizes_member_divergence(self, rng):
        # the closed form is the global minimizer of the summed KL(member ||
        # center) (Davis & Dhillon, NIPS 2006), so every perturbation of it
        # does no better: a shifted mean, a larger diagonal, and congruences
        # C -> E C E with E = exp(delta * sym), which shrink and rotate C;
        # half the members are fits to q = max(2, d) samples, ridge-only
        # for d > 1 since q - 1 < d
        for d in (1, 2, 7):
            members = [
                random_model(d, rng)
                if i % 2 == 0
                else estimate_gaussians([SampleGroup(f"g{i}", rng.standard_normal((max(2, d), d)))])[0]
                for i in range(6)
            ]
            means, covs = center_update(kl_factors(members), np.zeros(6, dtype=int), 1)
            mean, cov = means[0], covs[0]

            def objective(m, c):
                candidate = GaussianModel(m, SymMatrix(c))
                return sum(kl_divergence(member, candidate) for member in members)

            def congruence(delta):
                a = rng.standard_normal((d, d))
                w, v = np.linalg.eigh((a + a.T) / 2.0)
                e = (v * np.exp(delta * w)) @ v.T
                return e @ cov @ e

            best = objective(mean, cov)
            for delta in (1e-3, 0.05, 0.5):
                for _ in range(5):
                    shift = mean + delta * rng.standard_normal(d)
                    grown = cov + delta * np.diag(rng.uniform(0.0, 1.0, d))
                    moved = congruence(delta)
                    for m, c in ((shift, cov), (mean, grown), (mean, moved), (shift, moved)):
                        assert objective(m, c) >= best - 1e-9, (d, delta)


class TestKlppSeed:
    def test_returns_distinct_indices(self, rng):
        models = two_blobs(rng)
        idx = klpp_seed(kl_factors(models), 4, np.random.default_rng(1))
        assert len(idx) == 4 and len(set(idx)) == 4

    def test_spreads_across_separated_blobs(self, rng):
        models = two_blobs(rng, per_side=8, gap=15.0)
        sides = []
        for seed in range(30):
            idx = klpp_seed(kl_factors(models), 2, np.random.default_rng(seed))
            sides.append({i < 8 for i in idx})
        # with k=2 and far-apart blobs the two seeds should almost always
        # land on opposite sides
        both = sum(1 for s in sides if s == {True, False})
        assert both >= 27

    def test_identical_models_fall_back_to_uniform(self, rng):
        base = random_model(2, rng)
        clones = [
            GaussianModel(base.mean.copy(), SymMatrix(base.covariance.values.copy()))
            for _ in range(5)
        ]
        idx = klpp_seed(kl_factors(clones), 3, np.random.default_rng(0))
        assert len(set(idx)) == 3

    def test_deterministic(self, rng):
        models = two_blobs(rng)
        a = klpp_seed(kl_factors(models), 3, np.random.default_rng(9))
        b = klpp_seed(kl_factors(models), 3, np.random.default_rng(9))
        assert a == b

    def test_invalid_k(self, rng):
        with pytest.raises(InvalidConfig):
            klpp_seed(kl_factors([random_model(2, rng)]), 2, rng)

    @pytest.mark.parametrize("squared", [False, True])
    def test_matches_the_reference_draw(self, squared, rng):
        # blobs with repeated models, whose weights drop to rounding once a
        # copy is chosen; clones of a diagonal model, whose KL divergences
        # are exactly 0, so every draw after the first is the uniform
        # fallback; and clones whose divergences are equal rounding (about
        # 3e-15), so only the chosen ones' zero weights keep them out
        blobs = two_blobs(rng)
        exact = [model([1.0, -2.0], np.diag([1.0, 4.0])) for _ in range(6)]
        a = np.random.default_rng(1).standard_normal((3, 3))
        rounded = [model(np.zeros(3), a @ a.T + 0.5 * np.eye(3)) for _ in range(6)]
        spread = [random_model(3, rng, spread=3.0) for _ in range(25)]
        for models, k in ((blobs + blobs[:4], 6), (exact, 4), (rounded, 4), (spread, 8)):
            factors = kl_factors(models)
            for seed in range(20):
                got = klpp_seed(factors, k, np.random.default_rng(seed), squared)
                want = reference_klpp_seed(factors, k, np.random.default_rng(seed), squared)
                assert got == want, (len(models), seed)


    def test_overflowing_squared_weights_raise_a_typed_error(self):
        # KL between unit-covariance models 1e100 apart is finite (~1e200);
        # its square overflows at the first pick
        models = [model(np.full(2, v), np.eye(2)) for v in (0.0, 1e100, -1e100, 1.0)]
        factors = kl_factors(models)
        assert len(klpp_seed(factors, 3, np.random.default_rng(0))) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^restart 0, pick 1: .* sum to inf$"):
                klpp_seed(factors, 3, np.random.default_rng(0), squared=True)


def reference_klpp_seed(factors, k, rng, squared=False):
    """A frozen copy of the ++ seeding loop, independent of the program's:
    each model's KL divergence to its nearest chosen center, a fresh table
    column per pick."""
    n = len(factors["mean"])
    chosen = [int(rng.integers(n))]
    nearest = np.full(n, np.inf)
    for _ in range(1, k):
        latest = chosen[-1:]
        table = kl_divergence_table(factors, factors["mean"][latest], factors["cov"][latest])
        nearest = np.minimum(nearest, table[:, 0])
        weights = (nearest**2 if squared else nearest).copy()
        weights[chosen] = 0.0
        total = weights.sum()
        if total > 0.0:
            chosen.append(int(rng.choice(n, p=weights / total)))
        else:
            chosen.append(int(rng.choice(np.setdiff1d(np.arange(n), chosen))))
    return chosen


def reference_kl_cluster(models, k, rng, seeding, max_iter):
    """``kl_cluster``'s passes without the stop on a repeat, and its last
    update for a run that did not converge: labels, center means and
    covariances, objective history and repair passes."""
    factors = kl_factors(models)
    n = len(models)
    if seeding == SEEDING_KLPP:
        seed_idx = reference_klpp_seed(factors, k, rng)
    else:
        seed_idx = [int(i) for i in rng.choice(n, size=k, replace=False)]
    table = kl_divergence_table(factors, factors["mean"][seed_idx], factors["cov"][seed_idx])
    labels = table.argmin(axis=1)
    history, repairs = [], []
    for iteration in range(1, max_iter + 1):
        if np.bincount(labels, minlength=k).min() == 0:
            labels = _repair_empty(labels, k, lambda lab: table[np.arange(n), lab])
            repairs.append(iteration)
        means, covs = center_update(factors, labels, k)
        table = kl_divergence_table(factors, means, covs)
        new_labels = table.argmin(axis=1)
        history.append(float(table[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    else:
        # a run that did not converge ends on one last repair and update
        if np.bincount(labels, minlength=k).min() == 0:
            labels = _repair_empty(labels, k, lambda lab: table[np.arange(n), lab])
        means, covs = center_update(factors, labels, k)
    return labels, means, covs, history, repairs


class TestKlCluster:
    @pytest.mark.parametrize("seeding", [SEEDING_RANDOM, SEEDING_KLPP])
    def test_recovers_two_blobs(self, seeding, rng):
        models = two_blobs(rng)
        result = kl_cluster(models, 2, np.random.default_rng(4), seeding=seeding)
        labels = result.assignment.labels
        assert len(set(labels[:6].tolist())) == 1
        assert len(set(labels[6:].tolist())) == 1
        assert labels[0] != labels[6]
        assert result.converged

    @pytest.mark.parametrize("seeding", [SEEDING_RANDOM, SEEDING_KLPP])
    def test_ridge_only_models(self, seeding, rng):
        # fits to 3 samples in 7 dimensions are invertible only through the
        # ridge (condition numbers near 5e8); a center equal to a model must
        # still give KL 0 rather than a rounding error past the clamp
        models = [
            estimate_gaussians([SampleGroup(f"g{i}", rng.standard_normal((3, 7)))])[0]
            for i in range(12)
        ]
        for seed in range(4):
            result = kl_cluster(models, 3, np.random.default_rng(seed), seeding=seeding)
            assert np.all(np.asarray(result.objective_history) >= 0.0)

    def test_objective_non_increasing_between_repairs(self, rng):
        models = [random_model(3, rng) for _ in range(25)]
        result = kl_cluster(models, 4, np.random.default_rng(2))
        history = np.asarray(result.objective_history)
        repair_set = set(result.repair_iterations)
        for i in range(1, len(history)):
            if (i + 1) not in repair_set:
                assert history[i] <= history[i - 1] + 1e-8

    def test_deterministic(self, rng):
        models = [random_model(2, rng) for _ in range(15)]
        a = kl_cluster(models, 3, np.random.default_rng(5))
        b = kl_cluster(models, 3, np.random.default_rng(5))
        assert np.array_equal(a.assignment.labels, b.assignment.labels)
        assert a.objective_history == b.objective_history

    def test_all_clusters_populated(self, rng):
        models = [random_model(2, rng) for _ in range(12)]
        for seed in range(6):
            result = kl_cluster(models, 4, np.random.default_rng(seed))
            assert len(set(result.assignment.labels.tolist())) == 4

    def test_repairs_clusters_left_empty_by_clone_seeds(self, rng):
        # every model three times: seeds that are clones tie, argmin gives
        # each tie to the lower center, and the other cluster starts empty
        models = [random_model(3, rng) for _ in range(10)] * 3
        result = kl_cluster(models, 9, np.random.default_rng(0))
        assert result.repair_iterations
        assert len(set(result.assignment.labels.tolist())) == 9

    @pytest.mark.parametrize("seeding", [SEEDING_RANDOM, SEEDING_KLPP])
    def test_cycling_runs_match_the_full_run(self, seeding, rng):
        # more clusters than distinct models: no run converges, and each
        # repeats with period 1, 2, 4 or 6 after a few passes; it stops at
        # a pass congruent to max_iter and ends as the full run does
        base = [random_model(3, rng) for _ in range(3)]
        models = [base[i] for i in rng.integers(0, 3, 57)] + base
        for k in range(4, 9):
            for max_iter in (7, 100):
                result = kl_cluster(models, k, np.random.default_rng(k), seeding=seeding,
                                    max_iter=max_iter)
                labels, means, covs, history, repairs = reference_kl_cluster(
                    models, k, np.random.default_rng(k), seeding, max_iter
                )
                assert len(history) == max_iter and not result.converged
                assert result.assignment.labels.tobytes() == labels.tobytes()
                centers = kl_centers(models, result)
                assert centers[0].tobytes() == means.tobytes()
                assert centers[1].tobytes() == covs.tobytes()
                assert result.objective_history[-1] == history[-1]
                assert result.objective_history == tuple(history[: result.iterations])
                assert result.repair_iterations == tuple(
                    r for r in repairs if r <= result.iterations
                )
                if max_iter == 100:
                    assert result.iterations < 30

    def test_klpp_squared_changes_seeding_only(self, rng):
        models = two_blobs(rng)
        a = kl_cluster(
            models, 2, np.random.default_rng(3), seeding=SEEDING_KLPP, klpp_squared=False
        )
        b = kl_cluster(
            models, 2, np.random.default_rng(3), seeding=SEEDING_KLPP, klpp_squared=True
        )
        # both should still find the blob structure
        assert len(set(a.assignment.labels[:6].tolist())) == 1
        assert len(set(b.assignment.labels[:6].tolist())) == 1

    def test_validation(self, rng):
        models = [random_model(2, rng) for _ in range(3)]
        with pytest.raises(InvalidConfig):
            kl_cluster(models, 4, rng)
        with pytest.raises(InvalidConfig):
            kl_cluster(models, 2, rng, seeding="farthest")
        with pytest.raises(InvalidConfig):
            kl_cluster(models, 2, rng, max_iter=0)


class TestRepairEmpty:
    def test_fills_empty_cluster_from_largest_divergence(self, rng):
        models = two_blobs(rng, per_side=3)
        labels = np.array([0, 0, 0, 1, 1, 1])
        factors = kl_factors(models)
        means, covs = center_update(factors, labels, 2)
        # the third center is model 0
        table = kl_divergence_table(
            factors, np.vstack([means, factors["mean"][:1]]), np.vstack([covs, factors["cov"][:1]])
        )
        repaired = _repair_empty(labels, 3, lambda lab: table[np.arange(6), lab])
        counts = np.bincount(repaired, minlength=3)
        assert counts.min() == 1

    def test_donor_cluster_keeps_a_member(self, rng):
        models = [random_model(2, rng) for _ in range(4)]
        labels = np.array([0, 0, 1, 1])
        factors = kl_factors(models)
        table = kl_divergence_table(factors, factors["mean"], factors["cov"])
        repaired = _repair_empty(labels, 4, lambda lab: table[np.arange(4), lab])
        counts = np.bincount(repaired, minlength=4)
        assert counts.min() == 1 and counts.max() == 1


class TestClusterAssignment:
    def test_basic(self):
        a = ClusterAssignment(np.array([0, 1, 1]), 2)
        assert a.n == 3 and a.k == 2

    def test_label_range(self):
        with pytest.raises(InvalidConfig):
            ClusterAssignment(np.array([0, 2]), 2)
        with pytest.raises(InvalidConfig):
            ClusterAssignment(np.array([-1, 0]), 2)

    def test_k_bounds(self):
        with pytest.raises(InvalidConfig):
            ClusterAssignment(np.array([0]), 2)

    @pytest.mark.parametrize("labels, dtype", [
        (np.array([0.7, 1.2]), "float64"), (np.array([0.0, 1.0]), "float64"),
        (np.array([False, True]), "bool"),
    ])
    def test_rejects_labels_that_are_not_integers(self, labels, dtype):
        # casting would truncate 0.7 to 0 and read a bool as 0 or 1
        with pytest.raises(InvalidConfig, match=f"^labels must be integers, got dtype {dtype}$"):
            ClusterAssignment(labels, 2)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_any_integer_dtype_is_kept_as_int(self, dtype):
        a = ClusterAssignment(np.array([0, 1, 1], dtype=dtype), 2)
        assert a.labels.dtype == int and a.labels.tolist() == [0, 1, 1]


class TestKmeans:
    @pytest.mark.parametrize("points, shape", [
        (np.empty((0, 2)), "(0, 2)"), (np.ones(5), "(5,)"), (np.ones((3, 2, 2)), "(3, 2, 2)"),
    ])
    def test_rejects_empty_or_not_2d_points(self, points, shape):
        message = f"^points must be a non-empty 2-d array, got {re.escape(shape)}$"
        with pytest.raises(InvalidConfig, match=message):
            kmeans(points, 1, np.random.default_rng(0))

    def test_separated_blobs(self, rng):
        a = rng.normal(0.0, 0.1, size=(12, 2))
        b = rng.normal(5.0, 0.1, size=(12, 2)) + np.array([0.0, 5.0])
        points = np.vstack([a, b])
        labels = kmeans(points, 2, np.random.default_rng(3))[0].labels
        assert len(set(labels[:12])) == 1
        assert len(set(labels[12:])) == 1
        assert labels[0] != labels[12]

    def test_objective_non_increasing(self, rng):
        points = rng.standard_normal((40, 3))
        generators = [np.random.default_rng(seed) for seed in range(5)]
        _, _, history = _lloyd(points, 4, generators, 50)
        assert len(history) == 5
        for costs in history:
            assert len(costs) >= 2
            assert np.all(np.diff(costs) <= 1e-9)

    def test_wcss_is_that_of_returned_labels(self, rng):
        points = rng.standard_normal((60, 3))
        for seed in range(5):
            assignment, diagnostics = kmeans(points, 4, np.random.default_rng(seed), restarts=3)
            assert diagnostics == {"wcss": wcss(points, assignment.labels, 4)}

    def test_deterministic(self, rng):
        points = rng.standard_normal((30, 2))
        a, a_diagnostics = kmeans(points, 3, np.random.default_rng(11))
        b, b_diagnostics = kmeans(points, 3, np.random.default_rng(11))
        assert np.array_equal(a.labels, b.labels)
        assert a_diagnostics == b_diagnostics

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_sign_flipped_columns_change_nothing_but_center_signs(self, k, rng):
        # spectral_embedding imposes no eigenvector sign convention, which
        # rests on this: differences and means negate exactly
        for seed in range(5):
            points, _, _ = spectral_embedding(two_block_adjacency(20, 13, cross=0.3), k)
            points = points + 0.05 * rng.standard_normal(points.shape)
            signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
            signs[0] = -1.0
            a, a_diagnostics = kmeans(points, k, np.random.default_rng(seed))
            b, b_diagnostics = kmeans(points * signs, k, np.random.default_rng(seed))
            assert a.labels.tobytes() == b.labels.tobytes()
            assert a_diagnostics == b_diagnostics
            a_centers = lloyd_centers(points, a)
            assert (a_centers * signs).tobytes() == lloyd_centers(points * signs, b).tobytes()

    def test_no_empty_clusters(self, rng):
        for seed in range(8):
            points = rng.standard_normal((15, 2))
            assignment, _ = kmeans(points, 5, np.random.default_rng(seed))
            assert len(set(assignment.labels.tolist())) == 5

    def test_repair_moves_farthest_point(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.4, 0.0]])
        labels = np.array([0, 0, 1, 1])
        repaired = _repair_empty(labels, 3, lambda lab: _sq_dist_to_means(points, lab, 3))
        # cluster 2 was empty; the point farthest from its own center moves
        assert sorted(np.bincount(repaired, minlength=3).tolist()) == [1, 1, 2]

    def test_wcss_helper(self):
        points = np.array([[0.0], [2.0], [10.0]])
        labels = np.array([0, 0, 1])
        assert wcss(points, labels, 2) == pytest.approx(2.0)

    def test_overflowing_seed_weights_raise_a_typed_error(self):
        # every squared distance from the first center to a point at
        # +-1e200 overflows, so the weights sum to inf at the first pick
        points = np.array([[1e200], [-1e200], [0.0], [3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NumericalError, match=r"^restart 0, pick 1: \+\+ weights sum to inf$"
            ):
                kmeans(points, 2, np.random.default_rng(0))

    def test_invalid_inputs(self, rng):
        points = rng.standard_normal((4, 2))
        with pytest.raises(InvalidConfig):
            kmeans(points, 5, rng)
        with pytest.raises(InvalidConfig):
            kmeans(points, 0, rng)
        with pytest.raises(InvalidConfig):
            kmeans(points, 2, rng, restarts=0)


# Lloyd's k-means as it ran one restart at a time, with the (n, k, d)
# difference table in every assignment: the reference for the batched,
# certified code, which must match it to the byte.


def reference_plus_plus_seed(points, k, rng):
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
            pool = np.setdiff1d(np.arange(n), chosen)
            chosen.append(int(rng.choice(pool)))
    return points[chosen].copy()


def reference_assign(points, centers):
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff).argmin(axis=1)


def reference_update_step(points, labels, k):
    if np.bincount(labels, minlength=k).min() == 0:
        labels = _repair_empty(labels, k, lambda lab: _sq_dist_to_means(points, lab, k))
    centers = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
    return labels, centers


def reference_lloyd(points, k, rng, max_iter):
    centers = reference_plus_plus_seed(points, k, rng)
    labels = reference_assign(points, centers)
    converged = False
    for _ in range(max_iter):
        labels, centers = reference_update_step(points, labels, k)
        new_labels = reference_assign(points, centers)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    if not converged:
        labels, centers = reference_update_step(points, labels, k)
    return labels, centers


def reference_kmeans(points, k, rng, restarts=10, max_iter=300):
    seed_base = int(rng.integers(0, 2**63))
    best = None
    for r in range(restarts):
        labels, centers = reference_lloyd(points, k, np.random.default_rng(seed_base + r), max_iter)
        final = wcss(points, labels, k)
        if best is None or final < best[0]:
            best = (final, labels, centers)
    return best


def lloyd_problem(kind: str, d: int, rng) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal((30, d))
    if kind == "grid":  # few distinct coordinates: exact distance ties
        return rng.integers(-2, 3, (30, d)).astype(float)
    if kind == "offset":  # |x|^2 ~ 1e12 d: the GEMM form loses ~1e-4
        return rng.standard_normal((30, d)) + 1e6
    # four distinct points: k > 4 leaves clusters empty
    return np.repeat(rng.standard_normal((4, d)), 3, axis=0)


class TestLloydParity:
    """The batched restarts and the certified GEMM assignment against the
    one-restart-at-a-time reference above: labels, centers and the sum of
    squares of the chosen restart, to the byte. numpy sums a 1-d column
    pairwise where ``np.bincount`` adds in index order, so d = 1 is in."""

    KINDS = ("normal", "grid", "offset", "repeated")

    @pytest.mark.parametrize("d", [1, 2, 7])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference(self, kind, d, monkeypatch):
        repairs = []
        repair = klcluster._repair_empty
        monkeypatch.setattr(
            klcluster, "_repair_empty", lambda *args: repairs.append(1) or repair(*args)
        )
        case_rng = np.random.default_rng([self.KINDS.index(kind), d])
        for _ in range(2):
            points = lloyd_problem(kind, d, case_rng)
            n = points.shape[0]
            for k in (1, 2, 5, n):
                # more clusters than distinct points repair every pass
                for max_iter in (1, 300 if k <= 5 and kind != "repeated" else 4):
                    seed = int(case_rng.integers(2**32))
                    expected_wcss, labels, centers = reference_kmeans(
                        points, k, np.random.default_rng(seed), max_iter=max_iter
                    )
                    assignment, diagnostics = kmeans(
                        points, k, np.random.default_rng(seed), max_iter=max_iter
                    )
                    assert assignment.labels.tobytes() == labels.tobytes()
                    assert lloyd_centers(points, assignment).tobytes() == centers.tobytes()
                    assert diagnostics == {"wcss": expected_wcss}
        if kind == "repeated":
            assert repairs

    @pytest.mark.parametrize("d", [1, 2])
    def test_cycling_restarts_match_the_full_run(self, d):
        # with more clusters than distinct points each assignment undoes the
        # last repair, so no restart converges: each stops once its labels
        # repeat, at a pass congruent to max_iter, and ends as all passes would
        case_rng = np.random.default_rng([len(self.KINDS), d])
        points = lloyd_problem("repeated", d, case_rng)
        for k in (5, 12):
            for max_iter in (7, 300):
                seed = int(case_rng.integers(2**32))
                expected_wcss, labels, centers = reference_kmeans(
                    points, k, np.random.default_rng(seed), restarts=2, max_iter=max_iter
                )
                assignment, diagnostics = kmeans(
                    points, k, np.random.default_rng(seed), restarts=2, max_iter=max_iter
                )
                assert assignment.labels.tobytes() == labels.tobytes()
                assert lloyd_centers(points, assignment).tobytes() == centers.tobytes()
                assert diagnostics == {"wcss": expected_wcss}
            generators = [np.random.default_rng(seed) for seed in range(3)]
            _, _, history = _lloyd(points, k, generators, 300)
            assert max(len(costs) for costs in history) < 50

    def test_cycle_ends_on_the_labels_of_the_last_pass(self, monkeypatch):
        # stand-in steps whose one label runs 0 1 2 3 4 5 3 4 5 ...: three
        # passes of tail, then a cycle of period 3; a center holds the label
        # it was computed from, and the assignment maps it to the next label
        step = {-1: 0, 0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 3}
        monkeypatch.setattr(
            klcluster, "_plus_plus_seed",
            lambda points, k, rngs: np.full((len(rngs), k, 1), -1.0),
        )
        monkeypatch.setattr(
            klcluster,
            "_cluster_means",
            lambda points, labels, k: np.repeat(labels[:, None, :1], k, axis=1) * 1.0,
        )
        monkeypatch.setattr(
            klcluster,
            "_assign",
            lambda points, m, sq, centers: (
                np.array([[step[int(c)]] for c in centers[:, 0, 0]]),
                np.zeros(len(centers)),
            ),
        )
        for max_iter in (*range(1, 13), 300, 301):
            want = 0
            for _ in range(max_iter):
                want = step[want]
            labels, centers, history = _lloyd(np.zeros((1, 1)), 6, [None, None], max_iter)
            assert labels.tolist() == [[want], [want]], max_iter
            assert centers[:, :, 0].tolist() == [[want] * 6] * 2, max_iter
            assert len(history[0]) <= min(max_iter, 8) + 1, max_iter

    def test_grid_with_more_clusters_than_points_stops_early(self):
        # 68 points on the 25 nodes of a 5 x 5 grid, k = 28: every restart
        # cycles through repairs, and one restart matches 300 full passes
        rng = np.random.default_rng(0)
        grid = np.array([[a, b] for a in range(5) for b in range(5)], dtype=float)
        points = np.vstack([grid, grid[rng.integers(0, 25, 43)]])
        expected_wcss, labels, centers = reference_kmeans(
            points, 28, np.random.default_rng(1), restarts=1
        )
        assignment, diagnostics = kmeans(points, 28, np.random.default_rng(1), restarts=1)
        assert assignment.labels.tobytes() == labels.tobytes()
        assert lloyd_centers(points, assignment).tobytes() == centers.tobytes()
        assert diagnostics == {"wcss": expected_wcss}
        generators = [np.random.default_rng(seed) for seed in range(10)]
        _, _, history = _lloyd(points, 28, generators, 300)
        assert max(len(costs) for costs in history) < 50

    def test_seeding_matches_reference(self, rng):
        for d in (1, 3):
            points = np.round(rng.standard_normal((50, d)), 1)
            for k in (1, 4, 50):
                a = klcluster._plus_plus_seed(points, k, [np.random.default_rng(k)])[0]
                b = reference_plus_plus_seed(points, k, np.random.default_rng(k))
                assert a.tobytes() == b.tobytes()

    def test_lockstep_seeding_matches_reference_per_restart(self):
        # ten restarts drawn in one batch, each against the reference run
        # alone. Squared distances among 0, 1e-162 and 2e-162 are 0 (1e-324
        # underflows) but for the two ends (4e-324, the smallest subnormal):
        # a restart that starts on the middle point falls back to the
        # uniform draw at its first pick while the others draw by weight
        case_rng = np.random.default_rng(7)
        fuzzy = np.array([[0.0], [1e-162], [2e-162]])
        problems = [
            (fuzzy, 3),
            (lloyd_problem("repeated", 2, case_rng), 6),
            (lloyd_problem("grid", 2, case_rng), 8),
            (lloyd_problem("normal", 3, case_rng), 5),
        ]
        mixed = 0  # batches of the three points with both kinds of row
        for points, k in problems:
            for _ in range(5):
                seeds = case_rng.integers(2**32, size=10).tolist()
                got = klcluster._plus_plus_seed(
                    points, k, [np.random.default_rng(seed) for seed in seeds]
                )
                for row, seed in enumerate(seeds):
                    want = reference_plus_plus_seed(points, k, np.random.default_rng(seed))
                    assert got[row].tobytes() == want.tobytes(), (k, seed)
                if points is fuzzy:
                    middle = got[:, 0, 0] == fuzzy[1, 0]
                    mixed += bool(middle.any() and not middle.all())
        assert mixed >= 3

    def test_exact_tie_far_from_the_origin_keeps_the_first_center(self, rng):
        # the first point is exactly 2 from both centers, a distance of 4 in
        # the exact form; the GEMM form's |x|^2 ~ 1e16 rounds it to 4 and 2
        # (float64 spacing there is 2), so the row must be scored again
        a = 1e8 + 0.1
        centers = np.array([[[a - 2.0, 0.0], [a + 2.0, 0.0]]])
        points = np.vstack([[a, 0.0], rng.standard_normal((20, 2)) + [a, 0.0]])
        sq_points = np.einsum("ij,ij->i", points, points)
        labels, _ = klcluster._assign(points, -2.0 * points.T, sq_points, centers)
        expected = reference_assign(points, centers[0])
        assert labels[0, 0] == 0
        assert labels[0].tobytes() == expected.tobytes()
