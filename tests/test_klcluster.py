import numpy as np
import pytest

from conftest import random_model
from distclust.errors import EmptyCluster, InvalidConfig
from distclust.gaussian import GaussianModel, SampleGroup, estimate_gaussian
from distclust.klcluster import (
    SEEDING_KLPP,
    SEEDING_RANDOM,
    center_update,
    kl_cluster,
    klpp_seed,
)
from distclust.matrixcore import SymMatrix
from distclust.metrics import kl_divergence, kl_divergence_table, kl_factors
from distclust.spectral import _repair_empty


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


class TestCenterUpdate:
    def test_stacked_factors_match_member_lists_bytes(self, rng):
        models = [random_model(3, rng, spread=4.0) for _ in range(20)]
        labels = rng.integers(0, 3, size=20)
        labels[:3] = [0, 1, 2]
        center_means, center_covs = center_update(kl_factors(models), labels, 3)
        assert center_means.shape == (3, 3) and center_covs.shape == (3, 3, 3)
        for j in range(3):
            members = [models[i] for i in np.flatnonzero(labels == j)]
            means = np.stack([m.mean for m in members])
            dev = means - means.mean(axis=0)
            cov = np.mean([m.covariance.values for m in members], axis=0) + (dev.T @ dev) / len(members)
            assert center_means[j].tobytes() == means.mean(axis=0).tobytes()
            assert center_covs[j].tobytes() == SymMatrix(cov).values.tobytes()

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
                else estimate_gaussian(SampleGroup(f"g{i}", rng.standard_normal((max(2, d), d))))
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
            estimate_gaussian(SampleGroup(f"g{i}", rng.standard_normal((3, 7))))
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
