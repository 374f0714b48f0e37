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
from distclust.klcluster import _repair_empty
from distclust.matrixcore import SymMatrix
from distclust.metrics import kl_divergence, kl_divergence_table, kl_factors


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
        plain = center_update(models, labels, 3)
        stacked = center_update(models, labels, 3, kl_factors(models))
        for j, (a, b) in enumerate(zip(plain, stacked)):
            members = [models[i] for i in np.flatnonzero(labels == j)]
            means = np.stack([m.mean for m in members])
            dev = means - means.mean(axis=0)
            cov = np.mean([m.covariance.values for m in members], axis=0) + (dev.T @ dev) / len(members)
            for center in (a, b):
                assert center.mean.tobytes() == means.mean(axis=0).tobytes()
                assert center.covariance.values.tobytes() == SymMatrix(cov).values.tobytes()

    def test_hand_case(self):
        members = [model([0.0, 0.0], np.eye(2)), model([2.0, 0.0], np.eye(2))]
        centers = center_update(members, np.array([0, 0]), 1)
        np.testing.assert_allclose(centers[0].mean, [1.0, 0.0])
        np.testing.assert_allclose(
            centers[0].covariance.values, [[2.0, 0.0], [0.0, 1.0]]
        )

    def test_single_member_center_is_the_member(self, rng):
        m = random_model(3, rng)
        centers = center_update([m], np.array([0]), 1)
        np.testing.assert_allclose(centers[0].mean, m.mean)
        np.testing.assert_allclose(centers[0].covariance.values, m.covariance.values)

    def test_empty_cluster_raises(self, rng):
        with pytest.raises(EmptyCluster):
            center_update([random_model(2, rng)], np.array([0]), 2)

    def test_center_minimizes_member_divergence(self, rng):
        # the closed form should beat nearby perturbations of itself
        members = [random_model(2, rng) for _ in range(5)]
        labels = np.zeros(5, dtype=int)
        center = center_update(members, labels, 1)[0]
        best = sum(kl_divergence(m, center) for m in members)
        for _ in range(10):
            wobble = GaussianModel(
                center.mean + 0.05 * rng.standard_normal(2),
                SymMatrix(
                    center.covariance.values
                    + 0.05 * np.diag(rng.uniform(0.0, 1.0, 2))
                ),
            )
            assert sum(kl_divergence(m, wobble) for m in members) >= best - 1e-9


class TestKlppSeed:
    def test_returns_distinct_indices(self, rng):
        models = two_blobs(rng)
        idx = klpp_seed(models, 4, np.random.default_rng(1))
        assert len(idx) == 4 and len(set(idx)) == 4

    def test_spreads_across_separated_blobs(self, rng):
        models = two_blobs(rng, per_side=8, gap=15.0)
        sides = []
        for seed in range(30):
            idx = klpp_seed(models, 2, np.random.default_rng(seed))
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
        idx = klpp_seed(clones, 3, np.random.default_rng(0))
        assert len(set(idx)) == 3

    def test_deterministic(self, rng):
        models = two_blobs(rng)
        a = klpp_seed(models, 3, np.random.default_rng(9))
        b = klpp_seed(models, 3, np.random.default_rng(9))
        assert a == b

    def test_invalid_k(self, rng):
        with pytest.raises(InvalidConfig):
            klpp_seed([random_model(2, rng)], 2, rng)


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
        centers = center_update(models, labels, 2) + [models[0]]
        repaired = _repair_empty(models, labels, 3, centers, kl_factors(models))
        counts = np.bincount(repaired, minlength=3)
        assert counts.min() == 1

    def test_donor_cluster_keeps_a_member(self, rng):
        models = [random_model(2, rng) for _ in range(4)]
        labels = np.array([0, 0, 1, 1])
        centers = models
        repaired = _repair_empty(models, labels, 4, centers, kl_factors(models))
        counts = np.bincount(repaired, minlength=4)
        assert counts.min() == 1 and counts.max() == 1
