import warnings

import numpy as np
import pytest

from conftest import random_model
from distclust.errors import EmptyCluster, InvalidConfig, NumericalError
from distclust.gaussian import GaussianModel, SampleGroup, estimate_gaussians
from distclust.klcluster import (
    SEEDING_KLPP,
    SEEDING_RANDOM,
    _repair_empty,
    center_update,
    kl_cluster,
    klpp_seed,
)
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
            for j, center_cov in enumerate(result.centers[1]):
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
                assert result.centers[0].tobytes() == means.tobytes()
                assert result.centers[1].tobytes() == covs.tobytes()
                assert not any(center.flags.writeable for center in result.centers)
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
