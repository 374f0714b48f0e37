import numpy as np
import pytest

from conftest import log_density, random_model, random_spd
from distclust.errors import DimensionMismatch, InsufficientSamples, InvalidConfig, InvalidMatrix
from distclust.gaussian import GaussianModel, SampleGroup, _draw_groups, estimate_gaussians
from distclust.matrixcore import SymMatrix


def regularize(m: SymMatrix, eps_scale: float) -> SymMatrix:
    """m + eps * I with eps = eps_scale * trace(m) / dim, or eps_scale itself
    when the trace is not positive (an all-zero covariance)."""
    trace = float(np.trace(m.values))
    eps = eps_scale * trace / m.dim if trace > 0 else eps_scale
    return SymMatrix(m.values + eps * np.eye(m.dim))


def draw(model: GaussianModel, count: int, rng, group_id: str = "") -> SampleGroup:
    """One group of ``count`` draws from ``model``."""
    return _draw_groups([model], np.zeros(1, dtype=np.intp), count, rng, [group_id])[0]


def one_at_a_time_fit(group: SampleGroup, eps_scale: float):
    """The per-group fit through validated intermediates: the reference the
    stacked pass must reproduce bit for bit."""
    mean = group.samples.mean(axis=0)
    dev = group.samples - mean
    cov = regularize(SymMatrix((dev.T @ dev) / (group.count - 1)), eps_scale)
    return GaussianModel(mean, cov, group_id=group.group_id)


class TestSampleGroup:
    def test_shape_properties(self):
        g = SampleGroup("a", np.zeros((5, 3)))
        assert g.count == 5 and g.dim == 3

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            SampleGroup("a", np.zeros((1, 3)))

    def test_requires_two_dims(self):
        with pytest.raises(DimensionMismatch):
            SampleGroup("a", np.zeros(4))

    def test_rejects_zero_dimensional_samples(self):
        with pytest.raises(DimensionMismatch, match="^group 'a': zero-dimensional samples$"):
            SampleGroup("a", np.zeros((3, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrix):
            SampleGroup("a", np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_samples_frozen_and_copied(self):
        raw = np.zeros((2, 2))
        g = SampleGroup("a", raw)
        raw[0, 0] = 9.0
        assert g.samples[0, 0] == 0.0
        with pytest.raises(ValueError):
            g.samples[0, 0] = 1.0


class TestGaussianModel:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianModel(np.zeros(3), SymMatrix(np.eye(2)))

    def test_rejects_indefinite_covariance(self):
        from distclust.errors import NotPositiveSemidefinite

        with pytest.raises(NotPositiveSemidefinite):
            GaussianModel(np.zeros(2), SymMatrix(np.diag([1.0, -1.0])))

    def test_rejects_bad_mean(self):
        with pytest.raises(InvalidMatrix):
            GaussianModel(np.array([np.nan]), SymMatrix(np.eye(1)))
        with pytest.raises(DimensionMismatch):
            GaussianModel(np.zeros((2, 2)), SymMatrix(np.eye(2)))

    def test_rejects_array_covariance(self):
        with pytest.raises(InvalidMatrix, match="^covariance must be a SymMatrix, got ndarray$"):
            GaussianModel(np.zeros(2), np.eye(2))


class TestEstimateGaussian:
    def test_corner_points(self):
        g = SampleGroup(
            "sq", np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        )
        model = estimate_gaussians([g], eps_scale=0.0)[0]
        np.testing.assert_allclose(model.mean, [1.0, 1.0])
        np.testing.assert_allclose(model.covariance.values, (4.0 / 3.0) * np.eye(2))

    def test_one_dimensional_pair(self):
        model = estimate_gaussians([SampleGroup("p", [[0.0], [2.0]])], eps_scale=0.0)[0]
        np.testing.assert_allclose(model.mean, [1.0])
        np.testing.assert_allclose(model.covariance.values, [[2.0]])

    def test_ridge_applied(self):
        g = SampleGroup(
            "sq", np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        )
        model = estimate_gaussians([g], eps_scale=0.3)[0]
        # trace of the raw covariance is 8/3, so the ridge is 0.3 * (8/3) / 2
        expected = (4.0 / 3.0 + 0.3 * (8.0 / 3.0) / 2.0) * np.eye(2)
        np.testing.assert_allclose(model.covariance.values, expected)

    def test_fewer_samples_than_dims_still_usable(self, rng):
        g = SampleGroup("thin", rng.standard_normal((3, 6)))
        model = estimate_gaussians([g])[0]
        assert np.all(np.linalg.eigvalsh(model.covariance.values) > 0)

    def test_recovers_population_parameters(self, rng):
        mean = np.array([1.0, -2.0, 0.5])
        cov = random_spd(3, rng)
        truth = GaussianModel(mean, SymMatrix(cov))
        g = draw(truth, 60000, rng)
        fitted = estimate_gaussians([g], eps_scale=0.0)[0]
        np.testing.assert_allclose(fitted.mean, mean, atol=0.05)
        np.testing.assert_allclose(fitted.covariance.values, cov, atol=0.15)

    def test_keeps_group_id(self):
        g = SampleGroup("tag", np.array([[0.0], [1.0]]))
        assert estimate_gaussians([g])[0].group_id == "tag"


class TestLogDensity:
    """The test-side oracle of acceptance criterion 4, on hand cases."""

    def test_standard_normal_at_zero(self):
        model = GaussianModel(np.zeros(1), SymMatrix(np.eye(1)))
        assert log_density(model, np.zeros(1))[0] == pytest.approx(
            -0.9189385332046727, abs=1e-12
        )

    def test_known_scalar_case(self):
        model = GaussianModel(np.array([1.0]), SymMatrix([[4.0]]))
        assert log_density(model, np.array([3.0]))[0] == pytest.approx(
            -2.112085713764618, abs=1e-12
        )

    def test_batch_matches_singles(self, rng):
        model = random_model(3, rng)
        pts = rng.standard_normal((8, 3))
        batch = log_density(model, pts)
        assert batch.shape == (8,)
        for i in range(8):
            assert batch[i] == pytest.approx(log_density(model, pts[i])[0], abs=1e-12)

    def test_matches_direct_formula(self, rng):
        for _ in range(10):
            model = random_model(4, rng)
            x = rng.standard_normal(4)
            dev = x - model.mean
            cov = model.covariance.values
            expected = -0.5 * (
                4 * np.log(2 * np.pi)
                + np.log(np.linalg.det(cov))
                + dev @ np.linalg.solve(cov, dev)
            )
            assert log_density(model, x)[0] == pytest.approx(expected, abs=1e-9)


class TestSample:
    """One group through the stacked draw of ``_draw_groups``."""

    def test_deterministic_for_seed(self, rng):
        model = random_model(3, rng)
        a = draw(model, 10, np.random.default_rng(5))
        b = draw(model, 10, np.random.default_rng(5))
        assert np.array_equal(a.samples, b.samples)

    def test_population_moments(self, rng):
        model = random_model(2, rng)
        g = draw(model, 80000, rng)
        np.testing.assert_allclose(g.samples.mean(axis=0), model.mean, atol=0.05)
        np.testing.assert_allclose(
            np.cov(g.samples.T), model.covariance.values, atol=0.1
        )

    def test_needs_two_points(self, rng):
        with pytest.raises(InsufficientSamples):
            draw(random_model(2, rng), 1, rng)

    def test_group_id_override(self, rng):
        model = random_model(2, rng)
        assert model.group_id != "x" and draw(model, 5, rng, group_id="x").group_id == "x"


class TestEstimateGaussians:
    @pytest.mark.parametrize("eps_scale", [1e-8, 0.0])
    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_matches_one_at_a_time_fit_bytes(self, rng, d, eps_scale):
        # ragged sample counts, q - 1 < d among them, buckets interleaved
        counts = [2, 30, 3, 5, 30, 2, 9, 3, 30, 130]
        groups = [
            SampleGroup(f"g{i}", rng.normal(5.0, 3.0, size=(q, d)) * rng.uniform(0.1, 10.0, d))
            for i, q in enumerate(counts)
        ]
        batched = estimate_gaussians(groups, eps_scale)
        assert [m.group_id for m in batched] == [g.group_id for g in groups]
        for group, model in zip(groups, batched):
            alone = estimate_gaussians([group], eps_scale)[0]
            for other in (one_at_a_time_fit(group, eps_scale), alone):
                assert model.mean.tobytes() == other.mean.tobytes()
                assert model.covariance.values.tobytes() == other.covariance.values.tobytes()

    def test_models_are_read_only(self, rng):
        groups = [SampleGroup(f"g{i}", rng.standard_normal((4, 3))) for i in range(3)]
        for model in estimate_gaussians(groups):
            with pytest.raises(ValueError):
                model.mean[0] = 1.0
            with pytest.raises(ValueError):
                model.covariance.values[0, 0] = 1.0

    def test_mixed_dimensions_fit_separately(self, rng):
        groups = [SampleGroup("a", rng.standard_normal((4, 2))), SampleGroup("b", rng.standard_normal((4, 3)))]
        assert [m.dim for m in estimate_gaussians(groups)] == [2, 3]

    def test_empty_input(self):
        assert estimate_gaussians([]) == ()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_names_first_failing_group(self, rng):
        # samples this large overflow the covariance; "late" sits in an
        # earlier sample-count bucket than "early" but after it in the input
        huge = 1e200 * np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
        groups = [
            SampleGroup("ok", rng.standard_normal((3, 2))),
            SampleGroup("early", np.vstack([huge, huge[:1]])),
            SampleGroup("late", huge),
        ]
        with pytest.raises(InvalidMatrix, match="^group 'early': matrix entries must be finite"):
            estimate_gaussians(groups)
        with pytest.raises(InvalidMatrix, match="^group 'late': "):
            estimate_gaussians([groups[2]])

    def test_negative_eps_scale(self, rng):
        # a setting out of range, not a matrix: NaN and infinities with it
        for eps_scale in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidConfig, match="^eps_scale must be finite and non-negative"):
                estimate_gaussians([SampleGroup("a", rng.standard_normal((3, 2)))], eps_scale)
