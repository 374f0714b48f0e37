import numpy as np
import pytest

from distclust.errors import (
    InvalidBandwidth,
    InvalidConfig,
    InvalidMatrix,
    MetricNotSymmetric,
)
from distclust.metrics import METRIC_KL, METRIC_WASSERSTEIN_SQ, DistanceMatrix
from distclust.spectral import (
    AdjacencyMatrix,
    ClusterAssignment,
    kernelize,
    kmeans,
    median_bandwidth,
    ncut,
    normalized_laplacian,
    spectral_cluster,
    spectral_embedding,
    wcss,
)
from distclust.spectral import _lloyd, _repair_empty, _sq_dist_to_means


def three_object_distances() -> DistanceMatrix:
    values = np.array(
        [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
    )
    return DistanceMatrix(values, METRIC_WASSERSTEIN_SQ)


def two_block_adjacency(n_a: int = 5, n_b: int = 5, cross: float = 1e-12) -> AdjacencyMatrix:
    n = n_a + n_b
    w = np.full((n, n), cross)
    w[:n_a, :n_a] = 1.0
    w[n_a:, n_a:] = 1.0
    return AdjacencyMatrix(w, 1.0)


class TestAdjacencyMatrix:
    def test_canonical_form(self):
        w = AdjacencyMatrix([[1.0 + 1e-12, 0.5], [0.5, 1.0]], 2.0)
        assert w.values[0, 0] == 1.0
        assert w.bandwidth_sigma == 2.0

    def test_rejects_bad_diagonal(self):
        with pytest.raises(InvalidMatrix):
            AdjacencyMatrix([[0.5, 0.1], [0.1, 1.0]], 1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidMatrix):
            AdjacencyMatrix([[1.0, 1.5], [1.5, 1.0]], 1.0)

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidMatrix):
            AdjacencyMatrix([[1.0, 0.2], [0.4, 1.0]], 1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidBandwidth):
            AdjacencyMatrix(np.eye(2), 0.0)

    def test_canonical_bytes_match_whole_matrix_form(self, rng):
        # n spans several row blocks; the asymmetric noise lies within tolerance
        n = 600
        upper = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        values = upper + upper.T + np.eye(n) + rng.uniform(-4e-10, 4e-10, (n, n))
        expected = (values + values.T) / 2.0
        np.clip(expected, 0.0, 1.0, out=expected)
        np.fill_diagonal(expected, 1.0)
        assert AdjacencyMatrix(values, 1.0).values.tobytes() == expected.tobytes()


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


class TestKernelize:
    def test_median_bandwidth_and_values(self):
        w = kernelize(three_object_distances())
        # positive off-diagonal distances are {1, 2, 3}, median 2
        assert w.bandwidth_sigma == 2.0
        np.testing.assert_allclose(w.values[0, 1], np.exp(-1.0 / 8.0), atol=1e-12)
        np.testing.assert_allclose(w.values[0, 2], np.exp(-4.0 / 8.0), atol=1e-12)
        np.testing.assert_allclose(w.values[1, 2], np.exp(-9.0 / 8.0), atol=1e-12)
        assert np.all(np.diagonal(w.values) == 1.0)

    def test_explicit_sigma(self):
        w = kernelize(three_object_distances(), sigma=1.0)
        np.testing.assert_allclose(w.values[0, 1], np.exp(-0.5), atol=1e-12)

    def test_on_sqrt(self):
        w = kernelize(three_object_distances(), sigma=1.0, on_sqrt=True)
        # the stored entry 2.0 becomes sqrt(2), so the exponent is -2/2
        np.testing.assert_allclose(w.values[0, 2], np.exp(-1.0), atol=1e-12)
        np.testing.assert_allclose(w.values[1, 2], np.exp(-1.5), atol=1e-12)

    def test_rejects_asymmetric_metric(self):
        dm = DistanceMatrix([[0.0, 1.0], [2.0, 0.0]], METRIC_KL)
        with pytest.raises(MetricNotSymmetric):
            kernelize(dm)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidBandwidth):
            kernelize(three_object_distances(), sigma=-1.0)

    def test_all_zero_distances_fall_back(self):
        dm = DistanceMatrix(np.zeros((3, 3)), METRIC_WASSERSTEIN_SQ)
        w = kernelize(dm)
        assert w.bandwidth_sigma == 1.0
        assert np.all(w.values == 1.0)

    def test_median_bandwidth_ignores_zeros(self):
        x = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        assert median_bandwidth(x) == 5.0

    @pytest.mark.parametrize("on_sqrt", [False, True])
    def test_matches_whole_matrix_form(self, on_sqrt, rng):
        n = 301
        upper = np.triu(rng.uniform(0.0, 9.0, (n, n)) * (rng.random((n, n)) < 0.9), 1)
        dm = DistanceMatrix(upper + upper.T, METRIC_WASSERSTEIN_SQ)
        x = np.sqrt(dm.values) if on_sqrt else dm.values
        iu = np.triu_indices(n, k=1)
        sigma = float(np.median(x[iu][x[iu] > 0.0]))
        expected = np.exp(-(x**2) / (2.0 * sigma**2))
        np.fill_diagonal(expected, 1.0)
        w = kernelize(dm, on_sqrt=on_sqrt)
        assert median_bandwidth(x) == sigma == w.bandwidth_sigma
        assert w.values.tobytes() == expected.tobytes()


class TestNormalizedLaplacian:
    def test_two_node_hand_case(self):
        w = AdjacencyMatrix(np.ones((2, 2)), 1.0)
        lap = normalized_laplacian(w)
        np.testing.assert_allclose(lap.values, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_spectrum_bounds(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 12))
            x = rng.uniform(0.0, 1.0, size=(n, n))
            w = AdjacencyMatrix(np.clip((x + x.T) / 2, 0, 1) * (1 - np.eye(n)) + np.eye(n), 1.0)
            eigs = np.linalg.eigvalsh(normalized_laplacian(w).values)
            assert eigs[0] > -1e-10
            assert eigs[-1] < 2.0 + 1e-10

    def test_constant_vector_in_null_space(self, rng):
        n = 6
        x = rng.uniform(0.0, 1.0, size=(n, n))
        w = AdjacencyMatrix(np.clip((x + x.T) / 2, 0, 1) * (1 - np.eye(n)) + np.eye(n), 1.0)
        degrees = w.values.sum(axis=1)
        null = np.sqrt(degrees)
        residual = normalized_laplacian(w).values @ null
        assert np.abs(residual).max() < 1e-10


class TestSpectralEmbedding:
    def test_rows_unit_norm(self):
        w = two_block_adjacency()
        basis, eigenvalues = spectral_embedding(w, 2)
        assert basis.shape == (10, 2)
        assert eigenvalues.shape == (2,)
        norms = np.linalg.norm(basis, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_two_blocks_give_two_tight_point_groups(self):
        basis, eigenvalues = spectral_embedding(two_block_adjacency(), 2)
        assert np.all(eigenvalues < 1e-6)
        within_a = np.abs(basis[:5] - basis[0]).max()
        within_b = np.abs(basis[5:] - basis[5]).max()
        assert within_a < 1e-6 and within_b < 1e-6
        assert np.abs(basis[0] - basis[5]).max() > 0.5

    def test_k_out_of_range(self):
        with pytest.raises(InvalidConfig):
            spectral_embedding(two_block_adjacency(), 11)


class TestKmeans:
    def test_separated_blobs(self, rng):
        a = rng.normal(0.0, 0.1, size=(12, 2))
        b = rng.normal(5.0, 0.1, size=(12, 2)) + np.array([0.0, 5.0])
        points = np.vstack([a, b])
        result = kmeans(points, 2, np.random.default_rng(3))
        labels = result.assignment.labels
        assert len(set(labels[:12])) == 1
        assert len(set(labels[12:])) == 1
        assert labels[0] != labels[12]

    def test_objective_non_increasing(self, rng):
        points = rng.standard_normal((40, 3))
        for seed in range(5):
            _, _, history = _lloyd(points, 4, np.random.default_rng(seed), 50)
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-9)

    def test_wcss_is_that_of_returned_labels(self, rng):
        points = rng.standard_normal((60, 3))
        for seed in range(5):
            result = kmeans(points, 4, np.random.default_rng(seed), restarts=3)
            assert result.wcss == wcss(points, result.assignment.labels, 4)

    def test_deterministic(self, rng):
        points = rng.standard_normal((30, 2))
        a = kmeans(points, 3, np.random.default_rng(11))
        b = kmeans(points, 3, np.random.default_rng(11))
        assert np.array_equal(a.assignment.labels, b.assignment.labels)
        assert a.wcss == b.wcss

    def test_no_empty_clusters(self, rng):
        for seed in range(8):
            points = rng.standard_normal((15, 2))
            result = kmeans(points, 5, np.random.default_rng(seed))
            assert len(set(result.assignment.labels.tolist())) == 5

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

    def test_invalid_inputs(self, rng):
        points = rng.standard_normal((4, 2))
        with pytest.raises(InvalidConfig):
            kmeans(points, 5, rng)
        with pytest.raises(InvalidConfig):
            kmeans(points, 0, rng)
        with pytest.raises(InvalidConfig):
            kmeans(points, 2, rng, restarts=0)


class TestNcut:
    def test_balanced_complete_graph(self):
        w = AdjacencyMatrix(np.ones((4, 4)), 1.0)
        a = ClusterAssignment(np.array([0, 0, 1, 1]), 2)
        assert ncut(w, a) == pytest.approx(0.5, abs=1e-12)

    def test_clean_blocks_cut_near_zero(self):
        w = two_block_adjacency()
        a = ClusterAssignment(np.array([0] * 5 + [1] * 5), 2)
        assert ncut(w, a) < 1e-10

    def test_size_mismatch(self):
        with pytest.raises(InvalidConfig):
            ncut(two_block_adjacency(), ClusterAssignment(np.array([0, 1]), 2))


class TestSpectralCluster:
    def test_recovers_two_blocks(self):
        for seed in range(5):
            result = spectral_cluster(
                two_block_adjacency(), 2, np.random.default_rng(seed)
            )
            labels = result.assignment.labels
            assert len(set(labels[:5].tolist())) == 1
            assert len(set(labels[5:].tolist())) == 1
            assert labels[0] != labels[5]
            assert result.ncut < 1e-9

    def test_deterministic(self):
        w = two_block_adjacency(6, 4, cross=0.05)
        a = spectral_cluster(w, 2, np.random.default_rng(7))
        b = spectral_cluster(w, 2, np.random.default_rng(7))
        assert np.array_equal(a.assignment.labels, b.assignment.labels)
        assert a.ncut == b.ncut
