import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_model
from distclust import spectral
from distclust.errors import (
    InvalidBandwidth,
    InvalidConfig,
    InvalidMatrix,
    MetricNotSymmetric,
    NumericalError,
)
from distclust.gaussian import estimate_gaussians
from distclust.metrics import (
    METRIC_BHATTACHARYYA,
    METRIC_EUCLIDEAN,
    METRIC_KL,
    METRIC_WASSERSTEIN_SQ,
    DistanceMatrix,
    distance_matrix,
    mean_euclidean_matrix,
)
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
from distclust.spectral import _lloyd, _repair_empty, _sq_dist_to_means, _subspace_bottom
from distclust.synthgen import generate_benchmark


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

    def test_median_bandwidth_matches_masked_median(self, rng):
        # odd and even counts of positive entries, all-zero and 1 x 1 matrices
        for n in range(1, 9):
            for _ in range(10):
                upper = np.triu(rng.uniform(0.0, 4.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
                x = upper + upper.T
                positive = x[np.triu(x > 0.0, 1)]
                expected = float(np.median(positive)) if positive.size else 1.0
                assert median_bandwidth(x) == expected

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

    @pytest.mark.parametrize("on_sqrt", [False, True])
    @pytest.mark.parametrize("metric", [METRIC_WASSERSTEIN_SQ, METRIC_BHATTACHARYYA, METRIC_EUCLIDEAN])
    def test_public_constructor_keeps_bytes(self, metric, on_sqrt, rng):
        # the kernel is built without AdjacencyMatrix's checks; they would
        # change nothing
        models = [random_model(3, rng) for _ in range(40)]
        w = kernelize(distance_matrix(models, metric), on_sqrt=on_sqrt)
        again = AdjacencyMatrix(w.values, w.bandwidth_sigma)
        assert again.values.tobytes() == w.values.tobytes()
        assert again.bandwidth_sigma == w.bandwidth_sigma
        with pytest.raises(ValueError):
            w.values[0, 1] = 0.5

    @pytest.mark.parametrize("sigma", [1e155, 1.0e308, float("inf")])
    def test_rejects_bandwidth_whose_square_overflows(self, sigma):
        with pytest.raises(InvalidBandwidth, match="2 sigma\\^2 overflows"):
            kernelize(three_object_distances(), sigma=sigma)

    def test_rejects_median_bandwidth_whose_square_overflows(self):
        dm = DistanceMatrix(np.full((3, 3), 1e200) * (1 - np.eye(3)), METRIC_WASSERSTEIN_SQ)
        with pytest.raises(InvalidBandwidth, match="sigma 1e\\+200 is too large"):
            kernelize(dm)

    def test_large_finite_bandwidth_matches_whole_matrix_form(self):
        dm = three_object_distances()
        sigma = 1e150
        w = kernelize(dm, sigma=sigma)
        expected = np.exp(-(dm.values**2) / (2.0 * sigma**2))
        np.fill_diagonal(expected, 1.0)
        assert w.values.tobytes() == expected.tobytes()

    def test_underflowing_bandwidth_with_zero_entry_fails(self):
        # 2 sigma^2 underflows to 0, and the zero entry (0, 1) becomes 0/0;
        # the typed error comes without a numpy warning before it
        dm = DistanceMatrix([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                            METRIC_WASSERSTEIN_SQ)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMatrix, match="adjacency entries must be finite"):
                kernelize(dm, sigma=1e-170)


class TestNormalizedLaplacian:
    def test_two_node_hand_case(self):
        w = AdjacencyMatrix(np.ones((2, 2)), 1.0)
        lap = normalized_laplacian(w)
        np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_spectrum_bounds(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 12))
            x = rng.uniform(0.0, 1.0, size=(n, n))
            w = AdjacencyMatrix(np.clip((x + x.T) / 2, 0, 1) * (1 - np.eye(n)) + np.eye(n), 1.0)
            eigs = np.linalg.eigvalsh(normalized_laplacian(w))
            assert eigs[0] > -1e-10
            assert eigs[-1] < 2.0 + 1e-10

    def test_constant_vector_in_null_space(self, rng):
        n = 6
        x = rng.uniform(0.0, 1.0, size=(n, n))
        w = AdjacencyMatrix(np.clip((x + x.T) / 2, 0, 1) * (1 - np.eye(n)) + np.eye(n), 1.0)
        degrees = w.values.sum(axis=1)
        null = np.sqrt(degrees)
        residual = normalized_laplacian(w) @ null
        assert np.abs(residual).max() < 1e-10

    def test_exactly_symmetric(self, rng):
        # n spans several row blocks; (w_ij r_i) r_j alone is not symmetric
        n = 600
        upper = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        w = AdjacencyMatrix(upper + upper.T + np.eye(n), 1.0)
        inv_root = 1.0 / np.sqrt(w.values.sum(axis=1))
        raw = -(w.values * inv_root[:, None]) * inv_root[None, :]
        np.fill_diagonal(raw, 1.0 + np.diagonal(raw))
        assert not np.array_equal(raw, raw.T)
        lap = normalized_laplacian(w)
        assert np.array_equal(lap, lap.T)
        assert lap.tobytes() == ((raw + raw.T) / 2.0).tobytes()


class TestSpectralEmbedding:
    def test_rows_unit_norm(self):
        w = two_block_adjacency()
        basis, eigenvalues, _ = spectral_embedding(w, 2)
        assert basis.shape == (10, 2)
        assert eigenvalues.shape == (2,)
        norms = np.linalg.norm(basis, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_two_blocks_give_two_tight_point_groups(self):
        basis, eigenvalues, _ = spectral_embedding(two_block_adjacency(), 2)
        assert np.all(eigenvalues < 1e-6)
        within_a = np.abs(basis[:5] - basis[0]).max()
        within_b = np.abs(basis[5:] - basis[5]).max()
        assert within_a < 1e-6 and within_b < 1e-6
        assert np.abs(basis[0] - basis[5]).max() > 0.5

    def test_k_out_of_range(self):
        with pytest.raises(InvalidConfig):
            spectral_embedding(two_block_adjacency(), 11)


def benchmark_kernel(n: int, metric: str, seed: int = 3, d: int = 4) -> AdjacencyMatrix:
    groups = generate_benchmark(d, 5, n_objects=n, samples_per_object=20, seed=seed).groups
    models = estimate_gaussians(groups, 1e-8)
    if metric == METRIC_EUCLIDEAN:
        return kernelize(mean_euclidean_matrix(models))
    return kernelize(distance_matrix(models, metric), on_sqrt=metric == METRIC_WASSERSTEIN_SQ)


def dense_embedding(w: AdjacencyMatrix, k: int, monkeypatch) -> tuple:
    """``spectral_embedding`` with the crossover raised past n: the full
    ``eigh`` path, the reference of every fallback."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_DENSE_PER_COLUMN", w.n)
        embedding = spectral_embedding(w, k)
    assert embedding[2] == "dense"
    return embedding


def block_kernel(blocks: int, size: int) -> AdjacencyMatrix:
    """Identical disconnected blocks: eigenvalue 0 of L_sym ``blocks`` times."""
    return AdjacencyMatrix(np.kron(np.eye(blocks), np.ones((size, size))), 1.0)


def multipartite_kernel(rng, n: int = 240, parts: int = 12) -> AdjacencyMatrix:
    """Distances 2-3 inside each of ``parts`` parts and 0-0.5 across, at
    sigma = 1: an indefinite kernel whose negative eigenvalues crowd out
    the small positive ones."""
    part = np.arange(n) % parts
    same = part[:, None] == part[None, :]
    x = np.triu(np.where(same, rng.uniform(2.0, 3.0, (n, n)), rng.uniform(0.0, 0.5, (n, n))), 1)
    return kernelize(DistanceMatrix(x + x.T, METRIC_WASSERSTEIN_SQ), sigma=1.0)


def count_qr(monkeypatch) -> list:
    """The shape of every ``np.linalg.qr`` call from here on: one per pass
    of the subspace iteration, plus the start block's."""
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or qr(a))
    return calls


class TestBottomEigensolver:
    """The certified subspace iteration against the full ``eigh``."""

    @pytest.mark.parametrize(
        "n, metric",
        [(n, metric) for n in (40, 200)
         for metric in (METRIC_EUCLIDEAN, METRIC_WASSERSTEIN_SQ, METRIC_BHATTACHARYYA)]
        + [(2000, METRIC_EUCLIDEAN)],
    )
    def test_matches_dense_on_real_kernels(self, n, metric):
        k = 5
        w = benchmark_kernel(n, metric)
        expected, reference = np.linalg.eigh(normalized_laplacian(w))
        found = _subspace_bottom(w, k)
        assert found is not None
        eigenvalues, vectors = found
        assert np.abs(eigenvalues - expected[:k]).max() <= 1e-10
        if expected[k] - expected[k - 1] >= 1e-3:
            # sine of the largest principal angle between the two subspaces
            outside = reference[:, :k] - vectors @ (vectors.T @ reference[:, :k])
            assert np.linalg.norm(outside, 2) <= 1e-6
        if n > spectral._DENSE_PER_COLUMN * spectral._block_columns(k):
            _, values, eigensolver = spectral_embedding(w, k)
            assert eigensolver == "subspace"
            assert values.tobytes() == eigenvalues.tobytes()

    def test_at_or_below_crossover_runs_dense(self):
        w = benchmark_kernel(spectral._DENSE_PER_COLUMN * spectral._block_columns(5), METRIC_EUCLIDEAN)
        assert spectral_embedding(w, 5)[2] == "dense"

    @pytest.mark.parametrize("k, n, tried", [(5, 180, False), (5, 181, True), (10, 240, False),
                                             (10, 481, True), (20, 300, False), (20, 601, True)])
    def test_crossover_grows_with_k(self, k, n, tried, monkeypatch):
        # a pass costs about n^2 b for the block of b = k + min(5k, 30)
        # columns and the passes hardly change with k, so the dense solve
        # stays faster up to 6 b objects: 180 at k = 5, 240 at k = 10, 300
        # at k = 20
        calls = []
        monkeypatch.setattr(spectral, "_subspace_bottom", lambda w, k: calls.append(k))
        spectral_embedding(block_kernel(n, 1), k)
        assert bool(calls) == tried

    def test_equal_eigenvalues_fall_back(self, monkeypatch):
        # k + 1 components: lambda_k = lambda_{k+1} = 0, no certificate
        k = 2
        w = block_kernel(k + 1, 50)
        assert w.n > spectral._DENSE_PER_COLUMN * spectral._block_columns(k)
        basis, eigenvalues, eigensolver = spectral_embedding(w, k)
        assert eigensolver == "dense"
        reference = dense_embedding(w, k, monkeypatch)
        assert basis.tobytes() == reference[0].tobytes()
        assert eigenvalues.tobytes() == reference[1].tobytes()

    def test_iteration_cap_falls_back(self, monkeypatch):
        w = benchmark_kernel(200, METRIC_EUCLIDEAN)
        reference = dense_embedding(w, 5, monkeypatch)
        monkeypatch.setattr(spectral, "_MAX_PASSES", 1)
        basis, eigenvalues, eigensolver = spectral_embedding(w, 5)
        assert eigensolver == "dense"
        assert basis.tobytes() == reference[0].tobytes()
        assert eigenvalues.tobytes() == reference[1].tobytes()

    def test_bytes_independent_of_global_random_state(self):
        w = benchmark_kernel(200, METRIC_EUCLIDEAN)
        saved = np.random.get_state()
        try:
            np.random.seed(1)
            a = spectral_embedding(w, 5)
            np.random.seed(2)
            np.random.standard_normal(1000)
            b = spectral_embedding(w, 5)
        finally:
            np.random.set_state(saved)
        assert a[2] == b[2] == "subspace"
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    @pytest.mark.parametrize("k, eigensolver", [(1, "subspace"), (2, "dense")])
    def test_indefinite_multipartite_kernel(self, k, eigensolver, monkeypatch, rng):
        # 12 parts, far apart inside and close across: M = D^-1/2 W D^-1/2
        # has eleven eigenvalues near -0.08 that crowd the block out of its
        # small positive ones. At k = 2 the iteration converges to one of the
        # negative ones, and the deflation bound refuses it; at k = 1 it
        # accepts. No n x n factorization runs either way.
        w = multipartite_kernel(rng)
        n, parts = w.n, 12
        mu = np.linalg.eigvalsh(np.eye(n) - normalized_laplacian(w))
        # all eleven negative ones outweigh every positive one but the top
        assert mu[parts - 2] < -mu[-2] < 0.0
        factored = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a.shape) or cholesky(a))
        basis, eigenvalues, solver = spectral_embedding(w, k)
        assert solver == eigensolver
        assert factored == []
        expected = np.linalg.eigvalsh(normalized_laplacian(w))[:k]
        assert np.abs(eigenvalues - expected).max() <= 1e-10

    def test_stalled_iteration_gives_up_early(self, monkeypatch):
        # 12 parts at n = 2000, k = 3: the residual shrinks ~0.84x per five
        # passes, far too slowly for the 50-pass cap; the projection stops
        # the iteration at pass 10, before its QR
        n, parts = 2000, 12
        rng = np.random.default_rng(5)
        part = np.arange(n) % parts
        x = rng.uniform(0.0, 0.5, (n, n))
        same = part[:, None] == part[None, :]
        x[same] = rng.uniform(2.0, 3.0, np.count_nonzero(same))
        del same
        x = np.triu(x, 1)
        x += x.T
        w = kernelize(DistanceMatrix(x, METRIC_WASSERSTEIN_SQ), sigma=1.0)
        del x
        factored = count_qr(monkeypatch)
        assert _subspace_bottom(w, 3) is None
        assert len(factored) <= 15

    def test_twenty_clusters_at_a_thousand_objects_run_the_iteration(self, monkeypatch):
        # a block of k + 10 columns stalled here and gave up for the dense
        # solve; k + 30 columns converge
        groups = generate_benchmark(7, 20, n_objects=1000, samples_per_object=30, seed=0).groups
        w = kernelize(mean_euclidean_matrix(estimate_gaussians(groups, 1e-8)))
        factored = count_qr(monkeypatch)
        basis, eigenvalues, eigensolver = spectral_embedding(w, 20)
        assert eigensolver == "subspace"
        assert factored[0] == (1000, 50)
        expected = np.linalg.eigvalsh(normalized_laplacian(w))[:20]
        assert np.abs(eigenvalues - expected).max() <= 1e-10

    def test_slow_but_steady_iteration_is_kept(self, monkeypatch):
        # k = 10 mean-distance kernel at n = 2000 on a block of 2k columns:
        # convergence factor theta_21 / theta_10 makes for 34 passes, but the
        # projection reaches the tolerance within the cap and must not stop
        # the iteration before its certificate
        groups = generate_benchmark(7, 10, n_objects=2000, samples_per_object=30, seed=0).groups
        w = kernelize(mean_euclidean_matrix(estimate_gaussians(groups, 1e-8)))
        monkeypatch.setattr(spectral, "_block_columns", lambda k: 2 * k)
        bound, reached = spectral._deflation_bound, []
        monkeypatch.setattr(spectral, "_deflation_bound", lambda *args: reached.append(1) or bound(*args))
        factored = count_qr(monkeypatch)
        _subspace_bottom(w, 10)
        assert reached
        assert len(factored) > 2 * spectral._STALL_WINDOW


def planted_kernel(n: int, parts: int, noise: float, rng) -> AdjacencyMatrix:
    """Unit-diagonal W with entries from [1 - noise, 1] inside each part
    and from [0, noise] across: indefinite, with ``parts`` leading
    eigenvalues of M above a bulk of either sign."""
    part = np.arange(n) % parts
    same = part[:, None] == part[None, :]
    x = np.triu(np.where(same, rng.uniform(1.0 - noise, 1.0, (n, n)), rng.uniform(0.0, noise, (n, n))), 1)
    x += x.T
    np.fill_diagonal(x, 1.0)
    return AdjacencyMatrix(x, 1.0)


def certify(w: AdjacencyMatrix, k: int, monkeypatch):
    """Whether the deflation bound accepted ``_subspace_bottom(w, k)``'s
    result (None if the iteration failed before it), after two checks: an
    accepted c lies above the (k+1)-th eigenvalue of M, and the result is
    None exactly when the bound refuses."""
    decisions = []
    bound = spectral._deflation_bound

    def recorded(w, r, q, mq, theta, ritz, k):
        accepted = bound(w, r, q, mq, theta, ritz, k)
        decisions.append((accepted, 0.5 * (theta[k - 1] + theta[k])))
        return accepted

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_deflation_bound", recorded)
        found = _subspace_bottom(w, k)
    if not decisions:
        assert found is None
        return None
    [(accepted, c)] = decisions
    assert (found is not None) == bool(accepted)
    if accepted:
        mu = np.linalg.eigvalsh(np.eye(w.n) - normalized_laplacian(w))
        assert mu[-1 - k] < c
    return bool(accepted)


def assert_certified_in_small_memory(w: AdjacencyMatrix, monkeypatch) -> None:
    """The k = 5 solve of w is certified with no factorization of an n x n
    matrix and no n x n array alive at once."""
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: pytest.fail("Cholesky ran"))
    tracemalloc.start()
    try:
        assert _subspace_bottom(w, 5) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.n * w.n * 8


class TestDeflationBound:
    """The O(n^2) certificate of the subspace iteration: sound wherever it
    accepts, and a refusal leaves the solve to the dense ``eigh``."""

    @pytest.mark.parametrize(
        "metric, n, d, accepted",
        [(metric, n, d, True)
         for metric in (METRIC_EUCLIDEAN, METRIC_WASSERSTEIN_SQ, METRIC_BHATTACHARYYA)
         for n in (150, 300) for d in (4, 7)],
    )
    def test_benchmark_kernels(self, metric, n, d, accepted, monkeypatch):
        # the d = 7 divergence kernels carry negative eigenvalue mass that a
        # block of 15 columns left outside, and the bound refused them; 30
        # columns hold enough of M's Frobenius mass
        assert certify(benchmark_kernel(n, metric, d=d), 5, monkeypatch) is accepted

    @pytest.mark.parametrize(
        "n, parts, noise, k, accepted",
        [(200, 3, 0.3, 3, True), (200, 3, 0.3, 2, False), (300, 4, 0.5, 4, False),
         (300, 4, 0.8, 3, False)],
    )
    def test_random_indefinite_kernels(self, n, parts, noise, k, accepted, monkeypatch):
        for seed in range(3):
            w = planted_kernel(n, parts, noise, np.random.default_rng(seed))
            assert np.linalg.eigvalsh(w.values)[0] < 0.0
            assert certify(w, k, monkeypatch) is accepted

    @pytest.mark.parametrize("k, accepted", [(1, True), (2, False)])
    def test_multipartite_kernel(self, k, accepted, monkeypatch, rng):
        # at k = 2 the block holds a negative eigenvalue of M in place of a
        # positive one: accepting it would be unsound
        assert certify(multipartite_kernel(rng), k, monkeypatch) is accepted

    def test_accepted_certificate_holds_no_n_by_n_array(self, monkeypatch):
        assert_certified_in_small_memory(benchmark_kernel(1000, METRIC_EUCLIDEAN), monkeypatch)

    @pytest.mark.parametrize("metric", [METRIC_WASSERSTEIN_SQ, METRIC_BHATTACHARYYA])
    def test_divergence_kernels_certify_without_an_n_by_n_array(self, metric, monkeypatch):
        # d = 7 and q = 20: the indefinite kernels that a narrower block left
        # to an n x n Cholesky factorization
        w = benchmark_kernel(600, metric, d=7)
        assert spectral._DENSE_PER_COLUMN * spectral._block_columns(5) < w.n
        assert_certified_in_small_memory(w, monkeypatch)

    def test_frobenius_norm_in_row_blocks(self, monkeypatch):
        w = benchmark_kernel(300, METRIC_EUCLIDEAN)
        r = (1.0 / np.sqrt(w.values.sum(axis=1)))[:, None]
        monkeypatch.setattr(spectral, "_BLOCK_ROWS", 64)
        expected = np.linalg.norm(r * w.values * r.T) ** 2
        assert spectral._frobenius_sq(w, r) == pytest.approx(expected, rel=1e-13)


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
        generators = [np.random.default_rng(seed) for seed in range(5)]
        _, _, history = _lloyd(points, 4, generators, 50)
        assert len(history) == 5
        for costs in history:
            assert len(costs) >= 2
            assert np.all(np.diff(costs) <= 1e-9)

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

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_sign_flipped_columns_change_nothing_but_center_signs(self, k, rng):
        # spectral_embedding imposes no eigenvector sign convention, which
        # rests on this: differences and means negate exactly
        for seed in range(5):
            points, _, _ = spectral_embedding(two_block_adjacency(20, 13, cross=0.3), k)
            points = points + 0.05 * rng.standard_normal(points.shape)
            signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
            signs[0] = -1.0
            a = kmeans(points, k, np.random.default_rng(seed))
            b = kmeans(points * signs, k, np.random.default_rng(seed))
            assert a.assignment.labels.tobytes() == b.assignment.labels.tobytes()
            assert a.wcss == b.wcss
            assert (a.centers * signs).tobytes() == b.centers.tobytes()

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
        repair = spectral._repair_empty
        monkeypatch.setattr(
            spectral, "_repair_empty", lambda *args: repairs.append(1) or repair(*args)
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
                    result = kmeans(points, k, np.random.default_rng(seed), max_iter=max_iter)
                    assert result.assignment.labels.tobytes() == labels.tobytes()
                    assert result.centers.tobytes() == centers.tobytes()
                    assert result.wcss == expected_wcss
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
                result = kmeans(
                    points, k, np.random.default_rng(seed), restarts=2, max_iter=max_iter
                )
                assert result.assignment.labels.tobytes() == labels.tobytes()
                assert result.centers.tobytes() == centers.tobytes()
                assert result.wcss == expected_wcss
            generators = [np.random.default_rng(seed) for seed in range(3)]
            _, _, history = _lloyd(points, k, generators, 300)
            assert max(len(costs) for costs in history) < 50

    def test_cycle_ends_on_the_labels_of_the_last_pass(self, monkeypatch):
        # stand-in steps whose one label runs 0 1 2 3 4 5 3 4 5 ...: three
        # passes of tail, then a cycle of period 3; a center holds the label
        # it was computed from, and the assignment maps it to the next label
        step = {-1: 0, 0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 3}
        monkeypatch.setattr(
            spectral, "_plus_plus_seed",
            lambda points, k, rngs: np.full((len(rngs), k, 1), -1.0),
        )
        monkeypatch.setattr(
            spectral,
            "_update_step",
            lambda points, labels, k: (labels, np.repeat(labels[:, None, :1], k, axis=1) * 1.0),
        )
        monkeypatch.setattr(
            spectral,
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
        result = kmeans(points, 28, np.random.default_rng(1), restarts=1)
        assert result.assignment.labels.tobytes() == labels.tobytes()
        assert result.centers.tobytes() == centers.tobytes()
        assert result.wcss == expected_wcss
        generators = [np.random.default_rng(seed) for seed in range(10)]
        _, _, history = _lloyd(points, 28, generators, 300)
        assert max(len(costs) for costs in history) < 50

    def test_seeding_matches_reference(self, rng):
        for d in (1, 3):
            points = np.round(rng.standard_normal((50, d)), 1)
            for k in (1, 4, 50):
                a = spectral._plus_plus_seed(points, k, [np.random.default_rng(k)])[0]
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
                got = spectral._plus_plus_seed(
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
        labels, _ = spectral._assign(points, -2.0 * points.T, sq_points, centers)
        expected = reference_assign(points, centers[0])
        assert labels[0, 0] == 0
        assert labels[0].tobytes() == expected.tobytes()


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

    def test_tiny_cut_keeps_its_digits(self, rng):
        # cross weights near 1e-12 next to weights near 1 inside: a cut taken
        # as the volume minus the weight inside would keep only the volume's
        # rounding; summed directly, it matches exactly rounded sums
        labels = np.repeat(np.arange(3), [40, 60, 50])
        inside = labels[:, None] == labels[None, :]
        values = rng.uniform(0.5, 1.0, (150, 150))
        values = np.where(inside, values, 1e-12 * values)
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, 1.0)
        want = 0.5 * sum(
            math.fsum(values[labels == j][:, labels != j].ravel())
            / math.fsum(values[labels == j].ravel())
            for j in range(3)
        )
        got = ncut(AdjacencyMatrix(values, 1.0), ClusterAssignment(labels, 3))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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

    @pytest.mark.parametrize("n, eigensolver", [(10, "dense"), (150, "subspace")])
    def test_reports_its_eigensolver(self, n, eigensolver):
        w = two_block_adjacency(n // 2, n - n // 2, cross=0.05)
        result = spectral_cluster(w, 2, np.random.default_rng(7))
        assert result.eigensolver == eigensolver
