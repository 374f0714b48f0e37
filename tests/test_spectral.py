import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_model, two_block_adjacency
from distclust import parallel, pipeline, spectral
from distclust.errors import (
    InvalidBandwidth,
    InvalidConfig,
    InvalidMatrix,
    MetricNotSymmetric,
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
from distclust.klcluster import ClusterAssignment
from distclust.pipeline import PipelineConfig, run_pipeline
from distclust.spectral import (
    AdjacencyMatrix,
    kernelize,
    median_bandwidth,
    ncut,
    normalized_laplacian,
    spectral_cluster,
    spectral_embedding,
)
from distclust.spectral import _subspace_bottom
from distclust.synthgen import generate_benchmark


def three_object_distances() -> DistanceMatrix:
    values = np.array(
        [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
    )
    return DistanceMatrix(values, METRIC_WASSERSTEIN_SQ)


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

    @pytest.mark.parametrize("values, shape", [
        (np.ones((2, 3)), "(2, 3)"), (np.ones(3), "(3,)"), (np.ones((0, 0)), "(0, 0)"),
    ])
    def test_rejects_non_square(self, values, shape):
        message = f"^expected a square matrix, got shape {re.escape(shape)}$"
        with pytest.raises(InvalidMatrix, match=message):
            AdjacencyMatrix(values, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidMatrix, match="^adjacency entries must be finite$"):
            AdjacencyMatrix([[1.0, bad], [bad, 1.0]], 1.0)

    def test_canonical_bytes_match_whole_matrix_form(self, rng):
        # n spans several row blocks; the asymmetric noise lies within tolerance
        n = 600
        upper = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        values = upper + upper.T + np.eye(n) + rng.uniform(-4e-10, 4e-10, (n, n))
        expected = (values + values.T) / 2.0
        np.clip(expected, 0.0, 1.0, out=expected)
        np.fill_diagonal(expected, 1.0)
        w = AdjacencyMatrix(values, 1.0)
        assert w.values.tobytes() == expected.tobytes()
        # the degrees are the canonical matrix's row sums
        assert w.degrees.tobytes() == expected.sum(axis=1).tobytes()


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
        def check(x):
            positive = x[np.triu(x > 0.0, 1)]
            expected = float(np.median(positive)) if positive.size else 1.0
            assert median_bandwidth(x) == expected

        # odd and even counts of positive entries, all-zero and 1 x 1 matrices
        for n in range(1, 9):
            for _ in range(10):
                upper = np.triu(rng.uniform(0.0, 4.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
                check(upper + upper.T)
        # at n = 300 the pass starts from the whole positive range, past one
        # row block of entries at n = 700 and 2000 from a sampled bracket:
        # every positive equal (all of them at the bracket's ends), two
        # distinct values, half zeros, values from 1e-300 to 1e300,
        # subnormals, and a narrow band
        draws = [
            lambda shape: np.full(shape, 2.5),
            lambda shape: rng.choice([1.0, 3.0], shape),
            lambda shape: rng.uniform(0.0, 4.0, shape) * (rng.random(shape) < 0.5),
            lambda shape: 10.0 ** rng.uniform(-300.0, 300.0, shape),
            lambda shape: rng.integers(1, 1000, shape) * 5e-324,
            lambda shape: 1.0 + 1e-4 * rng.random(shape),
        ]
        for n in (300, 700, 2000):
            for draw in draws:
                upper = np.triu(draw((n, n)), 1)
                check(upper + upper.T)
        for seed in range(3):
            bench = generate_benchmark(7, 5, 2000, 30, seed=seed)
            check(mean_euclidean_matrix(estimate_gaussians(bench.groups)).values)

    @pytest.mark.parametrize("values", [[2.5], [1.0, 3.0]], ids=["all-equal", "two-valued"])
    def test_median_bandwidth_of_ties_gathers_little(self, values, rng):
        # entries equal to the bracket's ends are counted, not gathered, and
        # no room is set aside for them: 0.017 n * n * 8 for either matrix,
        # the tiles' masks and copies, where room for the bracket's sample
        # ranks took 0.075 and a radix select on the floats' bits 0.35 and 0.24
        n = 2000
        upper = np.triu(rng.choice(values, (n, n)), 1)
        x = upper + upper.T
        del upper
        expected = float(np.median(x[np.triu_indices(n, 1)]))
        tracemalloc.start()
        try:
            got = median_bandwidth(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 0.05 * n * n * 8

    def test_median_bandwidth_gathers_into_one_array(self):
        # the bracket gathers 0.044 n * n * 8 here, into one array sized
        # from the sample; gathered pieces joined by a copy take 0.093
        n = 2000
        bench = generate_benchmark(7, 5, n, 30, seed=1)
        x = mean_euclidean_matrix(estimate_gaussians(bench.groups)).values
        tracemalloc.start()
        try:
            got = median_bandwidth(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == float(np.median(x[np.triu_indices(n, 1)]))
        assert peak < 0.085 * n * n * 8

    @pytest.mark.parametrize("n", [300, 700])
    def test_median_bandwidth_past_a_short_array(self, n, rng, monkeypatch):
        # a gather that outgrows its array moves into a larger one
        real = spectral._bracket_pass
        monkeypatch.setattr(spectral, "_bracket_pass", lambda x, lo, hi, room: real(x, lo, hi, 1))
        upper = np.triu(rng.uniform(0.0, 4.0, (n, n)) * (rng.random((n, n)) < 0.5), 1)
        x = upper + upper.T
        assert median_bandwidth(x) == float(np.median(x[np.triu(x > 0.0, 1)]))

    @pytest.mark.parametrize("sampled", ["largest", "smallest"])
    def test_median_bandwidth_past_a_missed_bracket(self, sampled, rng, monkeypatch):
        # the entries the fixed sample reads hold the largest (smallest)
        # values, so the first bracket lies above (below) every middle rank;
        # it widens until it holds them, and the value is np.median's
        n = 700
        cells = spectral._sample_upper(np.arange(n * n, dtype=float).reshape(n, n)).astype(int)
        x = rng.uniform(1.0, 2.0, (n, n))
        x.flat[cells] = 10.0 + rng.random(cells.size) if sampled == "largest" else rng.random(cells.size)
        x = np.triu(x, 1)
        x += x.T
        passes = []

        def counted(*args):
            passes.append(args[1:3])
            return real(*args)

        real = spectral._bracket_pass
        monkeypatch.setattr(spectral, "_bracket_pass", counted)
        assert median_bandwidth(x) == float(np.median(x[np.triu_indices(n, 1)]))
        # a sampled bracket missed, and a wider one held the middle
        assert passes[0] != (0.0, np.inf)
        assert len(passes) > 1

    def test_median_bandwidth_does_not_depend_on_the_sample(self, monkeypatch):
        for seed in (1, 2):
            bench = generate_benchmark(7, 5, 2000, 30, seed=seed)
            x = mean_euclidean_matrix(estimate_gaussians(bench.groups)).values
            got = []
            for pairs in (64, 16384):
                monkeypatch.setattr(spectral, "_SAMPLE_PAIRS", pairs)
                got.append(median_bandwidth(x))
            assert got[0] == got[1] == float(np.median(x[np.triu_indices(2000, 1)]))

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
        assert again.degrees.tobytes() == w.degrees.tobytes()
        assert again.bandwidth_sigma == w.bandwidth_sigma
        with pytest.raises(ValueError):
            w.values[0, 1] = 0.5

    @pytest.mark.parametrize("on_sqrt", [False, True])
    def test_leaves_a_callers_matrix_intact(self, on_sqrt, rng):
        # a public DistanceMatrix is read-only, so the kernel gets its own array
        upper = np.triu(rng.uniform(0.0, 9.0, (300, 300)), 1)
        dm = DistanceMatrix(upper + upper.T, METRIC_WASSERSTEIN_SQ)
        before = dm.values.tobytes()
        w = kernelize(dm, on_sqrt=on_sqrt)
        assert dm.values.tobytes() == before
        assert not dm.values.flags.writeable
        assert not np.shares_memory(w.values, dm.values)

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

    def test_underflowing_bandwidth_without_zero_entry_is_the_identity(self):
        # 2 sigma^2 underflows to 0: every off-diagonal entry is x^2 / -0 =
        # -inf and its exp 0, and the diagonal's 0/0 is overwritten with 1
        # before the degrees are summed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = kernelize(three_object_distances(), sigma=1e-170)
        assert w.values.tobytes() == np.eye(3).tobytes()
        assert w.degrees.tobytes() == np.ones(3).tobytes()

    def test_underflowing_bandwidth_with_zero_entry_fails(self, monkeypatch):
        # 2 sigma^2 underflows to 0, and a zero entry becomes 0/0; the typed
        # error comes without a numpy warning before it, also at n = 600,
        # where the entry (450, 451) lies in the last of three row blocks,
        # which a kernel thread may take
        small = DistanceMatrix([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                               METRIC_WASSERSTEIN_SQ)
        values = 1.0 - np.eye(600)
        values[450, 451] = values[451, 450] = 0.0
        large = DistanceMatrix(values, METRIC_WASSERSTEIN_SQ)
        for dm, threads in [(small, "1"), (large, "1"), (large, "2")]:
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
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

    def test_built_in_one_n_by_n_array(self, rng):
        # the product is scaled and negated in the result's array: 1.40
        # n * n * 8 with the mirror's row-block temporaries, where two more
        # n x n temporaries made it 2.01
        n = 1000
        upper = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        w = AdjacencyMatrix(upper + upper.T + np.eye(n), 1.0)
        del upper
        tracemalloc.start()
        try:
            normalized_laplacian(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8


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
        r = 1.0 / np.sqrt(w.values.sum(axis=1))
        monkeypatch.setattr(spectral, "_BLOCK_ROWS", 64)
        expected = np.linalg.norm(r[:, None] * w.values * r) ** 2
        assert spectral._frobenius_sq(w, r) == pytest.approx(expected, rel=1e-13)


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
            assignment, diagnostics = spectral_cluster(
                two_block_adjacency(), 2, np.random.default_rng(seed)
            )
            labels = assignment.labels
            assert len(set(labels[:5].tolist())) == 1
            assert len(set(labels[5:].tolist())) == 1
            assert labels[0] != labels[5]
            assert diagnostics["ncut"] < 1e-9

    def test_deterministic(self):
        w = two_block_adjacency(6, 4, cross=0.05)
        a, a_diagnostics = spectral_cluster(w, 2, np.random.default_rng(7))
        b, b_diagnostics = spectral_cluster(w, 2, np.random.default_rng(7))
        assert np.array_equal(a.labels, b.labels)
        assert a_diagnostics == b_diagnostics

    @pytest.mark.parametrize("n, eigensolver", [(10, "dense"), (150, "subspace")])
    def test_reports_its_eigensolver(self, n, eigensolver):
        w = two_block_adjacency(n // 2, n - n // 2, cross=0.05)
        assignment, diagnostics = spectral_cluster(w, 2, np.random.default_rng(7))
        assert list(diagnostics) == ["bandwidth_sigma", "ncut", "eigensolver"]
        assert diagnostics["bandwidth_sigma"] == w.bandwidth_sigma
        assert diagnostics["ncut"] == ncut(w, assignment)
        assert diagnostics["eigensolver"] == eigensolver

    @pytest.mark.parametrize("n, eigensolver", [(40, "dense"), (600, "subspace")])
    def test_degrees_are_summed_once(self, n, eigensolver, monkeypatch):
        # kernelize's pass sums the degrees; the solver, the dense Laplacian
        # and ncut all read w.degrees, and no later pass sums W's rows again
        groups = generate_benchmark(7, 5, n, 30).groups
        w = kernelize(mean_euclidean_matrix(estimate_gaussians(groups)))
        # the row blocks' sums are the whole matrix's to the byte, as the
        # public constructor sums them
        assert w.degrees.tobytes() == w.values.sum(axis=1).tobytes()
        assert not w.degrees.flags.writeable
        again = AdjacencyMatrix(w.values, w.bandwidth_sigma)
        assert again.degrees.tobytes() == w.degrees.tobytes()
        assert not again.degrees.flags.writeable
        passes = []

        def recorded(rows, work, **kwargs):
            passes.append(work.__qualname__.split(".")[0])
            return real(rows, work, **kwargs)

        real = spectral.row_blocks
        monkeypatch.setattr(spectral, "row_blocks", recorded)
        assignment, diagnostics = spectral_cluster(w, 5, np.random.default_rng(0))
        normalized_laplacian(w)
        assert diagnostics["eigensolver"] == eigensolver
        # every n x n pass of the run is a product with W or |M|_F^2
        assert set(passes) <= {"_product", "_frobenius_sq"}
        assert ("_frobenius_sq" in passes) == (eigensolver == "subspace")
        # with every degree 4, M is W / 4: the Laplacian is I - W / 4
        # exactly, the solver's eigenvalues are those of I - W / 4, and
        # ncut's volumes are 4 |A|
        four = spectral._trusted(
            AdjacencyMatrix, values=w.values, bandwidth_sigma=w.bandwidth_sigma,
            degrees=np.full(n, 4.0),
        )
        lap = normalized_laplacian(four)
        assert lap[0, 1] == -w.values[0, 1] / 4.0
        _, eigenvalues, solver = spectral_embedding(four, 5)
        assert solver == eigensolver
        expected = np.linalg.eigvalsh(np.eye(n) - w.values / 4.0)[:5]
        np.testing.assert_allclose(eigenvalues, expected, rtol=1e-9, atol=1e-9)
        h = np.eye(5)[assignment.labels]
        cut = ((w.values @ (1.0 - h)) * h).sum(axis=0)
        expected = 0.5 * float((cut / (4.0 * h.sum(axis=0))).sum())
        assert ncut(four, assignment) == pytest.approx(expected, rel=1e-12)


# the kernel threads: the calling one alone, with one more, with two more
THREAD_SETTINGS = ("1", "2", "3")


def recorded_pools(monkeypatch) -> list:
    """The thread counts of the kernel pools that start from now on."""
    pools = []

    class Recorded(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Recorded)
    return pools


class TestProduct:
    """X^T W, the one product with W, in column blocks of _BLOCK_ROWS."""

    @staticmethod
    def problem(n: int):
        rng = np.random.default_rng(n)
        x = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        x += x.T
        np.fill_diagonal(x, 1.0)
        w = spectral._trusted(AdjacencyMatrix, values=x, bandwidth_sigma=1.0, degrees=x.sum(axis=1))
        return w, rng.standard_normal((spectral._block_columns(5), n))

    @pytest.mark.parametrize("n", [600, 2000])
    def test_threads_change_no_byte(self, n, monkeypatch):
        w, xt = self.problem(n)
        got = {}
        for threads in THREAD_SETTINGS:
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
            got[threads] = spectral._product(w, xt, np.empty_like(xt)).tobytes()
        assert got["2"] == got["1"]
        assert got["3"] == got["1"]

    @pytest.mark.parametrize("n", [600, 2000])
    def test_agrees_with_the_whole_product(self, n):
        w, xt = self.problem(n)
        out = spectral._product(w, xt, np.empty_like(xt))
        error = np.linalg.norm(out.T - w.values @ xt.T)
        eps = np.finfo(float).eps
        assert error <= n * eps * np.linalg.norm(w.values) * np.linalg.norm(xt)


class TestThreadedPasses:
    """A spectral run's n x n passes run in fixed blocks of _BLOCK_ROWS
    rows on the kernel threads; at n = 600 that is three blocks."""

    @pytest.fixture(scope="class")
    def groups(self):
        return generate_benchmark(7, 5, 600, 30).groups

    def test_threads_change_no_byte(self, groups, monkeypatch):
        models = estimate_gaussians(groups)
        labels = ClusterAssignment(np.arange(600) % 5, 5)
        pools = recorded_pools(monkeypatch)
        got = {}
        for threads in THREAD_SETTINGS:
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
            pools.clear()
            dm = mean_euclidean_matrix(models)
            kernels = [kernelize(dm, **options) for options in
                       ({}, {"sigma": 0.7}, {"on_sqrt": True}, {"on_sqrt": True, "sigma": 0.7})]
            basis, eigenvalues, eigensolver = spectral_embedding(kernels[0], 5)
            result = run_pipeline(groups, PipelineConfig("spectral_means", k=5, seed=4))
            got[threads] = (
                dm.values.tobytes(),
                [(w.values.tobytes(), w.bandwidth_sigma) for w in kernels],
                basis.tobytes(), eigenvalues.tobytes(), eigensolver,
                ncut(kernels[0], labels),
                result.assignment.labels.tobytes(), result.diagnostics,
            )
            assert eigensolver == "subspace"
            # every pass took a pool of threads - 1 helpers, or none on one thread
            assert set(pools) == ({int(threads) - 1} if threads != "1" else set())
        assert got["2"] == got["1"]
        assert got["3"] == got["1"]

    def test_subspace_passes_share_one_pool(self, groups, monkeypatch):
        # the iteration's products and |M|_F^2 take one pool per call, which
        # ends with the call, and give the bytes of a pool per pass
        monkeypatch.setenv("DISTCLUST_THREADS", "2")
        w = kernelize(mean_euclidean_matrix(estimate_gaussians(groups)))
        pools = recorded_pools(monkeypatch)
        before = threading.active_count()
        shared = _subspace_bottom(w, 5)
        assert pools == [1]
        assert threading.active_count() == before
        per_pass = _subspace_bottom.__wrapped__(w, 5)
        assert len(pools) > 3
        assert [a.tobytes() for a in shared] == [a.tobytes() for a in per_pass]

    def test_one_block_starts_no_pool(self, monkeypatch):
        # at n = 200 every pass is one block, on the calling thread
        def refused(*args, **kwargs):
            pytest.fail("a kernel pool started")

        monkeypatch.setenv("DISTCLUST_THREADS", "2")
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", refused)
        groups = generate_benchmark(7, 5, 200, 30).groups
        result = run_pipeline(groups, PipelineConfig("spectral_means", k=5))
        # the subspace iteration ran, with its certificate's |M|_F^2 pass
        assert result.diagnostics["eigensolver"] == "subspace"

    def test_threads_end_with_the_run(self, groups, monkeypatch):
        monkeypatch.setenv("DISTCLUST_THREADS", "2")
        pools = recorded_pools(monkeypatch)
        before = threading.active_count()
        run_pipeline(groups, PipelineConfig("spectral_means", k=5))
        assert pools
        assert threading.active_count() == before
        if sys.platform == "linux":
            # the next trial pool forks, as from a process running one thread
            assert pipeline._start_method() == ("fork" if before == 1 else "spawn")

