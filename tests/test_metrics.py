import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_model
from distclust import matrixcore, metrics, parallel, pipeline
from distclust.errors import (
    DimensionMismatch,
    InvalidMatrix,
    NotPositiveSemidefinite,
    NumericalError,
    SingularMatrix,
)
from distclust.gaussian import GaussianModel, SampleGroup, estimate_gaussians
from distclust.matrixcore import SymMatrix, psd_root, spd_roots
from distclust.metrics import (
    _bhattacharyya_pairs,
    _factors,
    _pair_blocks,
    _stack,
    METRIC_BHATTACHARYYA,
    METRIC_EUCLIDEAN,
    METRIC_KL,
    METRIC_WASSERSTEIN_SQ,
    DistanceMatrix,
    bhattacharyya,
    distance_matrix,
    kl_divergence,
    kl_divergence_table,
    kl_factors,
    mean_euclidean_matrix,
    wasserstein_sq,
)


def scalar_1d(mean: float, var: float) -> GaussianModel:
    return GaussianModel(np.array([mean]), SymMatrix([[var]]))


class TestWassersteinSq:
    def test_known_one_dimensional(self):
        # |0-1|^2 + (1 + 4 - 2*2) = 2
        assert wasserstein_sq(scalar_1d(0, 1), scalar_1d(1, 4)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_commuting_covariances(self):
        a = GaussianModel(np.zeros(2), SymMatrix(np.diag([1.0, 4.0])))
        b = GaussianModel(np.zeros(2), SymMatrix(np.diag([4.0, 1.0])))
        # Tr(S1) + Tr(S2) - 2 Tr(sqrt(S1 S2)) = 5 + 5 - 2*4
        assert wasserstein_sq(a, b) == pytest.approx(2.0, abs=1e-10)

    def test_mean_shift_only(self):
        cov = SymMatrix([[2.0, 0.5], [0.5, 1.0]])
        a = GaussianModel(np.array([0.0, 0.0]), cov)
        b = GaussianModel(np.array([3.0, 4.0]), cov)
        assert wasserstein_sq(a, b) == pytest.approx(25.0, abs=1e-9)

    def test_identity_and_symmetry(self, rng):
        for _ in range(15):
            a = random_model(3, rng)
            b = random_model(3, rng)
            assert wasserstein_sq(a, a) <= 1e-9
            assert wasserstein_sq(a, b) == pytest.approx(
                wasserstein_sq(b, a), abs=1e-9
            )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            wasserstein_sq(random_model(2, rng), random_model(3, rng))


    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e6])
    def test_duplicate_groups_at_any_scale(self, scale):
        # W2 between the models of two equal groups cancels to rounding that
        # grows with the data's scale, beyond NEGATIVE_CLAMP from about 1;
        # it is clamped to 0 in the matrix, and the pair clusters together
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x, y = (scale * (rng.standard_normal((30, 7)) @ rng.standard_normal((7, 7)))
                    for _ in range(2))
            groups = [SampleGroup("a", x), SampleGroup("b", x.copy()), SampleGroup("c", y)]
            dm = distance_matrix(estimate_gaussians(groups), METRIC_WASSERSTEIN_SQ)
            assert 0.0 <= dm.values[0, 1] <= 1e-10 * dm.values[0, 2], seed
            if seed < 5:
                config = pipeline.PipelineConfig(algorithm="wasserstein_spectral", k=2)
                labels = pipeline.run_pipeline(groups, config).assignment.labels
                assert labels[0] == labels[1] != labels[2], seed


class TestBhattacharyya:
    def test_known_one_dimensional(self):
        # (1/8) * 1 / 2.5 + 0.5 * ln(2.5 / sqrt(4))
        expected = 0.05 + 0.5 * np.log(1.25)
        assert bhattacharyya(scalar_1d(0, 1), scalar_1d(1, 4)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_identity_and_symmetry(self, rng):
        for _ in range(15):
            a = random_model(3, rng)
            b = random_model(3, rng)
            assert bhattacharyya(a, a) <= 1e-9
            assert bhattacharyya(a, b) == pytest.approx(bhattacharyya(b, a), abs=1e-9)
            assert bhattacharyya(a, b) >= 0.0

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_self_distance_is_exactly_zero(self, d, rng):
        # (S + S)/2 == S, so the pair factors exactly as the model does and
        # every term cancels, up to condition number 1e12 and for fits to
        # q = d samples (ridge-only for d > 1)
        for cond in (1.0, 1e3, 1e6, 1e9, 1e12):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            spectrum = np.logspace(0.0, np.log10(cond), d) * 10.0 ** rng.uniform(-2.0, 2.0)
            a = GaussianModel(rng.standard_normal(d), SymMatrix((q * spectrum) @ q.T))
            assert bhattacharyya(a, a) == 0.0, cond
        for _ in range(5):
            a = estimate_gaussians([SampleGroup("g", rng.standard_normal((max(2, d), d)))])[0]
            assert bhattacharyya(a, a) == 0.0

    def test_singular_averaged_covariance_names_first_pair(self):
        # a hand-built block of row 2, past the per-model checks: averaging
        # with model 2 leaves a zero eigenvalue at partners 4 and 5 only; low
        # per-model log-determinants keep pair (2, 3)'s value positive
        covs = [np.eye(3)] * 6
        covs[2] = np.diag([2.0, 0.0, 1.0])
        covs[4] = np.diag([1.0, 0.0, 3.0])
        covs[5] = np.diag([1.0, 0.0, 1.0])
        f = {"mean": np.zeros((6, 3)), "cov": np.stack(covs), "logdet": np.full(6, -10.0)}
        with pytest.raises(SingularMatrix, match=r"^pair \(2, 4\)"):
            _bhattacharyya_pairs(f, np.full(3, 2), np.arange(3, 6))


class TestKlDivergence:
    def test_known_both_directions(self):
        a, b = scalar_1d(0, 1), scalar_1d(1, 4)
        assert kl_divergence(a, b) == pytest.approx(0.4431471805599453, abs=1e-12)
        assert kl_divergence(b, a) == pytest.approx(1.3068528194400547, abs=1e-12)

    def test_zero_only_for_identical(self, rng):
        a = random_model(3, rng)
        same = GaussianModel(a.mean.copy(), SymMatrix(a.covariance.values.copy()))
        assert kl_divergence(a, same) <= 1e-9
        b = random_model(3, rng)
        assert kl_divergence(a, b) > 1e-3

    def test_asymmetric_in_general(self):
        a, b = scalar_1d(0, 1), scalar_1d(0, 9)
        assert kl_divergence(a, b) != pytest.approx(kl_divergence(b, a), abs=1e-3)

    def test_nonnegative(self, rng):
        for _ in range(20):
            assert kl_divergence(random_model(2, rng), random_model(2, rng)) >= 0.0


class TestDistanceMatrixContainer:
    def test_canonicalizes_noise(self):
        values = np.array([[1e-12, 1.0], [1.0 + 5e-12, -1e-12]])
        dm = DistanceMatrix(values, METRIC_WASSERSTEIN_SQ)
        assert dm.values[0, 0] == 0.0 and dm.values[1, 1] == 0.0
        assert dm.values[0, 1] == dm.values[1, 0]

    def test_rejects_large_negative(self):
        with pytest.raises(InvalidMatrix):
            DistanceMatrix([[0.0, -0.5], [-0.5, 0.0]], METRIC_WASSERSTEIN_SQ)

    def test_rejects_large_diagonal(self):
        with pytest.raises(InvalidMatrix):
            DistanceMatrix([[0.5, 1.0], [1.0, 0.0]], METRIC_WASSERSTEIN_SQ)

    def test_rejects_asymmetric_for_symmetric_metric(self):
        with pytest.raises(InvalidMatrix):
            DistanceMatrix([[0.0, 1.0], [2.0, 0.0]], METRIC_BHATTACHARYYA)

    def test_kl_matrix_may_be_asymmetric(self):
        dm = DistanceMatrix([[0.0, 1.0], [2.0, 0.0]], METRIC_KL)
        assert dm.values[0, 1] == 1.0 and dm.values[1, 0] == 2.0
        assert not dm.is_symmetric

    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidMatrix):
            DistanceMatrix(np.zeros((2, 2)), "hamming")

    @pytest.mark.parametrize("values, shape", [
        (np.zeros((2, 3)), "(2, 3)"), (np.zeros(3), "(3,)"), (np.zeros((0, 0)), "(0, 0)"),
    ])
    def test_rejects_non_square(self, values, shape):
        message = f"^expected a square matrix, got shape {re.escape(shape)}$"
        with pytest.raises(InvalidMatrix, match=message):
            DistanceMatrix(values, METRIC_WASSERSTEIN_SQ)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidMatrix, match="^distance entries must be finite$"):
            DistanceMatrix([[0.0, bad], [bad, 0.0]], METRIC_WASSERSTEIN_SQ)

    @pytest.mark.parametrize("metric", [METRIC_WASSERSTEIN_SQ, METRIC_KL])
    def test_canonical_bytes_match_whole_matrix_form(self, metric, rng):
        # n spans several row blocks; the noise, the -0.0 entries and the
        # tiny negatives all lie within tolerance
        n = 600
        upper = np.triu(rng.uniform(0.0, 50.0, (n, n)), 1)
        values = upper + upper.T + rng.uniform(-4e-10, 4e-10, (n, n))
        zeros = rng.random((n, n)) < 0.01
        values[zeros | zeros.T] = -0.0
        a = np.array(values)
        np.fill_diagonal(a, 0.0)
        np.clip(a, 0.0, None, out=a)
        if metric == METRIC_WASSERSTEIN_SQ:
            upper = np.triu(a, 1)
            a = upper + upper.T
        assert DistanceMatrix(values, metric).values.tobytes() == a.tobytes()


SCALARS = {
    METRIC_WASSERSTEIN_SQ: wasserstein_sq,
    METRIC_BHATTACHARYYA: bhattacharyya,
    METRIC_KL: kl_divergence,
}


def computed_entries(n: int, metric: str):
    """The (i, j) a matrix computes directly, in row-major order."""
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i < j or (metric == METRIC_KL and i != j)
    ]


def mixed_models(n: int, d: int, rng) -> list[GaussianModel]:
    """Well-conditioned models interleaved with fits to q = d samples, whose
    covariances (q - 1 < d for d > 1) are invertible only through the ridge."""
    return [
        random_model(d, rng)
        if i % 2 == 0
        else estimate_gaussians([SampleGroup(f"g{i}", rng.standard_normal((max(2, d), d)))])[0]
        for i in range(n)
    ]


# the kernels on the calling thread alone, and on it and one more
THREAD_SETTINGS = ("1", "2")


class TestDistanceMatrixBuilder:
    @pytest.mark.parametrize("metric", list(SCALARS) + [METRIC_EUCLIDEAN])
    def test_no_models_is_refused(self, metric):
        with pytest.raises(InvalidMatrix, match="^need at least one model$"):
            distance_matrix([], metric)

    @pytest.mark.parametrize("metric", list(SCALARS) + [METRIC_EUCLIDEAN])
    def test_public_constructor_keeps_bytes(self, metric, rng):
        # the matrix is built without DistanceMatrix's checks; they would
        # change nothing
        models = mixed_models(40, 3, rng)
        dm = distance_matrix(models, metric)
        again = DistanceMatrix(dm.values, metric)
        assert again.values.tobytes() == dm.values.tobytes()
        assert dm.metric == metric
        with pytest.raises(ValueError):
            dm.values[0, 1] = 1.0

    @pytest.mark.parametrize("metric", list(SCALARS))
    def test_matches_scalar_calls(self, metric, rng, monkeypatch):
        # n = 33 is one block at d = 1, two at d = 2, and single rows and
        # grouped short rows at d = 7
        monkeypatch.setattr(metrics, "_PAIR_BLOCK_BYTES", 8 * 49 * 40)
        scalar = SCALARS[metric]
        for n in (2, 3, 33):
            for d in (1, 2, 7):
                models = mixed_models(n, d, rng)
                for threads in THREAD_SETTINGS:
                    monkeypatch.setenv("DISTCLUST_THREADS", threads)
                    dm = distance_matrix(models, metric)
                    for i, j in computed_entries(n, metric):
                        # a computed entry and the scalar call run the same
                        # pair kernel, in a block of rows or a batch of one,
                        # or for kl the same column function
                        want = np.float64(scalar(models[i], models[j]))
                        assert dm.values[i, j].tobytes() == want.tobytes(), (n, d, i, j)

    @pytest.mark.parametrize("metric", [METRIC_WASSERSTEIN_SQ, METRIC_BHATTACHARYYA])
    def test_mirrored_entries_match_reversed_scalar(self, metric, rng):
        # the mirrored triangle is a copy of the computed one, and on
        # well-conditioned models the scalar call with its operands swapped
        # agrees with it to rounding
        models = [random_model(3, rng) for _ in range(5)]
        dm = distance_matrix(models, metric)
        for i, j in computed_entries(5, metric):
            assert dm.values[j, i] == dm.values[i, j]
            assert dm.values[j, i] == pytest.approx(
                SCALARS[metric](models[j], models[i]), rel=1e-12
            )

    def test_symmetric_metrics_mirror_exactly(self, rng):
        models = [random_model(4, rng) for _ in range(6)]
        for metric in (METRIC_WASSERSTEIN_SQ, METRIC_BHATTACHARYYA):
            dm = distance_matrix(models, metric)
            assert np.array_equal(dm.values, dm.values.T)

    @pytest.mark.parametrize("metric", list(SCALARS))
    def test_forced_value_failure_names_first_pair(self, metric, rng, monkeypatch):
        models = [random_model(3, rng) for _ in range(7)]
        values = distance_matrix(models, metric).values
        entries = computed_entries(7, metric)
        # raising the guard above some entries fails exactly those; the error
        # names the first of them in row-major order, whatever row it is in
        threshold = float(np.median([values[i, j] for i, j in entries]))
        first = next((i, j) for i, j in entries if values[i, j] < threshold)
        monkeypatch.setattr(metrics, "NEGATIVE_CLAMP", -threshold)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK_BYTES", 1)  # one row per block
        for threads in THREAD_SETTINGS:
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
            with pytest.raises(NumericalError, match=rf"^pair {re.escape(str(first))}: "):
                distance_matrix(models, metric)
        i, j = first
        with pytest.raises(NumericalError, match=r"^pair \(0, 1\): "):
            SCALARS[metric](models[i], models[j])

    def test_forced_psd_failure_names_pair(self, monkeypatch):
        # with a floor of -0.5 an inner matrix fails once its smallest
        # eigenvalue drops below half its largest, while every model (scale
        # 0.6 or more) passes; 0.6 * 0.7 at pair (2, 4) is the first product
        # under 0.5, and (2, 5) also fails
        scales = [1.0, 1.0, 0.6, 1.0, 0.7, 0.75]
        models = [
            GaussianModel(np.full(2, float(i)), SymMatrix(np.diag([s, 1.0])))
            for i, s in enumerate(scales)
        ]
        monkeypatch.setattr(matrixcore, "PSD_FLOOR", -0.5)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK_BYTES", 1)  # one row per block
        for threads in THREAD_SETTINGS:
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
            with pytest.raises(NotPositiveSemidefinite, match=r"^pair \(2, 4\): "):
                distance_matrix(models, METRIC_WASSERSTEIN_SQ)

    @pytest.mark.parametrize("metric", list(SCALARS))
    def test_overflowing_value_names_pair(self, metric):
        # both models are valid; only the divergence between them overflows
        a = GaussianModel(np.zeros(2), SymMatrix(np.eye(2)))
        b = GaussianModel(np.full(2, 1e160), SymMatrix(np.eye(2)))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match=r"^pair \(0, 1\): .* evaluated to inf$"):
                SCALARS[metric](a, b)
            with pytest.raises(NumericalError, match=r"^pair \(0, 2\): "):
                distance_matrix([a, a, b], metric)

    def test_kl_scalar_evaluates_only_its_direction(self):
        # KL(b || a) overflows to inf (S_a^{-1/2} dm is 1e160), KL(a || b)
        # does not; a scalar that also evaluated the reverse would raise
        a = GaussianModel(np.zeros(2), SymMatrix(1e-300 * np.eye(2)))
        b = GaussianModel(np.full(2, 1e10), SymMatrix(np.eye(2)))
        assert kl_divergence(a, b) == pytest.approx(1e20, rel=1e-12)
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match=r"^pair \(0, 1\): KL divergence evaluated to inf$"
        ):
            kl_divergence(b, a)

    def test_nan_bhattacharyya_names_pair(self):
        # the forward substitution meets 0 * inf, which is nan
        a = GaussianModel(np.zeros(2), SymMatrix(1e-300 * np.eye(2)))
        b = GaussianModel(np.full(2, 1e200), SymMatrix(1e-300 * np.eye(2)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"^pair \(0, 1\): .* evaluated to nan$"):
                bhattacharyya(a, b)

    def test_overflowing_inner_matrix_names_pair(self):
        huge = GaussianModel(np.zeros(2), SymMatrix(1e160 * np.eye(2)))
        with np.errstate(over="ignore"), pytest.raises(InvalidMatrix, match=r"^pair \(0, 1\): "):
            distance_matrix([huge, huge], METRIC_WASSERSTEIN_SQ)

    def test_pair_context_on_failure(self, rng):
        # a singular covariance fails its own factorization, which names the
        # model before any pair is computed
        for metric in (METRIC_BHATTACHARYYA, METRIC_KL):
            for bad_index in (0, 2):
                models = [random_model(2, rng) for _ in range(4)]
                models[bad_index] = GaussianModel(
                    np.zeros(2), SymMatrix(np.diag([1.0, 0.0]))
                )
                with pytest.raises(SingularMatrix, match=rf"^model {bad_index}: "):
                    distance_matrix(models, metric)

    def test_unknown_metric(self, rng):
        with pytest.raises(InvalidMatrix):
            distance_matrix([random_model(2, rng)], "cosine")

    def test_mixed_dimensions_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            distance_matrix([random_model(2, rng), random_model(3, rng)], METRIC_KL)


def worker_kernel_threads(_) -> int:
    return parallel.kernel_threads()


def kernel_helpers() -> list[threading.Thread]:
    """The live helper threads of kernel scopes."""
    return [t for t in threading.enumerate() if t.name.startswith("distclust-kernel")]


def counted_pools(monkeypatch) -> list[int]:
    """The helper count of every pool that ``parallel`` starts from now on."""
    pools, real = [], parallel.ThreadPoolExecutor
    monkeypatch.setattr(parallel, "ThreadPoolExecutor",
                        lambda workers, **kwargs: pools.append(workers) or real(workers, **kwargs))
    return pools


def spaced_models(n: int) -> list[GaussianModel]:
    """1-d unit-variance models 10 apart, except pairs (2, 3) and (9, 10),
    0.5 apart: every divergence of those two pairs is below 1, of the rest
    above 10."""
    means = 10.0 * np.arange(n)
    means[3], means[10] = means[2] + 0.5, means[9] + 0.5
    return [GaussianModel(np.array([m]), SymMatrix(np.eye(1))) for m in means]


# the metrics whose matrices are built in pair blocks; kl's is built by columns
PAIR_METRICS = (METRIC_WASSERSTEIN_SQ, METRIC_BHATTACHARYYA)


class TestPairBlocks:
    def test_blocks_hold_the_upper_triangle_in_row_major_order(self):
        for n in range(1, 30):
            for size in (1, 2, 5, 17, 100):
                count, pairs = _pair_blocks(n, size)
                got = []
                for b in range(count):
                    I, J = pairs(b)
                    assert I.shape == J.shape, (n, size, b)
                    # whole rows, grouped up to size pairs; a longer row alone
                    assert J.size <= size or I.min() == I.max(), (n, size, b)
                    got += list(zip(I.tolist(), J.tolist()))
                assert got == computed_entries(n, METRIC_WASSERSTEIN_SQ), (n, size)

    @pytest.mark.parametrize("metric", PAIR_METRICS)
    def test_threads_change_no_byte(self, metric, rng, monkeypatch):
        # a block of about 6 pairs: dozens of blocks, each held up a little
        # so that the second thread takes some of them
        monkeypatch.setattr(metrics, "_PAIR_BLOCK_BYTES", 8 * 4 * 6)
        kernel = metrics._PAIR_KERNELS[metric]
        seen = set()

        def recorded(*args):
            seen.add(threading.get_ident())
            time.sleep(0.002)
            return kernel(*args)

        monkeypatch.setitem(metrics._PAIR_KERNELS, metric, recorded)
        models = mixed_models(30, 2, rng)
        got = {}
        for threads in THREAD_SETTINGS:
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
            seen.clear()
            got[threads] = distance_matrix(models, metric).values.tobytes()
            # both metrics' blocks leave the calling thread on two threads
            assert len(seen) == int(threads)
        assert got["1"] == got["2"]

    @pytest.mark.parametrize("metric", PAIR_METRICS)
    def test_first_failing_block_names_the_error(self, metric, monkeypatch):
        # pair (2, 3) fails in the second block and (9, 10) in a later one;
        # the second block is held up, so on two threads the later block
        # fails first, and the error still names (2, 3)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK_BYTES", 8 * 24)
        models = spaced_models(12)
        kernel = metrics._PAIR_KERNELS[metric]
        blocks, failed = [], []

        def held_up(f, I, J):
            pairs = list(zip(I.tolist(), J.tolist()))
            blocks.append(pairs)
            if (2, 3) in pairs:
                time.sleep(0.2)
            try:
                return kernel(f, I, J)
            except NumericalError as exc:
                failed.append(str(exc).split(":")[0])
                raise

        monkeypatch.setitem(metrics._PAIR_KERNELS, metric, held_up)
        monkeypatch.setenv("DISTCLUST_THREADS", "1")
        distance_matrix(models, metric)
        block_of = {pair: b for b, pairs in enumerate(blocks) for pair in pairs}
        assert block_of[(2, 3)] == 1
        assert block_of[(9, 10)] > block_of[(2, 3)]
        monkeypatch.setattr(metrics, "NEGATIVE_CLAMP", -1.0)
        for threads in THREAD_SETTINGS:
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
            failed.clear()
            with pytest.raises(NumericalError, match=r"^pair \(2, 3\): "):
                distance_matrix(models, metric)
            if threads == "2":
                assert failed == ["pair (9, 10)", "pair (2, 3)"]
            else:
                assert failed == ["pair (2, 3)"]

    def test_helper_threads_keep_the_callers_errstate(self, monkeypatch):
        # the overflowing pairs lie in blocks the second thread may take;
        # under the caller's errstate no thread warns, and the error is typed
        monkeypatch.setattr(metrics, "_PAIR_BLOCK_BYTES", 1)  # one row per block
        monkeypatch.setenv("DISTCLUST_THREADS", "2")
        a = GaussianModel(np.zeros(2), SymMatrix(np.eye(2)))
        b = GaussianModel(np.full(2, 1e160), SymMatrix(np.eye(2)))
        models = [a] * 8 + [b]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(5):
                with np.errstate(over="ignore"), pytest.raises(
                    NumericalError, match=r"^pair \(0, 8\): "
                ):
                    distance_matrix(models, METRIC_WASSERSTEIN_SQ)

    def test_pool_workers_run_kernels_on_one_thread(self, monkeypatch):
        monkeypatch.setenv("DISTCLUST_THREADS", "2")
        assert parallel.kernel_threads() == 2
        assert pipeline._map_trials(worker_kernel_threads, [None, None], 2) == [1, 1]
        assert parallel.kernel_threads() == 2


class TestRunBlocks:
    """The block runner under contention: more threads than cores and a
    switch interval short enough to interleave every claim."""

    @pytest.fixture(autouse=True)
    def short_switch_interval(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def test_every_block_runs_once(self):
        ran = []
        parallel.run_blocks(ran.append, 3000, 8)
        assert sorted(ran) == list(range(3000))

    def test_lowest_failing_block_is_raised(self):
        def work(b):
            if b % 97 == 41:
                raise ValueError(b)

        for _ in range(20):
            with pytest.raises(ValueError, match="^41$"):
                parallel.run_blocks(work, 3000, 8)

    def test_failure_cancels_blocks_not_started(self):
        # block 0 fails at once while the others take a millisecond each:
        # no block is submitted after the failure and those not started are
        # cancelled, so few start, and none starts after run_blocks returns
        started = []

        def work(b):
            started.append(b)
            if b == 0:
                raise ValueError(b)
            time.sleep(0.001)

        with pytest.raises(ValueError, match="^0$"):
            parallel.run_blocks(work, 3000, 8)
        ran = len(started)
        assert ran <= 100
        assert not [t for t in threading.enumerate() if t.name.startswith("distclust-kernel")]
        time.sleep(0.05)
        assert len(started) == ran

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_caller_runs_blocks_next_to_fewer_pool_threads(self, threads):
        # 200 blocks of a millisecond: the calling thread claims some of
        # them, and at most threads - 1 kernel threads run the rest
        caller = threading.current_thread().name
        ran = {}

        def work(b):
            ran[b] = threading.current_thread().name
            time.sleep(0.001)

        parallel.run_blocks(work, 200, threads)
        assert sorted(ran) == list(range(200))
        helpers = set(ran.values()) - {caller}
        assert caller in ran.values()
        assert len(helpers) <= threads - 1
        assert all(name.startswith("distclust-kernel") for name in helpers)

    def test_interrupt_in_a_caller_block_stops_the_claims(self, monkeypatch):
        # each kernel thread holds its first block until the counter is set
        # past the end; the caller's first block waits for them and is
        # interrupted, so no block starts after the interrupt
        threads, caller = 4, threading.current_thread()
        started, stopped = [], threading.Event()
        stop = parallel._stop

        def stop_and_tell(*args):
            stop(*args)
            stopped.set()

        def work(b):
            started.append(b)
            if threading.current_thread() is not caller:
                if len(started) <= threads:
                    stopped.wait(timeout=5)
                return
            while len(started) < threads:
                time.sleep(0.001)
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "_stop", stop_and_tell)
        with pytest.raises(KeyboardInterrupt):
            parallel.run_blocks(work, 200, threads)
        assert stopped.is_set()
        assert len(started) == threads
        assert not [t for t in threading.enumerate() if t.name.startswith("distclust-kernel")]
        time.sleep(0.05)
        assert len(started) == threads

    def test_kernel_scope_serves_every_call_in_its_block(self, monkeypatch):
        # three calls on three threads take their helpers off one pool of
        # two, which is joined when the scope ends
        pools = counted_pools(monkeypatch)
        with parallel.kernel_scope(3):
            for _ in range(3):
                ran = []
                parallel.run_blocks(ran.append, 300, 3)
                assert sorted(ran) == list(range(300))
            assert kernel_helpers()
        assert pools == [2]
        assert not kernel_helpers()
        # outside a scope, each call opens its own, with its own pool
        parallel.run_blocks(ran.append, 300, 3)
        assert pools == [2, 2]

    def test_failure_in_a_kernel_scope_joins_its_threads(self):
        def work(b):
            if b == 41:
                raise ValueError(b)

        with pytest.raises(ValueError, match="^41$"):
            with parallel.kernel_scope(4):
                parallel.run_blocks(work, 300, 4)
        assert not kernel_helpers()

    def test_failing_block_inside_a_scope_joins_every_helper(self, monkeypatch):
        # a failing block leaves the scope's pool to its next call, and the
        # scope's exit joins every helper the pool started
        pools = counted_pools(monkeypatch)

        def work(b):
            time.sleep(0.0005)
            if b == 150:
                raise ValueError(b)

        with pytest.raises(ValueError, match="^150$"):
            with parallel.kernel_scope(4):
                with pytest.raises(ValueError, match="^150$"):
                    parallel.run_blocks(work, 300, 4)
                assert kernel_helpers()
                parallel.run_blocks(work, 300, 4)
        assert pools == [3]
        assert not kernel_helpers()

    def test_unset_scope_inside_a_one_thread_scope_is_that_scope(self, monkeypatch):
        monkeypatch.setenv("DISTCLUST_THREADS", "4")
        pools = counted_pools(monkeypatch)
        caller = threading.get_ident()
        ran = set()
        with parallel.kernel_scope(1):
            with parallel.kernel_scope():
                assert parallel.kernel_threads() == 1
                parallel.run_blocks(lambda b: ran.add(threading.get_ident()), 300, 4)
                parallel.row_blocks(300 * parallel._BLOCK_ROWS, lambda s, e: None)
            assert parallel.kernel_threads() == 1
        assert parallel.kernel_threads() == 4
        assert ran == {caller}
        assert pools == []

    def test_scope_in_one_thread_leaves_another_threads_count(self, monkeypatch):
        # the scope is a context variable: a Python thread of the caller's
        # own that opens kernel_scope(1) changes no other thread's count
        monkeypatch.setenv("DISTCLUST_THREADS", "3")
        inside, seen = threading.Event(), threading.Event()
        counts = []

        def one_thread():
            with parallel.kernel_scope(1):
                counts.append(parallel.kernel_threads())
                inside.set()
                seen.wait(timeout=5)

        other = threading.Thread(target=one_thread)
        other.start()
        try:
            assert inside.wait(timeout=5)
            counts.append(parallel.kernel_threads())
        finally:
            seen.set()
            other.join(timeout=5)
        assert not other.is_alive()
        assert counts == [1, 3]

    def test_row_blocks_lend_each_buffer_to_one_block_at_a_time(self, monkeypatch):
        # 8 threads over 200 row blocks: no two running blocks share a
        # scratch buffer, and the results come back in block order
        monkeypatch.setenv("DISTCLUST_THREADS", "8")
        rows, n = parallel._BLOCK_ROWS, 200 * parallel._BLOCK_ROWS - 5
        held, lent, lock = set(), set(), threading.Lock()

        def work(s, e, buffer):
            with lock:
                assert id(buffer) not in held
                held.add(id(buffer))
                lent.add(id(buffer))
            buffer[:] = s
            time.sleep(0.0001)
            kept = bool((buffer == s).all())
            with lock:
                held.remove(id(buffer))
            return s, e, kept

        got = parallel.row_blocks(n, work, scratch=16)
        assert got == [(s, min(s + rows, n), True) for s in range(0, n, rows)]
        assert len(lent) <= 8


class TestMeanEuclidean:
    def test_hand_case(self):
        a = GaussianModel(np.array([0.0, 0.0]), SymMatrix(np.eye(2)))
        b = GaussianModel(np.array([3.0, 4.0]), SymMatrix(5.0 * np.eye(2)))
        dm = mean_euclidean_matrix([a, b])
        assert dm.metric == METRIC_EUCLIDEAN
        assert dm.values[0, 1] == pytest.approx(5.0, abs=1e-12)

    def test_covariances_ignored(self, rng):
        mean = rng.standard_normal(3)
        a = GaussianModel(mean, SymMatrix(np.eye(3)))
        b = GaussianModel(mean, SymMatrix(7.0 * np.eye(3)))
        assert mean_euclidean_matrix([a, b]).values[0, 1] == 0.0

    def test_overflowing_distance_fails(self):
        # finite means 2e200 apart: the squared difference overflows
        models = [GaussianModel(np.array([v]), SymMatrix(np.eye(1))) for v in (1e200, -1e200)]
        with pytest.raises(InvalidMatrix, match="distance entries must be finite"):
            mean_euclidean_matrix(models)


    @pytest.mark.parametrize("n, d", [(1, 3), (2, 1), (300, 7), (600, 20)])
    def test_matches_whole_difference_array_bytes(self, n, d, rng):
        models = [random_model(d, rng, spread=10.0) for _ in range(n)]
        means = np.stack([m.mean for m in models])
        diff = means[:, None, :] - means[None, :, :]
        upper = np.triu(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), 1)
        expected = upper + upper.T
        assert mean_euclidean_matrix(models).values.tobytes() == expected.tobytes()

    def test_peak_memory_holds_no_n_n_d_array(self, rng, monkeypatch):
        n, d = 1000, 7
        models = [
            GaussianModel(mean, SymMatrix(np.eye(d))) for mean in rng.standard_normal((n, d))
        ]
        for threads in THREAD_SETTINGS:
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
            tracemalloc.start()
            try:
                mean_euclidean_matrix(models)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # an (n, n, d) difference array alone would be d * n * n * 8
            # bytes; the matrix and one 1 MiB difference buffer per thread
            # are 1.16 n * n * 8 on one thread and 1.30 on two, where a
            # 4 MiB buffer per thread made it 2.09 on two
            assert peak < 1.75 * n * n * 8, threads

    @pytest.mark.parametrize("metric", [METRIC_WASSERSTEIN_SQ, METRIC_BHATTACHARYYA])
    def test_divergence_matrix_is_mirrored_in_place(self, metric, rng):
        n = 1000
        models = [random_model(3, rng) for _ in range(n)]
        tracemalloc.start()
        try:
            distance_matrix(models, metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the matrix and row-block temporaries: 1.41 n * n * 8 for either
        # metric, where adding the transpose held a second matrix (2.03)
        assert peak < 1.6 * n * n * 8


class TestStackedFactors:
    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_equal_per_model_calls_bytes(self, d, rng):
        models = mixed_models(9, d, rng)
        w2 = _factors(*_stack(models), METRIC_WASSERSTEIN_SQ)
        bh = _factors(*_stack(models), METRIC_BHATTACHARYYA)
        kl = _factors(*_stack(models), METRIC_KL)
        for i, m in enumerate(models):
            # each factor of the stack equals the model's own batch of one
            cov = m.covariance.values[None]
            assert w2["root"][i].tobytes() == psd_root(cov, str)[0].tobytes()
            assert w2["trace"][i] == float(np.trace(cov[0]))
            # Bhattacharyya's log-determinant comes from the Cholesky factor
            # its rows use, not from eigenvalues
            chol = np.linalg.cholesky(cov[0])
            assert bh["logdet"][i] == 2.0 * np.log(np.diagonal(chol)).sum()
            logdet, root, invroot = spd_roots(cov, str)
            assert kl["logdet"][i] == logdet[0]
            assert kl["root"][i].tobytes() == root[0].tobytes()
            assert kl["invroot"][i].tobytes() == invroot[0].tobytes()

    @pytest.mark.parametrize("metric", [METRIC_BHATTACHARYYA, METRIC_KL])
    def test_failure_names_first_singular_model(self, metric, rng):
        models = [random_model(2, rng) for _ in range(6)]
        for i in (2, 4):
            models[i] = GaussianModel(np.zeros(2), SymMatrix(np.diag([1.0, 0.0])))
        with pytest.raises(SingularMatrix, match=r"^model 2: non-positive eigenvalue"):
            _factors(*_stack(models), metric)

    def test_cholesky_failure_names_first_model(self, rng):
        # a rank-deficient covariance whose rounding leaves eigh a tiny
        # positive eigenvalue passes the eigenvalue check, and the failing
        # Cholesky factorization names it
        def flat():
            for _ in range(1000):
                q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                cov = (q * np.array([1.0, 1.0, 0.0])) @ q.T
                cov = (cov + cov.T) / 2.0
                if np.linalg.eigh(cov)[0][0] > 0.0:
                    try:
                        np.linalg.cholesky(cov)
                    except np.linalg.LinAlgError:
                        return GaussianModel(np.zeros(3), SymMatrix(cov))
            raise AssertionError("no such covariance in 1000 draws")

        models = [random_model(3, rng) for _ in range(5)]
        models[2], models[4] = flat(), flat()
        with pytest.raises(SingularMatrix, match=r"^model 2: Cholesky factorization failed"):
            distance_matrix(models, METRIC_BHATTACHARYYA)

    def test_psd_failure_names_model(self, monkeypatch):
        # a negative floor turns the PSD check into a conditioning check that
        # only the two flat covariances fail
        models = [GaussianModel(np.zeros(2), SymMatrix(np.eye(2))) for _ in range(5)]
        for i in (3, 4):
            models[i] = GaussianModel(np.zeros(2), SymMatrix(np.diag([1.0, 1e-6])))
        monkeypatch.setattr(matrixcore, "PSD_FLOOR", -1e-3)
        with pytest.raises(NotPositiveSemidefinite, match=r"^center 3: min eigenvalue"):
            _factors(*_stack(models), METRIC_WASSERSTEIN_SQ, what="center")


def kl_table(models, centers):
    return kl_divergence_table(kl_factors(models), *_stack(centers))


class TestKlDivergenceTable:
    def test_matches_scalar(self, rng):
        models = [random_model(3, rng) for _ in range(4)]
        centers = [random_model(3, rng) for _ in range(2)]
        table = kl_table(models, centers)
        assert table.shape == (4, 2)
        for i in range(4):
            for j in range(2):
                assert table[i, j] == pytest.approx(
                    kl_divergence(models[i], centers[j]), abs=1e-10
                )

    def test_self_distance_clamped_to_zero(self, rng):
        models = [random_model(2, rng) for _ in range(3)]
        table = kl_table(models, models)
        assert np.all(np.diagonal(table) <= 1e-10)
        assert np.all(table >= 0.0)

    def test_matches_kl_matrix_with_ridge_only_models(self, rng):
        # fits to q = d samples have condition numbers near 1e9; a model
        # taken as a center cancels against itself to about eps * sqrt(cond)
        # (an explicit inverse leaves eps * cond, ~1e-7), and every entry is
        # the kl matrix's entry to rounding
        for d in (1, 2, 7):
            models = mixed_models(8, d, rng)
            table = kl_table(models, models)
            assert np.all(np.diagonal(table) <= 1e-10), d
            off = ~np.eye(8, dtype=bool)
            want = distance_matrix(models, METRIC_KL).values
            assert np.allclose(table[off], want[off], rtol=1e-12, atol=0.0), d

    def test_forced_value_failure_names_model_and_center(self, rng, monkeypatch):
        models = [random_model(3, rng) for _ in range(5)]
        centers = [random_model(3, rng) for _ in range(3)]
        table = kl_table(models, centers)
        threshold = float(np.median(table))
        i, j = np.argwhere(table < threshold)[0]
        monkeypatch.setattr(metrics, "NEGATIVE_CLAMP", -threshold)
        with pytest.raises(NumericalError, match=rf"^model {i}, center {j}: "):
            kl_table(models, centers)

    def test_overflowing_value_names_model_and_center(self):
        a = GaussianModel(np.zeros(2), SymMatrix(np.eye(2)))
        b = GaussianModel(np.full(2, 1e160), SymMatrix(np.eye(2)))
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match=r"^model 2, center 0: KL divergence evaluated to inf$"
        ):
            kl_table([a, a, b], [a, a])

    def test_center_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch, match="centers do not match"):
            kl_table([random_model(2, rng)], [random_model(3, rng)])

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (2,)])
    def test_center_means_must_match_covariances(self, shape, rng):
        # 2 centers of dimension 3: each shape used to meet a bare IndexError,
        # a ValueError, or (1-d) broadcast into a (6, 2) table
        factors = kl_factors([random_model(3, rng) for _ in range(6)])
        covs = np.stack([random_model(3, rng).covariance.values for _ in range(2)])
        with pytest.raises(DimensionMismatch, match=re.escape(f"means of shape {shape}")):
            kl_divergence_table(factors, np.zeros(shape), covs)

    def test_singular_center_named(self, rng):
        models = [random_model(2, rng) for _ in range(3)]
        centers = [models[0], GaussianModel(np.zeros(2), SymMatrix(np.diag([1.0, 0.0])))]
        with pytest.raises(SingularMatrix, match=r"^center 1: "):
            kl_table(models, centers)
