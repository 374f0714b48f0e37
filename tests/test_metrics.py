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
from distclust.gaussian import GaussianModel, SampleGroup, estimate_gaussian
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
            a = estimate_gaussian(SampleGroup("g", rng.standard_normal((max(2, d), d))))
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
        else estimate_gaussian(SampleGroup(f"g{i}", rng.standard_normal((max(2, d), d))))
        for i in range(n)
    ]


# the kernels on the calling thread alone, and on it and one more
THREAD_SETTINGS = ("1", "2")


class TestDistanceMatrixBuilder:
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
                        # pair kernel, in a block of rows or a batch of one
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


def spaced_models(n: int) -> list[GaussianModel]:
    """1-d unit-variance models 10 apart, except pairs (2, 3) and (9, 10),
    0.5 apart: every divergence of those two pairs is below 1, of the rest
    above 10."""
    means = 10.0 * np.arange(n)
    means[3], means[10] = means[2] + 0.5, means[9] + 0.5
    return [GaussianModel(np.array([m]), SymMatrix(np.eye(1))) for m in means]


class TestPairBlocks:
    @pytest.mark.parametrize("metric", [METRIC_WASSERSTEIN_SQ, METRIC_KL])
    def test_blocks_hold_the_computed_pairs_in_row_major_order(self, metric):
        for n in range(1, 30):
            for size in (1, 2, 5, 17, 100):
                count, pairs = _pair_blocks(n, metric, size)
                got = []
                for b in range(count):
                    I, J = pairs(b)
                    rows = np.broadcast_to(I, J.shape)
                    # whole rows, grouped up to size pairs; a longer row alone
                    assert J.size <= size or rows.min() == rows.max(), (n, size, b)
                    got += list(zip(rows.tolist(), J.tolist()))
                assert got == computed_entries(n, metric), (n, size)

    @pytest.mark.parametrize("metric", list(SCALARS))
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
            # only W2's blocks leave the calling thread
            assert len(seen) == (2 if threads == "2" and metric == METRIC_WASSERSTEIN_SQ else 1)
        assert got["1"] == got["2"]

    @pytest.mark.parametrize("metric", list(SCALARS))
    def test_first_failing_block_names_the_error(self, metric, monkeypatch):
        # pair (2, 3) fails in the second block and (9, 10) in a later one;
        # the second block is held up, so with W2 on two threads the later
        # block fails first, and the error still names (2, 3)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK_BYTES", 8 * 24)
        models = spaced_models(12)
        kernel = metrics._PAIR_KERNELS[metric]
        blocks, failed = [], []

        def held_up(f, I, J):
            pairs = list(zip(np.broadcast_to(I, J.shape).tolist(), J.tolist()))
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
        # kl's blocks are single rows, so rows 0 and 1 come first
        assert block_of[(2, 3)] == (2 if metric == METRIC_KL else 1)
        assert block_of[(9, 10)] > block_of[(2, 3)]
        monkeypatch.setattr(metrics, "NEGATIVE_CLAMP", -1.0)
        for threads in THREAD_SETTINGS:
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
            failed.clear()
            with pytest.raises(NumericalError, match=r"^pair \(2, 3\): "):
                distance_matrix(models, metric)
            if threads == "2" and metric == METRIC_WASSERSTEIN_SQ:
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

    def test_peak_memory_holds_no_n_n_d_array(self, rng):
        n, d = 1000, 7
        models = [
            GaussianModel(mean, SymMatrix(np.eye(d))) for mean in rng.standard_normal((n, d))
        ]
        tracemalloc.start()
        try:
            mean_euclidean_matrix(models)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an (n, n, d) difference array alone would be d * n * n * 8 bytes
        assert peak < 4 * n * n * 8


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

    def test_singular_center_named(self, rng):
        models = [random_model(2, rng) for _ in range(3)]
        centers = [models[0], GaussianModel(np.zeros(2), SymMatrix(np.diag([1.0, 0.0])))]
        with pytest.raises(SingularMatrix, match=r"^center 1: "):
            kl_table(models, centers)
