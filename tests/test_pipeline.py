import json
import multiprocessing
import os
import pickle
import re
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from distclust import parallel, pipeline
from distclust.errors import DimensionMismatch, InvalidConfig, InvalidMatrix, RowError, _prefixed
from distclust.pipeline import (
    ALGO_BHATTACHARYYA,
    ALGO_KL,
    ALGO_KLPP,
    ALGO_KMEANS_MEANS,
    ALGO_SPECTRAL_MEANS,
    ALGO_WASSERSTEIN,
    ALGORITHMS,
    FAMILY_DISTRIBUTION,
    FAMILY_MEAN_ONLY,
    PipelineConfig,
    PipelineResult,
    algorithm_family,
    benchmark_stock,
    benchmark_synthetic,
    cluster_matrix,
    resolve_threads,
    run_pipeline,
)
from distclust.storage import canonical_json_bytes, write_report
from distclust.synthgen import derive_trial_seed, generate_benchmark
from distclust.evaluation import nmi
from distclust.gaussian import SampleGroup, estimate_gaussians
from distclust.metrics import distance_matrix, mean_euclidean_matrix

DISTRIBUTION_ALGOS = (ALGO_WASSERSTEIN, ALGO_BHATTACHARYYA, ALGO_KL, ALGO_KLPP)


def separated_groups(rng, per_cluster: int = 8, gap: float = 10.0):
    """Two far-apart families of sample groups plus truth labels."""
    groups = []
    truth = []
    for c in range(2):
        for i in range(per_cluster):
            center = np.array([c * gap, c * gap])
            scale = 1.0 + c  # the families also differ in spread
            samples = center + scale * rng.standard_normal((20, 2))
            groups.append(SampleGroup(f"g{c}_{i}", samples))
            truth.append(c)
    return groups, np.array(truth)


def fake_run_clock(monkeypatch) -> dict:
    """Make each clustering of fitted models take a fixed, per-algorithm time
    on a fake clock, so reported wall times are exact; returns the seconds
    per call."""
    clock = [0.0]
    cost = {alg: float(2**i) for i, alg in enumerate(ALGORITHMS)}
    real = pipeline._cluster_models

    def timed(models, config):
        clock[0] += cost[config.algorithm]
        return real(models, config)

    monkeypatch.setattr(pipeline, "_cluster_models", timed)
    monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    return cost


@pytest.fixture
def fits(monkeypatch) -> list:
    """The group count of every estimate_gaussians call the pipeline makes."""
    calls = []
    real = pipeline.estimate_gaussians

    def counted(groups, eps_scale=1e-8):
        calls.append(len(groups))
        return real(groups, eps_scale)

    monkeypatch.setattr(pipeline, "estimate_gaussians", counted)
    return calls


@pytest.fixture
def pools(monkeypatch) -> list:
    """The ``max_workers`` of each worker pool the pipeline creates, in
    creation order."""
    created = []

    class CountingPool(pipeline.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(kwargs["max_workers"])

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountingPool)
    return created


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(algorithm="dbscan", k=2)
        with pytest.raises(InvalidConfig):
            PipelineConfig(algorithm=ALGO_KL, k=1)
        with pytest.raises(InvalidConfig):
            PipelineConfig(algorithm=ALGO_KL, k=2, sigma=0.0)
        for eps_scale in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidConfig, match="^eps_scale must be finite and non-negative"):
                PipelineConfig(algorithm=ALGO_KL, k=2, eps_scale=eps_scale)
        with pytest.raises(InvalidConfig):
            PipelineConfig(algorithm=ALGO_KL, k=2, seed=-4)
        with pytest.raises(InvalidConfig):
            PipelineConfig(algorithm=ALGO_KL, k=2, max_iter=0)
        with pytest.raises(InvalidConfig):
            PipelineConfig(algorithm=ALGO_KL, k=2, restarts=0)

    @pytest.mark.parametrize("sigma", [np.inf, 1e300, 1e155, 1e154])
    def test_sigma_whose_kernel_divisor_overflows_is_rejected(self, sigma):
        # the check kernelize makes of a median bandwidth, made when the
        # bandwidth is a setting: 2 sigma^2 overflows from about 9.5e153
        with pytest.raises(InvalidConfig, match=rf"^sigma {re.escape(str(sigma))} is too large: 2 sigma\^2 overflows$"):
            PipelineConfig(algorithm=ALGO_WASSERSTEIN, k=2, sigma=sigma)
        PipelineConfig(algorithm=ALGO_WASSERSTEIN, k=2, sigma=9e153)

    def test_family_tags(self):
        assert algorithm_family(ALGO_KMEANS_MEANS) == FAMILY_MEAN_ONLY
        assert algorithm_family(ALGO_SPECTRAL_MEANS) == FAMILY_MEAN_ONLY
        for algo in DISTRIBUTION_ALGOS:
            assert algorithm_family(algo) == FAMILY_DISTRIBUTION


class TestRunPipeline:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_algorithm_runs_and_is_deterministic(self, algorithm, rng):
        groups, _ = separated_groups(rng, per_cluster=5)
        config = PipelineConfig(algorithm=algorithm, k=2, seed=3)
        a = run_pipeline(groups, config)
        b = run_pipeline(groups, config)
        assert a.assignment.n == len(groups)
        assert np.array_equal(a.assignment.labels, b.assignment.labels)
        assert a.algorithm == algorithm

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mixed_dimensions_are_refused_by_every_algorithm(self, algorithm, rng):
        dims = [2, 2, 2, 3, 3, 3]
        groups = [SampleGroup(f"g{i}", rng.normal(size=(6, d))) for i, d in enumerate(dims)]
        message = "^models of dimension 2 and 3 are not comparable$"
        with pytest.raises(DimensionMismatch, match=message):
            run_pipeline(groups, PipelineConfig(algorithm, k=2))

    @pytest.mark.parametrize("algorithm", [ALGO_KL, ALGO_KLPP])
    def test_kl_centers_take_the_configured_eps_scale(self, algorithm, rng, monkeypatch):
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs["eps_scale"])
            return real(*args, **kwargs)

        real = pipeline.kl_cluster
        monkeypatch.setattr(pipeline, "kl_cluster", recording)
        groups, _ = separated_groups(rng, per_cluster=3)
        for eps_scale in (0.0, 1e-8, 0.3):
            run_pipeline(groups, PipelineConfig(algorithm=algorithm, k=2, eps_scale=eps_scale))
        assert seen == [0.0, 1e-8, 0.3]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_separated_families_recovered(self, algorithm, rng):
        groups, truth = separated_groups(rng)
        config = PipelineConfig(algorithm=algorithm, k=2, seed=1)
        result = run_pipeline(groups, config)
        assert nmi(truth, result.assignment.labels) == pytest.approx(1.0, abs=1e-9)

    def test_diagnostics_by_family(self, rng):
        groups, _ = separated_groups(rng, per_cluster=4)
        spectral = run_pipeline(groups, PipelineConfig(algorithm=ALGO_WASSERSTEIN, k=2))
        assert {"metric", "bandwidth_sigma", "ncut"} <= set(spectral.diagnostics)
        # 8 groups are below the subspace solver's crossover
        assert spectral.diagnostics["eigensolver"] == "dense"
        kl = run_pipeline(groups, PipelineConfig(algorithm=ALGO_KL, k=2))
        assert {"iterations", "converged", "objective"} <= set(kl.diagnostics)
        km = run_pipeline(groups, PipelineConfig(algorithm=ALGO_KMEANS_MEANS, k=2))
        assert "wcss" in km.diagnostics
        # every algorithm's keys in order: reports and the parity check
        # read the dict as built
        spectral_keys = ["metric", "bandwidth_sigma", "ncut", "eigensolver"]
        kl_keys = ["iterations", "converged", "objective", "repairs"]
        expected = {
            ALGO_KMEANS_MEANS: ["wcss"],
            ALGO_SPECTRAL_MEANS: spectral_keys,
            ALGO_WASSERSTEIN: spectral_keys,
            ALGO_BHATTACHARYYA: spectral_keys,
            ALGO_KL: kl_keys,
            ALGO_KLPP: kl_keys,
        }
        assert set(expected) == set(ALGORITHMS)
        for algorithm, keys in expected.items():
            result = run_pipeline(groups, PipelineConfig(algorithm=algorithm, k=2))
            assert list(result.diagnostics) == keys, algorithm

    def test_option_warnings(self, rng):
        groups, _ = separated_groups(rng, per_cluster=4)
        result = run_pipeline(
            groups, PipelineConfig(algorithm=ALGO_KL, k=2, sigma=1.0)
        )
        assert any("sigma ignored for kl" in w for w in result.warnings)
        result = run_pipeline(
            groups,
            PipelineConfig(algorithm=ALGO_KMEANS_MEANS, k=2, kernel_on_sqrt=True),
        )
        assert any("kernel_on_sqrt ignored" in w for w in result.warnings)
        result = run_pipeline(
            groups, PipelineConfig(algorithm=ALGO_KL, k=2, klpp_squared=True)
        )
        assert any("klpp_squared ignored" in w for w in result.warnings)
        for algorithm in (ALGO_KL, ALGO_KLPP):
            result = run_pipeline(groups, PipelineConfig(algorithm=algorithm, k=2, restarts=3))
            assert result.warnings == (f"restarts ignored for {algorithm}",)
        result = run_pipeline(groups, PipelineConfig(algorithm=ALGO_KMEANS_MEANS, k=2, restarts=3))
        assert result.warnings == ()

    def test_explicit_sigma_respected(self, rng):
        groups, _ = separated_groups(rng, per_cluster=4)
        result = run_pipeline(
            groups, PipelineConfig(algorithm=ALGO_BHATTACHARYYA, k=2, sigma=2.5)
        )
        assert result.diagnostics["bandwidth_sigma"] == 2.5
        assert result.warnings == ()

    def test_cluster_matrix_is_the_spectral_path(self, rng):
        # run_pipeline's spectral algorithms are cluster_matrix on the fitted
        # models' matrix; a matrix of another metric, or an algorithm that
        # clusters no matrix, is a configuration error
        groups, _ = separated_groups(rng, per_cluster=5)
        models = estimate_gaussians(groups, 1e-8)
        matrices = {
            ALGO_SPECTRAL_MEANS: mean_euclidean_matrix(models),
            ALGO_WASSERSTEIN: distance_matrix(models, "wasserstein_sq"),
            ALGO_BHATTACHARYYA: distance_matrix(models, "bhattacharyya"),
        }
        for algorithm, dm in matrices.items():
            for on_sqrt in (False, True):
                for sigma in (None, 0.5):
                    config = PipelineConfig(
                        algorithm, k=2, seed=4, sigma=sigma, kernel_on_sqrt=on_sqrt, restarts=3
                    )
                    result = cluster_matrix(dm, config)
                    expected = run_pipeline(groups, config)
                    assert isinstance(result, PipelineResult)
                    assert result.algorithm == algorithm
                    assert np.array_equal(result.assignment.labels, expected.assignment.labels)
                    assert result.diagnostics == expected.diagnostics
                    assert result.warnings == expected.warnings == ()
                    if sigma is not None:
                        assert result.diagnostics["bandwidth_sigma"] == sigma
        config = PipelineConfig(ALGO_BHATTACHARYYA, k=2, seed=4, sigma=0.5, klpp_squared=True)
        result = cluster_matrix(matrices[ALGO_BHATTACHARYYA], config)
        expected = run_pipeline(groups, config)
        assert np.array_equal(result.assignment.labels, expected.assignment.labels)
        assert result.diagnostics == expected.diagnostics
        assert result.warnings == expected.warnings
        assert result.warnings == ("klpp_squared ignored for bhattacharyya_spectral",)
        with pytest.raises(InvalidConfig, match="expects a bhattacharyya matrix, got wasserstein_sq"):
            cluster_matrix(distance_matrix(models, "wasserstein_sq"), config)
        with pytest.raises(InvalidConfig, match="kl cannot run from a saved distance matrix"):
            cluster_matrix(distance_matrix(models, "kl"), replace(config, algorithm=ALGO_KL))

    def test_spectral_means_holds_one_n_by_n_array(self, monkeypatch):
        n = 2000
        models = estimate_gaussians(generate_benchmark(7, 5, n, 30).groups)
        # on one kernel thread and on two, whose passes share the row blocks
        for threads in ("1", "2"):
            monkeypatch.setenv("DISTCLUST_THREADS", threads)
            tracemalloc.start()
            try:
                pipeline._cluster_models(models, PipelineConfig(ALGO_SPECTRAL_MEANS, k=5))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the kernel is built in the mean distances' own array: 1.15
            # n * n * 8 with the row-block temporaries on either thread
            # count, where a second array made it 2.13
            assert peak < 1.3 * n * n * 8, threads

    @pytest.mark.parametrize("on_sqrt", [False, True])
    def test_cluster_matrix_leaves_a_callers_matrix_intact(self, on_sqrt, rng):
        groups, _ = separated_groups(rng, per_cluster=5)
        dm = distance_matrix(estimate_gaussians(groups, 1e-8), "wasserstein_sq")
        before = dm.values.tobytes()
        cluster_matrix(dm, PipelineConfig(ALGO_WASSERSTEIN, k=2, kernel_on_sqrt=on_sqrt))
        assert dm.values.tobytes() == before
        assert not dm.values.flags.writeable

    @pytest.mark.parametrize("on_sqrt", [False, True])
    @pytest.mark.parametrize("algorithm", [ALGO_WASSERSTEIN, ALGO_BHATTACHARYYA])
    def test_divergence_matrices_stay_intact(self, algorithm, on_sqrt, rng, monkeypatch):
        # a caller that wraps distance_matrix, as a tracing harness does, may
        # keep the matrices it returns
        kept = []

        def keeping(models, metric):
            kept.append((models, metric, real(models, metric)))
            return kept[-1][2]

        real = pipeline.distance_matrix
        monkeypatch.setattr(pipeline, "distance_matrix", keeping)
        groups, _ = separated_groups(rng, per_cluster=5)
        run_pipeline(groups, PipelineConfig(algorithm, k=2, kernel_on_sqrt=on_sqrt))
        assert len(kept) == 1
        for models, metric, dm in kept:
            assert dm.values.tobytes() == real(models, metric).values.tobytes()

    def test_too_few_groups(self, rng):
        groups, _ = separated_groups(rng, per_cluster=1)
        with pytest.raises(InvalidConfig):
            run_pipeline(groups, PipelineConfig(algorithm=ALGO_KL, k=5))


class TestBenchmarkSynthetic:
    def test_report_shape_and_scores(self):
        report = benchmark_synthetic(
            d_list=[3], k_list=[2], trials=3, base_seed=5,
            n_objects=16, samples_per_object=12, threads=1,
        )
        assert report["schema_version"] == 1
        assert report["kind"] == "synthetic"
        assert len(report["cells"]) == len(ALGORITHMS)
        for cell in report["cells"]:
            assert cell["trials"] == 3
            assert len(cell["scores"]) == 3
            scores = np.asarray(cell["scores"])
            assert cell["mean_nmi"] == pytest.approx(scores.mean())
            assert cell["var_nmi"] == pytest.approx(scores.var())
            assert 0.0 <= cell["mean_nmi"] <= 1.0

    def test_deterministic_across_runs(self):
        kwargs = dict(
            d_list=[2], k_list=[2], trials=2, base_seed=9,
            n_objects=12, samples_per_object=8, threads=1,
        )
        a = benchmark_synthetic(**kwargs)
        b = benchmark_synthetic(**kwargs)
        assert canonical_json_bytes(a) == canonical_json_bytes(b)

    def test_wall_time_sums_each_algorithms_measured_runs(self, monkeypatch):
        cost = fake_run_clock(monkeypatch)
        report = benchmark_synthetic(
            d_list=[2], k_list=[2], trials=3, base_seed=4,
            n_objects=10, samples_per_object=8, threads=1,
        )
        for cell in report["cells"]:
            assert cell["wall_time_s"] == 3 * cost[cell["algorithm"]]

    def test_one_fit_per_trial(self, fits):
        benchmark_synthetic(
            d_list=[2], k_list=[2, 3], trials=3, base_seed=4,
            n_objects=10, samples_per_object=8, threads=1,
        )
        assert fits == [10] * 6

    def test_algorithm_subset(self):
        report = benchmark_synthetic(
            d_list=[2], k_list=[2], trials=2, base_seed=1,
            algorithms=(ALGO_KL,), n_objects=10, samples_per_object=6, threads=1,
        )
        assert [c["algorithm"] for c in report["cells"]] == [ALGO_KL]

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            benchmark_synthetic(d_list=[2], k_list=[2], trials=0)
        with pytest.raises(InvalidConfig):
            benchmark_synthetic(
                d_list=[2], k_list=[2], trials=1, algorithms=("unknown",)
            )
        for empty in ({"d_list": []}, {"k_list": []}, {"algorithms": ()}):
            with pytest.raises(InvalidConfig, match=f"^{next(iter(empty))} must not be empty$"):
                benchmark_synthetic(**{"d_list": [2], "k_list": [2], "trials": 1, **empty})

    @pytest.mark.parametrize("shape, message", [
        ({"d_list": [3, 1]}, "d must be at least 2, got 1"),
        ({"k_list": [2, 1]}, "k must be at least 2, got 1"),
        ({"k_list": [2, 5], "n_objects": 4}, "need at least k=5 objects, got 4"),
        ({"samples_per_object": 1}, "need at least 2 samples per object, got 1"),
    ], ids=["d", "k", "n_objects", "samples_per_object"])
    def test_shape_no_draw_can_give_fails_before_any_trial(self, shape, message, pools):
        kwargs = {"d_list": [2], "k_list": [2], "trials": 4, "n_objects": 8, **shape}
        with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
            benchmark_synthetic(threads=2, **kwargs)
        assert pools == []


class TestTrialFailures:
    """An error inside a trial keeps its class and gains the trial's seed,
    whichever process ran the trial."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_synthetic_trial_names_its_seed(self, threads):
        # a draw of fewer objects than clusters fails in the trial's draw
        args = [
            {
                "d": 2, "k": 3, "n_objects": 2, "samples_per_object": 5,
                "simplex_boundary": False, "trial_seed": seed, "algorithms": (ALGO_KL,),
            }
            for seed in (41, 42)
        ]
        with pytest.raises(InvalidConfig, match=r"^trial seed 41: need at least k=3 objects, got 2$"):
            pipeline._map_trials(pipeline._synth_trial, args, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stock_trial_names_its_seed(self, threads, rng):
        # noise of 1e200 overflows the fitted covariances
        groups = [SampleGroup(f"g{i}", rng.standard_normal((3, 4))) for i in range(8)]
        args = [
            {
                "groups": groups, "k": 2, "noise_sigma": 1e200, "noise_seed": seed,
                "base_seed": 0, "algorithms": (ALGO_BHATTACHARYYA,),
                "clean_labels": {ALGO_BHATTACHARYYA: [0, 1] * 4},
            }
            for seed in (41, 42)
        ]
        with pytest.raises(InvalidMatrix, match=r"^trial seed 41: group 'g0'"):
            pipeline._map_trials(pipeline._stock_trial, args, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_failure_in_a_later_cell_is_raised(self, threads, rng, pools):
        # noise of 1e200 overflows the fitted covariances: the clean passes
        # and the first sigma cell of each k succeed, every trial of the
        # second fails, and the first of those is trial 0 of sigma index 1
        groups, _ = separated_groups(rng, per_cluster=4)
        seed = derive_trial_seed(3, 1 + 1 * 2 + 0)
        with pytest.raises(InvalidMatrix, match=rf"^trial seed {seed}: group 'g0_0'"):
            benchmark_stock(
                groups, k_list=[2, 3], noise_sigmas=[0.5, 1e200], trials=2,
                base_seed=3, algorithms=(ALGO_KMEANS_MEANS,), threads=threads,
            )
        assert len(pools) == (1 if threads > 1 else 0)

    def test_named_error_keeps_class_and_attributes(self):
        named = pickle.loads(pickle.dumps(_prefixed(RowError("bad cell", 4), "trial seed 9")))
        assert type(named) is RowError
        assert str(named) == "trial seed 9: line 4: bad cell"
        assert named.line == 4


class TestBenchmarkStock:
    def test_zero_noise_gives_perfect_agreement(self, rng):
        groups, _ = separated_groups(rng, per_cluster=5)
        report = benchmark_stock(
            groups, k_list=[2], noise_sigmas=[0.0], trials=2, base_seed=3, threads=1
        )
        for cell in report["cells"]:
            assert cell["mean_nmi"] == 1.0
            assert cell["var_nmi"] == 0.0

    def test_wall_time_sums_each_algorithms_measured_runs(self, rng, monkeypatch):
        groups, _ = separated_groups(rng, per_cluster=4)
        cost = fake_run_clock(monkeypatch)
        report = benchmark_stock(
            groups, k_list=[2], noise_sigmas=[1.0], trials=2, base_seed=3, threads=1
        )
        for cell in report["cells"]:
            assert cell["wall_time_s"] == 2 * cost[cell["algorithm"]]

    def test_one_fit_per_noisy_trial(self, rng, fits):
        groups, _ = separated_groups(rng, per_cluster=4)
        benchmark_stock(
            groups, k_list=[2], noise_sigmas=[0.5, 1.0], trials=2, base_seed=3, threads=1
        )
        # the clean pass runs run_pipeline, one fit, per algorithm
        assert fits == [8] * (len(ALGORITHMS) + 2 * 2)

    def test_heavy_noise_degrades(self, rng):
        groups, _ = separated_groups(rng, per_cluster=5, gap=3.0)
        report = benchmark_stock(
            groups,
            k_list=[2],
            noise_sigmas=[0.0, 50.0],
            trials=3,
            base_seed=3,
            algorithms=(ALGO_KL,),
            threads=1,
        )
        by_sigma = {c["noise_sigma"]: c["mean_nmi"] for c in report["cells"]}
        assert by_sigma[50.0] < by_sigma[0.0]

    def test_deterministic(self, rng):
        groups, _ = separated_groups(rng, per_cluster=4)
        kwargs = dict(
            k_list=[2], noise_sigmas=[1.0], trials=2, base_seed=7,
            algorithms=(ALGO_KLPP,), threads=1,
        )
        a = benchmark_stock(groups, **kwargs)
        b = benchmark_stock(groups, **kwargs)
        assert canonical_json_bytes(a) == canonical_json_bytes(b)

    def test_validation(self, rng):
        groups, _ = separated_groups(rng, per_cluster=3)
        with pytest.raises(InvalidConfig):
            benchmark_stock(groups, k_list=[2], noise_sigmas=[-1.0], trials=1)
        with pytest.raises(InvalidConfig):
            benchmark_stock(groups, k_list=[2], noise_sigmas=[1.0], trials=0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidConfig, match="^noise sigma must be finite and non-negative"):
                benchmark_stock(groups, k_list=[2], noise_sigmas=[1.0, bad], trials=1)
        for empty in ({"k_list": []}, {"noise_sigmas": []}, {"algorithms": ()}):
            with pytest.raises(InvalidConfig, match=f"^{next(iter(empty))} must not be empty$"):
                benchmark_stock(groups, **{"k_list": [2], "noise_sigmas": [1.0], "trials": 1, **empty})


def wait_for_file(folder: Path, pattern: str, count: int = 1) -> None:
    """Wait up to a minute for ``count`` files in ``folder`` matching ``pattern``."""
    deadline = time.monotonic() + 60
    while len(list(folder.glob(pattern))) < count and time.monotonic() < deadline:
        time.sleep(0.005)


def scripted_trial(args: dict) -> tuple[int, int]:
    """A trial that leaves ``<i>.caller`` or ``<i>.worker`` in ``dir`` as it
    starts, waits up to a minute for a file matching ``wait_for``, sleeps
    ``delay`` seconds, then raises ``raises`` if given; returns its pid and
    its kernel threads."""
    folder = Path(args["dir"])
    where = "caller" if multiprocessing.parent_process() is None else "worker"
    (folder / f"{args['i']}.{where}").touch()
    if "wait_for" in args:
        wait_for_file(folder, args["wait_for"])
    time.sleep(args.get("delay", 0.0))
    if "raises" in args:
        raise args["raises"]
    return os.getpid(), parallel.kernel_threads()


def trial_files(folder) -> list[str]:
    return sorted(p.name for p in Path(folder).iterdir())


def scripted_failure(i: int) -> Exception:
    return _prefixed(ValueError("scripted failure"), f"trial seed {i}")


def square_after_20_ms(args: dict) -> int:
    """``args["i"]`` squared, after leaving ``<i>.<pid>`` in ``dir`` and
    sleeping 20 ms."""
    (Path(args["dir"]) / f"{args['i']}.{os.getpid()}").touch()
    time.sleep(0.02)
    return args["i"] ** 2


def sigterm_action(args: dict) -> tuple[bool, bool]:
    """Whether this process is a pool worker, and whether SIGTERM takes its
    default action in it. A worker first leaves ``<pid>.worker`` in
    ``dir``; every process then waits up to a minute for ``workers`` such
    files, so each worker runs some trial."""
    folder = Path(args["dir"])
    worker = multiprocessing.parent_process() is not None
    if worker:
        (folder / f"{os.getpid()}.worker").touch()
    wait_for_file(folder, "*.worker", args["workers"])
    return worker, signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


def start_once_the_trials_are_spent(count: int, next_trial) -> None:
    """A pool initializer that holds its worker up to a minute, until the
    job's counter has passed its last trial ``count - 1``, then starts it as
    ``pipeline._start_worker`` does."""
    deadline = time.monotonic() + 60
    while next_trial.value < count and time.monotonic() < deadline:
        time.sleep(0.005)
    REAL_START_WORKER(next_trial)


# the benchmark trials as imported, before a test patches them
REAL_TRIALS = {name: getattr(pipeline, name) for name in ("_synth_trial", "_stock_trial")}
REAL_START_WORKER = pipeline._start_worker
WORKER_MARKS = "DISTCLUST_TEST_WORKER_MARKS"


def trial_once_a_worker_started(name: str, args: dict):
    """The benchmark trial ``name``. A pool worker first leaves a file in
    the folder ``WORKER_MARKS`` names; the caller first waits up to a minute
    for one, so a worker runs some trial of the job."""
    folder = Path(os.environ[WORKER_MARKS])
    if multiprocessing.parent_process() is not None:
        (folder / str(os.getpid())).touch()
    else:
        wait_for_file(folder, "*")
    return REAL_TRIALS[name](args)


@pytest.fixture
def worker_joins(monkeypatch, tmp_path):
    """Call before a pooled job: its caller holds its first trial until a
    worker has started one, so a worker runs some trial however its start
    races the caller's trials. Returns the folder of the workers' files."""
    jobs = []

    def arm() -> Path:
        folder = tmp_path / f"job{len(jobs)}"
        folder.mkdir()
        jobs.append(folder)
        monkeypatch.setenv(WORKER_MARKS, str(folder))
        for name in REAL_TRIALS:
            monkeypatch.setattr(pipeline, name, partial(trial_once_a_worker_started, name))
        return folder

    return arm


class TestThreads:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("DISTCLUST_THREADS", "7")
        assert resolve_threads(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("DISTCLUST_THREADS", "5")
        assert resolve_threads(None) == 5

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("DISTCLUST_THREADS", raising=False)
        assert resolve_threads(None) >= 1

    def test_default_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv("DISTCLUST_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_threads(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_threads(None) == 64

    def test_bad_values(self, monkeypatch):
        with pytest.raises(InvalidConfig):
            resolve_threads(0)
        monkeypatch.setenv("DISTCLUST_THREADS", "two")
        with pytest.raises(InvalidConfig):
            resolve_threads(None)
        monkeypatch.setenv("DISTCLUST_THREADS", "0")
        with pytest.raises(InvalidConfig):
            resolve_threads(None)

    def test_worker_pool_matches_inline(self, pools, worker_joins):
        kwargs = dict(
            d_list=[2, 3], k_list=[2, 3], trials=2, base_seed=4,
            n_objects=10, samples_per_object=6,
        )
        inline = benchmark_synthetic(threads=1, **kwargs)
        assert pools == []
        for threads in (2, 3):
            marks = worker_joins()
            pooled = benchmark_synthetic(threads=threads, **kwargs)
            assert any(marks.iterdir())
            assert len(pooled["cells"]) == 4 * len(ALGORITHMS)
            assert canonical_json_bytes(inline) == canonical_json_bytes(pooled)
        # one pool per job, the caller counted among the threads
        assert pools == [1, 2]

    def test_stock_worker_pool_matches_inline(self, pools, worker_joins, rng):
        groups, _ = separated_groups(rng, per_cluster=4)
        kwargs = dict(k_list=[2, 3], noise_sigmas=[0.5, 1.0], trials=2, base_seed=6)
        inline = benchmark_stock(groups, threads=1, **kwargs)
        assert pools == []
        for threads in (2, 3):
            marks = worker_joins()
            pooled = benchmark_stock(groups, threads=threads, **kwargs)
            assert any(marks.iterdir())
            assert len(pooled["cells"]) == 4 * len(ALGORITHMS)
            assert canonical_json_bytes(inline) == canonical_json_bytes(pooled)
        assert pools == [1, 2]


@pytest.fixture
def workers_held_until_spent(monkeypatch):
    """Call with a job's trial count before a pooled map: its workers start
    only once the job's counter has passed the last trial, as a worker
    would that booted after the caller's first trial had failed."""

    def hold(count: int) -> None:
        monkeypatch.setattr(pipeline, "_start_worker", partial(start_once_the_trials_are_spent, count))

    return hold


class TestStartMethod:
    @pytest.mark.skipif(sys.platform != "linux", reason="workers fork only on Linux")
    def test_fork_on_linux_from_one_thread(self):
        assert threading.active_count() == 1
        assert pipeline._start_method() == "fork"

    @pytest.mark.parametrize("platform", ["darwin", "win32"])
    def test_spawn_off_linux(self, platform, monkeypatch):
        monkeypatch.setattr(sys, "platform", platform)
        assert pipeline._start_method() == "spawn"

    def test_spawn_while_a_second_thread_runs(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert pipeline._start_method() == "spawn"
        finally:
            release.set()
            other.join()


class TestTrialMap:
    """The caller and the pool's workers each take the next unstarted trial
    off one shared counter."""

    @pytest.mark.parametrize("threads", [2, 3])
    def test_caller_and_workers_share_the_trials(self, threads, tmp_path, pools, monkeypatch):
        monkeypatch.setenv("DISTCLUST_THREADS", "4")
        # the caller holds its first trial until a worker has started one
        args = [{"i": i, "dir": str(tmp_path), "wait_for": "*.worker"} for i in range(30)]
        ran = pipeline._map_trials(scripted_trial, args, threads)
        assert pools == [threads - 1]
        pids = [pid for pid, _ in ran]
        assert os.getpid() in pids
        assert len(set(pids)) >= 2
        # every process runs its kernels on one thread during the map
        assert {kernel_threads for _, kernel_threads in ran} == {1}
        assert parallel.kernel_threads() == 4
        # each trial started once, in one process
        assert sorted(int(name.split(".")[0]) for name in trial_files(tmp_path)) == list(range(30))

    def test_many_short_trials_on_more_processes_than_cores_start_once(self, tmp_path):
        # four processes race over the counter for 2,000 trials that only
        # leave their file; a lost update would start some trial twice
        args = [{"i": i, "dir": str(tmp_path)} for i in range(2000)]
        args[0]["wait_for"] = "*.worker"
        ran = pipeline._map_trials(scripted_trial, args, 4)
        assert len(ran) == 2000
        started = sorted(int(name.split(".")[0]) for name in trial_files(tmp_path))
        assert started == list(range(2000))

    def test_fewer_trials_than_threads_start_fewer_workers(self, tmp_path, pools):
        args = [{"i": i, "dir": str(tmp_path)} for i in range(2)]
        assert len(pipeline._map_trials(scripted_trial, args, 8)) == 2
        assert pools == [1]

    def test_lower_failure_in_a_worker_wins_over_the_callers(self, tmp_path):
        # one worker: the caller holds trial 0 until the worker has taken
        # trial 1, then takes trial 2 and fails it before trial 1 fails
        common = {"dir": str(tmp_path)}
        args = [
            {**common, "i": 0, "wait_for": "1.worker"},
            {**common, "i": 1, "delay": 0.3, "raises": scripted_failure(1)},
            {**common, "i": 2, "raises": scripted_failure(2)},
        ]
        with pytest.raises(ValueError, match=r"^trial seed 1: scripted failure$"):
            pipeline._map_trials(scripted_trial, args, 2)
        assert trial_files(tmp_path) == ["0.caller", "1.worker", "2.caller"]

    def test_lower_failure_in_the_caller_wins_over_a_workers(self, tmp_path):
        # one worker: the caller holds trial 0 until the worker has taken
        # trial 1, which fails at once; trial 0 fails later
        common = {"dir": str(tmp_path)}
        args = [
            {**common, "i": 0, "wait_for": "1.worker", "delay": 0.3,
             "raises": scripted_failure(0)},
            {**common, "i": 1, "raises": scripted_failure(1)},
        ]
        with pytest.raises(ValueError, match=r"^trial seed 0: scripted failure$"):
            pipeline._map_trials(scripted_trial, args, 2)
        assert trial_files(tmp_path) == ["0.caller", "1.worker"]

    @pytest.mark.skipif(sys.platform != "linux", reason="workers fork only on Linux")
    def test_forked_worker_takes_trials_unheld(self, tmp_path, pools):
        # nothing holds the caller: a forked worker starts within
        # milliseconds, well inside 20 trials of 20 ms each
        assert pipeline._start_method() == "fork"
        args = [{"i": i, "dir": str(tmp_path)} for i in range(20)]
        assert pipeline._map_trials(square_after_20_ms, args, 2) == [i * i for i in range(20)]
        assert pools == [1]
        pids = {int(name.split(".")[1]) for name in trial_files(tmp_path)}
        assert len(pids) == 2 and os.getpid() in pids
        assert sorted(int(name.split(".")[0]) for name in trial_files(tmp_path)) == list(range(20))

    def test_workers_take_sigterms_default_action(self, tmp_path):
        # a caller's SIGTERM handler that exits would turn a worker's
        # SIGTERM into a failed task
        def exit_on_sigterm(signum, frame):
            sys.exit(128 + signum)

        args = [{"dir": str(tmp_path), "workers": 2} for _ in range(6)]
        previous = signal.signal(signal.SIGTERM, exit_on_sigterm)
        try:
            ran = pipeline._map_trials(sigterm_action, args, 3)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert len(list(tmp_path.glob("*.worker"))) == 2
        assert {default for worker, default in ran if worker} == {True}
        assert all(not default for worker, default in ran if not worker)

    def test_failure_leaves_no_trial_to_start(self, tmp_path, workers_held_until_spent):
        # the caller's first trial fails before the worker starts: every
        # lower trial has started, so no process starts another
        common = {"dir": str(tmp_path)}
        args = [{**common, "i": i} for i in range(30)]
        args[0]["raises"] = scripted_failure(0)
        workers_held_until_spent(len(args))
        with pytest.raises(ValueError, match=r"^trial seed 0: "):
            pipeline._map_trials(scripted_trial, args, 2)
        assert trial_files(tmp_path) == ["0.caller"]

    def test_kernel_threads_come_back_after_a_failing_map(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISTCLUST_THREADS", "3")
        common = {"dir": str(tmp_path)}
        args = [{**common, "i": i, "raises": scripted_failure(i)} for i in range(3)]
        with pytest.raises(ValueError, match=r"^trial seed 0: "):
            pipeline._map_trials(scripted_trial, args, 2)
        assert parallel.kernel_threads() == 3

    def test_interrupt_in_the_caller_cancels_unstarted_trials(self, tmp_path, workers_held_until_spent):
        # the caller's first trial is interrupted before the worker starts:
        # the worker finds no trial left
        common = {"dir": str(tmp_path)}
        args = [{**common, "i": i} for i in range(30)]
        args[0]["raises"] = KeyboardInterrupt()
        workers_held_until_spent(len(args))
        with pytest.raises(KeyboardInterrupt):
            pipeline._map_trials(scripted_trial, args, 2)
        assert trial_files(tmp_path) == ["0.caller"]


class TestWriteReport:
    def test_files_written(self, tmp_path):
        report = benchmark_synthetic(
            d_list=[2], k_list=[2], trials=1, base_seed=0,
            n_objects=8, samples_per_object=5, algorithms=(ALGO_KL,), threads=1,
        )
        json_path, csv_path = write_report(report, tmp_path / "out")
        loaded = json.loads((tmp_path / "out" / "report.json").read_text())
        assert loaded["schema_version"] == 1
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(report["cells"])
        assert lines[0].startswith("d,k,algorithm")
