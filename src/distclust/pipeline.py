"""End-to-end clustering runs and the benchmark harness.

A pipeline run takes sample groups, fits one Gaussian per group, and applies
one of six algorithms:

* ``kmeans_means``: k-means on the fitted mean vectors (covariances ignored)
* ``spectral_means``: spectral clustering on Euclidean mean distances
* ``wasserstein_spectral``: spectral clustering on squared 2-Wasserstein
* ``bhattacharyya_spectral``: spectral clustering on Bhattacharyya
* ``kl``: KL k-means with uniform random seeding
* ``klpp``: KL k-means with ++-style seeding

The first two are mean-only baselines; the rest use full distributions.
Every run returns one ``PipelineResult``: the labels, the algorithm's
diagnostics and the warnings for options it ignores. ``cluster_matrix``
builds it for the three spectral algorithms, from a saved matrix as from
fitted models, and ``_cluster_models`` for the other three.

Benchmarks aggregate agreement with ground truth (NMI) over repeated trials.
A trial fits its groups once and runs every algorithm on those models; a
cell's ``wall_time_s`` sums each trial's measured clustering seconds after
that shared fit. Trial seeds are derived from the base seed with a fixed
mixing function, so reports are reproducible and independent of how trials
are scheduled. With ``threads > 1`` trials run in ``threads`` processes,
the calling one and ``threads - 1`` pool workers, each in
``parallel.claim``, the claim loop the kernel blocks run in too: one
benchmark job starts at most one pool, shared by the trials of all its
cells, and shuts it down before it returns. The workers are forked where
that is safe, on Linux from a caller running one Python thread, so they
start with the program imported and take trials within milliseconds; they
are spawned everywhere else (``_start_method``). A trial's arguments are
the report's ``params``, its cell key and its seed, and every run clusters
with ``PipelineConfig(algorithm, k, seed)`` after the default ridge, as
the CLI does, so a report names every setting it ran with.
"""

import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from multiprocessing import get_context

import numpy as np

from .errors import InvalidConfig, _check_non_negative, _prefixed
from .evaluation import nmi
from .gaussian import estimate_gaussians
from .ingest import add_noise
from .klcluster import SEEDING_KLPP, SEEDING_RANDOM, ClusterAssignment, kl_cluster, kmeans
from .metrics import (
    METRIC_BHATTACHARYYA,
    METRIC_EUCLIDEAN,
    METRIC_WASSERSTEIN_SQ,
    DistanceMatrix,
    _means,
    distance_matrix,
    mean_euclidean_matrix,
)
from .parallel import claim, kernel_scope, resolve_threads, run_claimed
from .spectral import _kernel_scale, kernelize, spectral_cluster
from .synthgen import check_benchmark_shape, derive_trial_seed, generate_benchmark

ALGO_KMEANS_MEANS = "kmeans_means"
ALGO_SPECTRAL_MEANS = "spectral_means"
ALGO_WASSERSTEIN = "wasserstein_spectral"
ALGO_BHATTACHARYYA = "bhattacharyya_spectral"
ALGO_KL = "kl"
ALGO_KLPP = "klpp"

ALGORITHMS = (
    ALGO_KMEANS_MEANS,
    ALGO_SPECTRAL_MEANS,
    ALGO_WASSERSTEIN,
    ALGO_BHATTACHARYYA,
    ALGO_KL,
    ALGO_KLPP,
)

FAMILY_MEAN_ONLY = "mean_only"
FAMILY_DISTRIBUTION = "distribution_based"

# the divergence each spectral algorithm clusters
_SPECTRAL_METRICS = {
    ALGO_SPECTRAL_MEANS: METRIC_EUCLIDEAN,
    ALGO_WASSERSTEIN: METRIC_WASSERSTEIN_SQ,
    ALGO_BHATTACHARYYA: METRIC_BHATTACHARYYA,
}

REPORT_SCHEMA_VERSION = 1


def algorithm_family(algorithm: str) -> str:
    if algorithm in (ALGO_KMEANS_MEANS, ALGO_SPECTRAL_MEANS):
        return FAMILY_MEAN_ONLY
    return FAMILY_DISTRIBUTION


@dataclass(frozen=True)
class PipelineConfig:
    """One clustering run: the algorithm, k, and its knobs."""

    algorithm: str
    k: int
    sigma: float | None = None
    eps_scale: float = 1e-8
    seed: int = 0
    max_iter: int | None = None
    restarts: int = 10
    kernel_on_sqrt: bool = False
    klpp_squared: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidConfig(f"unknown algorithm {self.algorithm!r}")
        if self.k < 2:
            raise InvalidConfig(f"k must be at least 2, got {self.k}")
        if self.sigma is not None:
            _kernel_scale(self.sigma, InvalidConfig)
        _check_non_negative("eps_scale", self.eps_scale)
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")
        if self.max_iter is not None and self.max_iter < 1:
            raise InvalidConfig(f"max_iter must be positive, got {self.max_iter}")
        if self.restarts < 1:
            raise InvalidConfig(f"restarts must be positive, got {self.restarts}")


@dataclass(frozen=True, eq=False)
class PipelineResult:
    assignment: ClusterAssignment
    algorithm: str
    diagnostics: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def _config_warnings(config: PipelineConfig) -> tuple[str, ...]:
    notes = []
    if config.sigma is not None and config.algorithm not in _SPECTRAL_METRICS:
        notes.append(f"sigma ignored for {config.algorithm}")
    if config.kernel_on_sqrt and config.algorithm not in _SPECTRAL_METRICS:
        notes.append(f"kernel_on_sqrt ignored for {config.algorithm}")
    if config.klpp_squared and config.algorithm != ALGO_KLPP:
        notes.append(f"klpp_squared ignored for {config.algorithm}")
    if config.restarts != PipelineConfig.restarts and config.algorithm in (ALGO_KL, ALGO_KLPP):
        notes.append(f"restarts ignored for {config.algorithm}")
    return tuple(notes)


def run_pipeline(groups, config: PipelineConfig) -> PipelineResult:
    """Fit per-group Gaussians and cluster them with the configured algorithm."""
    if len(groups) < config.k:
        raise InvalidConfig(f"{len(groups)} groups cannot form k={config.k} clusters")
    return _cluster_models(estimate_gaussians(groups, config.eps_scale), config)


def _cluster_models(models, config: PipelineConfig) -> PipelineResult:
    """Cluster fitted models with the configured algorithm; a benchmark
    trial fits once and calls this for each of its algorithms."""
    metric = _SPECTRAL_METRICS.get(config.algorithm)
    if metric is not None:
        with kernel_scope():
            return cluster_matrix(_spectral_input(models, metric), config)

    rng = np.random.default_rng(config.seed)
    if config.algorithm == ALGO_KMEANS_MEANS:
        assignment, diagnostics = kmeans(
            _means(models),
            config.k,
            rng,
            restarts=config.restarts,
            max_iter=config.max_iter or 300,
        )
    else:
        seeding = SEEDING_KLPP if config.algorithm == ALGO_KLPP else SEEDING_RANDOM
        result = kl_cluster(
            list(models),
            config.k,
            rng,
            seeding=seeding,
            max_iter=config.max_iter or 100,
            klpp_squared=config.klpp_squared,
            eps_scale=config.eps_scale,
        )
        assignment = result.assignment
        diagnostics = {
            "iterations": result.iterations,
            "converged": result.converged,
            "objective": result.objective_history[-1],
            "repairs": len(result.repair_iterations),
        }
    return PipelineResult(assignment, config.algorithm, diagnostics, _config_warnings(config))


def _spectral_input(models, metric: str) -> DistanceMatrix:
    """The matrix a spectral run clusters, built for that run alone and
    passed on as a temporary, so ``cluster_matrix`` holds the last
    reference to it. The mean distances come writeable, and ``kernelize``
    turns them into the kernel in their own buffer. A divergence matrix
    stays read-only and intact, as callers that wrap ``distance_matrix``
    may keep it; ``cluster_matrix`` drops it before the eigensolve."""
    if metric != METRIC_EUCLIDEAN:
        return distance_matrix(models, metric)
    dm = mean_euclidean_matrix(models)
    dm.values.flags.writeable = True
    return dm


def spectral_metric(algorithm: str) -> str:
    """The metric of the matrix a spectral algorithm clusters; InvalidConfig
    for an algorithm that clusters no distance matrix."""
    if algorithm not in _SPECTRAL_METRICS:
        raise InvalidConfig(
            f"{algorithm} cannot run from a saved distance matrix; pass a groups CSV instead"
        )
    return _SPECTRAL_METRICS[algorithm]


def cluster_matrix(dm: DistanceMatrix, config: PipelineConfig) -> PipelineResult:
    """Spectral clustering of a divergence matrix: the Gaussian kernel, the
    spectral embedding and k-means, seeded from ``config.seed``. The matrix
    must carry the metric of ``config.algorithm``. Returns the run's result,
    as ``run_pipeline`` does: the labels, the diagnostics (metric,
    bandwidth, normalized cut, eigensolver) and the config's warnings. A
    run is one kernel scope, so its n x n passes share one helper pool."""
    expected = spectral_metric(config.algorithm)
    if dm.metric != expected:
        raise InvalidConfig(f"{config.algorithm} expects a {expected} matrix, got {dm.metric}")
    with kernel_scope():
        adjacency = kernelize(dm, sigma=config.sigma, on_sqrt=config.kernel_on_sqrt)
        # past the kernel a divergence matrix that ``kernelize`` left intact
        # is dead weight; dropping it takes one n x n array off the peak of
        # the eigensolve
        del dm
        assignment, diagnostics = spectral_cluster(
            adjacency,
            config.k,
            np.random.default_rng(config.seed),
            restarts=config.restarts,
            max_iter=config.max_iter or 300,
        )
    return PipelineResult(
        assignment, config.algorithm, {"metric": expected, **diagnostics}, _config_warnings(config)
    )


# a pool worker's view of the job's next-trial counter, set by _start_worker
_next_trial = None


def _start_worker(next_trial) -> None:
    """Pool initializer: the job's next-trial counter, and SIGTERM's default
    action, which a forked worker would otherwise inherit from the caller."""
    global _next_trial
    _next_trial = next_trial
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _start_method() -> str:
    """How the trial pool starts its workers: ``fork`` on Linux from a
    process running one Python thread, ``spawn`` everywhere else, where
    fork is missing (Windows), unsafe (macOS) or may copy a lock that
    another thread holds into a child that then waits on it forever."""
    if sys.platform == "linux" and threading.active_count() == 1:
        return "fork"
    return "spawn"


def _run_trials(fn, args_list) -> dict:
    """A pool worker's ``parallel.claim`` over the job's trials."""
    with kernel_scope(1):
        return claim(fn, args_list, _next_trial)


def _map_trials(fn, args_list, threads: int):
    """``[fn(args) for args in args_list]`` on ``threads`` processes: the
    caller and a pool of ``threads - 1`` workers (fewer for few trials),
    one ``_run_trials`` task each, through ``parallel.run_claimed``; every
    process runs its kernels on one thread. The pool starts its workers by
    ``_start_method()``: forked, a worker has the program imported and
    takes trials at once; spawned, it first boots an interpreter and
    imports numpy and distclust, which takes a good part of a short job.
    """
    count = len(args_list)
    if threads <= 1 or count <= 1:
        return [fn(args) for args in args_list]
    workers = min(threads - 1, count - 1)
    context = get_context(_start_method())
    next_trial = context.Value("i", 0)
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_start_worker, initargs=(next_trial,)
    ) as pool, kernel_scope(1):
        task = partial(_run_trials, fn, args_list)
        return run_claimed(fn, args_list, next_trial, pool, workers, task)


def _report(kind: str, trial, args_list, keys, params: dict, threads) -> dict:
    """A benchmark report: the job's trials through one ``_map_trials``
    call, ``params["trials"]`` consecutive results per cell key in key
    order, scored as one cell per algorithm of ``params["algorithms"]``."""
    per_trial = _map_trials(trial, args_list, resolve_threads(threads))
    trials = params["trials"]
    cells = []
    for i, key in enumerate(keys):
        chunk = per_trial[i * trials : (i + 1) * trials]
        for algorithm in params["algorithms"]:
            scores = np.asarray([t[algorithm][0] for t in chunk], dtype=float)
            cells.append(
                {
                    **key,
                    "algorithm": algorithm,
                    "family": algorithm_family(algorithm),
                    "trials": int(scores.size),
                    "scores": [float(s) for s in scores],
                    "mean_nmi": float(scores.mean()),
                    "var_nmi": float(scores.var()),
                    "wall_time_s": sum(t[algorithm][1] for t in chunk),
                }
            )
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "params": params,
        "cells": cells,
    }


def _cluster_each(models, args: dict, seed: int):
    """Yield each of a trial's algorithms with its labels on the trial's
    fitted models and the seconds its clustering took."""
    for algorithm in args["algorithms"]:
        config = PipelineConfig(algorithm=algorithm, k=args["k"], seed=seed)
        started = time.perf_counter()
        labels = _cluster_models(models, config).assignment.labels
        yield algorithm, labels, time.perf_counter() - started


def _synth_trial(args: dict) -> dict[str, tuple[float, float]]:
    """NMI and measured clustering seconds of each algorithm on one trial."""
    try:
        bench = generate_benchmark(
            d=args["d"],
            k=args["k"],
            n_objects=args["n_objects"],
            samples_per_object=args["samples_per_object"],
            seed=args["trial_seed"],
            simplex_boundary=args["simplex_boundary"],
        )
        models = estimate_gaussians(bench.groups)
        return {
            algorithm: (nmi(bench.truth, labels), seconds)
            for algorithm, labels, seconds in _cluster_each(models, args, args["trial_seed"])
        }
    except Exception as exc:
        raise _prefixed(exc, f"trial seed {args['trial_seed']}") from exc


def _check_benchmark(trials: int, **lists) -> None:
    """InvalidConfig for a benchmark that would score no cell: no trials, an
    empty list or an unknown algorithm. ``lists`` holds each list the cells
    are crossed from, by its parameter name, ``algorithms`` among them."""
    if trials < 1:
        raise InvalidConfig(f"trials must be positive, got {trials}")
    for name, values in lists.items():
        if len(values) == 0:
            raise InvalidConfig(f"{name} must not be empty")
    for algorithm in lists["algorithms"]:
        if algorithm not in ALGORITHMS:
            raise InvalidConfig(f"unknown algorithm {algorithm!r}")


def benchmark_synthetic(
    d_list,
    k_list,
    trials: int,
    base_seed: int = 0,
    algorithms=ALGORITHMS,
    n_objects: int = 200,
    samples_per_object: int = 30,
    simplex_boundary: bool = False,
    threads: int | None = None,
) -> dict:
    """NMI of each algorithm against synthetic ground truth, per (d, k) cell.

    Every trial draws a fresh benchmark with seed ``derive_trial_seed(base_seed,
    t)`` and runs all algorithms on the same data; the same seed also drives
    each algorithm's internal randomness.
    """
    _check_benchmark(trials, d_list=d_list, k_list=k_list, algorithms=algorithms)
    for d in d_list:
        for k in k_list:
            check_benchmark_shape(d, k, n_objects, samples_per_object)
    params = {
        "d_list": [int(d) for d in d_list],
        "k_list": [int(k) for k in k_list],
        "trials": trials,
        "base_seed": base_seed,
        "n_objects": n_objects,
        "samples_per_object": samples_per_object,
        "simplex_boundary": simplex_boundary,
        "algorithms": list(algorithms),
    }
    keys = [{"d": d, "k": k} for d in params["d_list"] for k in params["k_list"]]
    args_list = [
        {**params, **key, "trial_seed": derive_trial_seed(base_seed, t)}
        for key in keys
        for t in range(trials)
    ]
    return _report("synthetic", _synth_trial, args_list, keys, params, threads)


def _stock_trial(args: dict) -> dict[str, tuple[float, float]]:
    """NMI and measured clustering seconds of each algorithm on one trial."""
    try:
        rng = np.random.default_rng(args["noise_seed"])
        noised = add_noise(args["groups"], args["noise_sigma"], rng)
        models = estimate_gaussians(noised)
        return {
            algorithm: (nmi(np.asarray(args["clean_labels"][algorithm]), labels), seconds)
            for algorithm, labels, seconds in _cluster_each(models, args, args["base_seed"])
        }
    except Exception as exc:
        raise _prefixed(exc, f"trial seed {args['noise_seed']}") from exc


def benchmark_stock(
    groups,
    k_list,
    noise_sigmas,
    trials: int,
    base_seed: int = 0,
    algorithms=ALGORITHMS,
    threads: int | None = None,
) -> dict:
    """Noise-stability benchmark on real groups with no external truth.

    Each algorithm's labels on the clean data serve as its own reference;
    trials perturb every sample with iid N(0, sigma^2) and measure NMI
    against that reference. Clustering seeds are held fixed at
    ``base_seed``, so sigma = 0 reproduces the reference exactly.
    """
    _check_benchmark(trials, k_list=k_list, noise_sigmas=noise_sigmas, algorithms=algorithms)
    for sigma in noise_sigmas:
        _check_non_negative("noise sigma", sigma)
    params = {
        "n_groups": len(groups),
        "k_list": [int(k) for k in k_list],
        "noise_sigmas": [float(s) for s in noise_sigmas],
        "trials": trials,
        "base_seed": base_seed,
        "algorithms": list(algorithms),
    }
    # only the clean passes run in this loop; the noisy trials of every cell
    # share the one map below
    keys = []
    args_list = []
    for k in params["k_list"]:
        clean_labels = {}
        for algorithm in algorithms:
            clean = run_pipeline(groups, PipelineConfig(algorithm=algorithm, k=k, seed=base_seed))
            clean_labels[algorithm] = [int(v) for v in clean.assignment.labels]
        for s_idx, noise_sigma in enumerate(params["noise_sigmas"]):
            key = {"k": k, "noise_sigma": noise_sigma}
            keys.append(key)
            args_list += [
                {
                    **params,
                    **key,
                    "groups": groups,
                    "clean_labels": clean_labels,
                    "noise_seed": derive_trial_seed(base_seed, 1 + s_idx * trials + t),
                }
                for t in range(trials)
            ]
    return _report("stock", _stock_trial, args_list, keys, params, threads)
