"""The benchmark's three workloads and the output checks on each op.

Every op draws its inputs from the workload seed and the op index, and calls
the program only through its public functions. ``prepare`` builds an op's
inputs outside the op timer and returns how long any real set-up work took;
``run`` is the timed op; ``check`` lists what is wrong with its outputs.
"""

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from distclust import evaluation, ingest, pipeline, storage, synthgen

import layers

ALGORITHMS = pipeline.ALGORITHMS
FAMILIES = ("mean_only", "distribution")


def family(algorithm: str) -> str:
    return "mean_only" if pipeline.algorithm_family(algorithm) == "mean_only" else "distribution"


def op_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class OpResult:
    labels: dict = field(default_factory=dict)  # algorithm -> label vectors, in call order
    cluster_s: dict = field(default_factory=dict)  # algorithm -> summed run_pipeline seconds
    nmi: dict = field(default_factory=dict)  # algorithm -> NMI
    report: dict | None = None
    n: int = 0  # objects clustered


def family_means(values: dict) -> dict:
    out = {}
    for fam in FAMILIES:
        picked = [v for alg, v in values.items() if family(alg) == fam]
        out[fam] = float(np.mean(picked)) if picked else float("nan")
    return out


def label_problems(labels, n: int, k: int, where: str) -> list[str]:
    lab = np.asarray(labels)
    if lab.shape != (n,) or lab.dtype.kind not in "iu":
        return [f"{where}: labels of shape {lab.shape} and dtype {lab.dtype}, expected ({n},) int"]
    if lab.min() < 0 or lab.max() >= k:
        return [f"{where}: labels outside [0, {k})"]
    return []


def nmi_problems(scores: dict, where: str) -> list[str]:
    return [
        f"{where}: {alg} NMI {v!r} outside [0, 1]"
        for alg, v in scores.items()
        if not (np.isfinite(v) and -1e-12 <= v <= 1.0 + 1e-12)
    ]


def _cluster_all(groups, truth, k: int, algorithms, seed: int) -> OpResult:
    """Run each algorithm inline, timing each run_pipeline call on its own."""
    out = OpResult(n=len(groups))
    for algorithm in algorithms:
        config = pipeline.PipelineConfig(algorithm=algorithm, k=k, seed=seed)
        started = time.perf_counter()
        result = pipeline.run_pipeline(groups, config)
        out.cluster_s[algorithm] = time.perf_counter() - started
        out.labels[algorithm] = [result.assignment.labels]
        out.nmi[algorithm] = evaluation.nmi(truth, result.assignment.labels)
    return out


def _synthetic_problems(out: OpResult, n: int, k: int) -> list[str]:
    problems = []
    for alg, runs in out.labels.items():
        problems += label_problems(runs[0], n, k, alg)
    problems += nmi_problems(out.nmi, "truth")
    fam = family_means(out.nmi)
    # the paper's claim: fitted-Gaussian divergences beat clustering the means
    if not fam["distribution"] >= fam["mean_only"]:
        problems.append(
            f"distribution NMI {fam['distribution']:.4f} below mean-only {fam['mean_only']:.4f}"
        )
    return problems


@dataclass
class Reference:
    """The untraced op that the traced run is compared against."""

    out: OpResult
    op_s: float  # inline op time, the base of the tracing overhead
    pool: dict
    problems: list = field(default_factory=list)


class Workload:
    """Shared parts; by default an op runs everything in this process."""

    def reference(self, inputs, tracer) -> Reference:
        """The untraced op on the traced run's first inputs."""
        started = time.perf_counter()
        out = self.run(inputs)
        op_s = time.perf_counter() - started
        return Reference(out, op_s, layers.NO_POOL, self.check(inputs, out))

    def close(self):
        pass


class SynthFlagship(Workload):
    name = "synth_flagship"
    why = (
        "paper headline cell d=7 k=5 n=200 q=30, all six algorithms inline; "
        "the pairwise divergence matrix does almost all the work"
    )
    sizes = {
        "full": dict(d=7, k=5, n_objects=200, samples_per_object=30),
        "toy": dict(d=6, k=3, n_objects=24, samples_per_object=20),
    }
    algorithms = ALGORITHMS

    def __init__(self, seed: int, size: str, root: Path, workdir: Path):
        self.seed = seed
        self.params = self.sizes[size]

    def prepare(self, index: int):
        started = time.perf_counter()
        seed = op_seed(self.seed, 0, index)
        bench = synthgen.generate_benchmark(**self.params, seed=seed)
        return (bench, seed), time.perf_counter() - started

    def run(self, inputs, inline: bool = True) -> OpResult:
        bench, seed = inputs
        return _cluster_all(bench.groups, bench.truth, self.params["k"], self.algorithms, seed)

    def check(self, inputs, out: OpResult) -> list[str]:
        return _synthetic_problems(out, self.params["n_objects"], self.params["k"])


class ManyObjects(Workload):
    name = "many_objects"
    why = (
        "n=2000 groups read from CSV, the four algorithms that need no divergence "
        "matrix; stresses CSV read, estimation, the n x n eigensolve, Lloyd and KL k-means"
    )
    sizes = {
        "full": dict(d=7, k=5, n_objects=2000, samples_per_object=30),
        "toy": dict(d=6, k=3, n_objects=48, samples_per_object=20),
    }
    algorithms = ("kmeans_means", "spectral_means", "kl", "klpp")
    slots = 3  # distinct CSV files; ops cycle through them

    def __init__(self, seed: int, size: str, root: Path, workdir: Path):
        self.seed = seed
        self.params = self.sizes[size]
        self.workdir = workdir
        self.files = {}

    def prepare(self, index: int):
        slot = index % self.slots
        setup_s = None
        if slot not in self.files:
            started = time.perf_counter()
            bench = synthgen.generate_benchmark(**self.params, seed=op_seed(self.seed, 1, slot))
            path = self.workdir / f"groups-{slot}.csv"
            storage.write_groups_csv(path, bench.groups)
            self.files[slot] = (path, bench.truth)
            setup_s = time.perf_counter() - started
        path, truth = self.files[slot]
        return (path, truth, op_seed(self.seed, 0, index)), setup_s

    def run(self, inputs, inline: bool = True) -> OpResult:
        path, truth, seed = inputs
        groups = storage.read_groups_csv(path)
        return _cluster_all(groups, truth, self.params["k"], self.algorithms, seed)

    def check(self, inputs, out: OpResult) -> list[str]:
        return _synthetic_problems(out, self.params["n_objects"], self.params["k"])

    def close(self):
        for path, _ in self.files.values():
            path.unlink(missing_ok=True)


@contextlib.contextmanager
def recording_run_pipeline(out: OpResult):
    """Time and keep the labels of every run_pipeline call made in this process.

    benchmark_stock calls run_pipeline itself, so this is the one way to time
    its calls directly. With a pool, only the clean reference pass runs here.
    """
    original = pipeline.run_pipeline

    def recorded(groups, config):
        started = time.perf_counter()
        result = original(groups, config)
        elapsed = time.perf_counter() - started
        alg = config.algorithm
        out.cluster_s[alg] = out.cluster_s.get(alg, 0.0) + elapsed
        out.labels.setdefault(alg, []).append(result.assignment.labels)
        return result

    pipeline.run_pipeline = recorded
    try:
        yield
    finally:
        pipeline.run_pipeline = original


class StockPool(Workload):
    name = "stock_pool"
    why = (
        "one bench-stock job on the real OHLC fixture (n=40 d=4 q=60) with the "
        "2-worker spawn pool; stresses pool start-up and argument pickling"
    )
    sizes = {
        "full": dict(k_list=[4], noise_sigmas=[1.0, 2.0, 3.0], trials=10),
        "toy": dict(k_list=[4], noise_sigmas=[1.0], trials=2),
    }
    algorithms = ALGORITHMS
    threads = 2
    fixture = Path("tests/data/stocks_ohlc.csv")

    def __init__(self, seed: int, size: str, root: Path, workdir: Path):
        self.seed = seed
        self.params = self.sizes[size]
        self.path = root / self.fixture

    def prepare(self, index: int):
        return op_seed(self.seed, 0, index), None

    def run(self, base_seed, inline: bool = False) -> OpResult:
        out = OpResult()
        with recording_run_pipeline(out):
            groups = ingest.read_stock_csv(self.path).groups
            out.n = len(groups)
            out.report = pipeline.benchmark_stock(
                groups, base_seed=base_seed, threads=1 if inline else self.threads, **self.params
            )
        scores = {}
        for cell in out.report["cells"]:
            scores.setdefault(cell["algorithm"], []).append(cell["mean_nmi"])
        out.nmi = {alg: float(np.mean(v)) for alg, v in scores.items()}
        return out

    def check(self, inputs, out: OpResult) -> list[str]:
        problems = []
        cells = out.report["cells"]
        expected = len(self.params["k_list"]) * len(self.params["noise_sigmas"]) * len(self.algorithms)
        if len(cells) != expected:
            problems.append(f"report has {len(cells)} cells, expected {expected}")
        for cell in cells:
            if cell["trials"] != self.params["trials"] or len(cell["scores"]) != cell["trials"]:
                problems.append(f"cell {cell['algorithm']}/{cell['noise_sigma']}: wrong trial count")
            for score in cell["scores"]:
                problems += nmi_problems({cell["algorithm"]: score}, f"sigma={cell['noise_sigma']}")
        if set(out.labels) != set(self.algorithms):
            problems.append(f"clean pass ran {sorted(out.labels)}")
        k = self.params["k_list"][0]
        for alg, runs in out.labels.items():
            for labels in runs:
                problems += label_problems(labels, out.n, k, alg)
        return problems

    def reference(self, base_seed, tracer) -> Reference:
        """The op pooled and inline, both untraced but for the pool probes.

        The pooled report must equal the inline one byte for byte, once
        storage.canonical_json_bytes drops its volatile keys.
        """
        layers.install_pool_probes(tracer)
        try:
            tracer.op = "pooled"
            pooled = self.run(base_seed)
            tracer.op = "inline"
            started = time.perf_counter()
            inline = self.run(base_seed, inline=True)
            inline_s = time.perf_counter() - started
        finally:
            tracer.uninstall()
        problems = self.check(base_seed, pooled) + self.check(base_seed, inline)
        problems += report_mismatch(pooled, inline, "pooled vs inline")
        return Reference(pooled, inline_s, layers.pool_figures(tracer, "pooled", "inline"), problems)


def report_mismatch(a: OpResult, b: OpResult, where: str) -> list[str]:
    if storage.canonical_json_bytes(a.report) != storage.canonical_json_bytes(b.report):
        return [f"{where}: canonical report bytes differ"]
    return []


def label_mismatch(a: OpResult, b: OpResult, where: str) -> list[str]:
    """Compare the first label vector of every algorithm (the clean pass for
    stock_pool, whose inline op also clusters every noisy trial here)."""
    problems = []
    for alg in sorted(set(a.labels) | set(b.labels)):
        first_a = a.labels.get(alg, [None])[0]
        first_b = b.labels.get(alg, [None])[0]
        if first_a is None or first_b is None or not np.array_equal(first_a, first_b):
            problems.append(f"{where}: {alg} labels differ")
    if a.report is not None:
        problems += report_mismatch(a, b, where)
    return problems


WORKLOADS = {w.name: w for w in (SynthFlagship, ManyObjects, StockPool)}
