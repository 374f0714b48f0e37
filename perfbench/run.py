"""distclust benchmark: one workload per run, measured from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload synth_flagship --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with no tracing. Op times are
scaled to a reference machine speed by a probe timed between ops (see
probe.py); the raw wall times are printed above the metrics. ``--trace 1`` is
the separate traced run: it makes one untraced reference op, then traces ops
(starting again from the reference's inputs) and reports the per-layer
metrics in raw wall time. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in both modes, one child process at a
time.

The program is imported from ``src/`` beside this directory, with BLAS pinned
to one thread. Load comes from this single process. The only other processes
are the 2-worker spawn pools that stock_pool's ops create, the resource
tracker that multiprocessing starts with them, and the short-lived interpreters
that time the import for ``setup_s``. Every one of them has ended when this
process exits.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "distclust" / "__init__.py").is_file():
    sys.exit(f"perfbench: no distclust sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import distclust  # noqa: E402

if not Path(distclust.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported distclust from {distclust.__file__}, not from {SRC}")

from distclust import metrics as dc_metrics  # noqa: E402

import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "nmi.distribution": "nmi",
    "peak_rss_mb": "MB",
}
MATRIX_SAMPLES = 8  # distance-matrix entries re-computed by scalar calls, per matrix
IMPORT_SAMPLES = 5  # fresh interpreters timed importing numpy and distclust
PROBES_PER_GAP = 3  # probe passes between two ops
OUT_DIR = ROOT / "perfbench" / "out"


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
    }


def import_seconds() -> list[float]:
    """Wall times of fresh interpreters importing numpy and distclust."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, distclust"], env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - started)
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Tally:
    """Ops attempted and failed; an op fails if it raises or a check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, index, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"op {index}: {p}" for p in problems]


def _timed_op(wl, inputs, inline=False):
    """One op, timed; returns (result or None, seconds, problems)."""
    started = time.perf_counter()
    try:
        out = wl.run(inputs, inline=inline)
    except Exception:  # an op that raises counts as failed, and the run goes on
        return None, time.perf_counter() - started, [traceback.format_exc()]
    return out, time.perf_counter() - started, None


def _more_time(started: float, seconds: float, op_times: list) -> bool:
    """Start another op only if it should end within the run's budget."""
    return time.perf_counter() - started + statistics.median(op_times) <= seconds


def untraced_run(wl, seconds: float) -> tuple[dict, dict, Tally]:
    """Ops until the budget is spent; returns (metrics, details to print, tally).

    Times in the metrics are scaled to the probe's reference speed: each op
    time by the mean of the median probe just before it and the median probe
    just after it, ``setup_s`` by the median of every probe in the run.
    """
    tally = Tally()
    imports = import_seconds()
    setup, op_times, scaled_ops, nmi = [], [], [], []
    cluster = {}  # algorithm -> scaled run_pipeline seconds, one per op
    gaps = [[probe.probe_s() for _ in range(PROBES_PER_GAP)]]
    started = time.perf_counter()
    for index in itertools.count():
        inputs, setup_s = wl.prepare(index)
        if setup_s is not None:
            setup.append(setup_s)
        out, op_s, problems = _timed_op(wl, inputs)
        gaps.append([probe.probe_s() for _ in range(PROBES_PER_GAP)])
        speed = (statistics.median(gaps[-2]) + statistics.median(gaps[-1])) / 2.0
        op_times.append(op_s)
        if out is not None:
            problems = wl.check(inputs, out)
            scaled_ops.append(probe.scaled(op_s, speed))
            for alg, t in out.cluster_s.items():
                cluster.setdefault(alg, []).append(probe.scaled(t, speed))
            nmi.append(workloads.family_means(out.nmi)["distribution"])
        tally.record(index, problems)
        if not _more_time(started, seconds, op_times):
            break
    detail = {
        "op_s": op_times,
        "probe_s": gaps,
        "import_s": imports,
        "prepare_s": setup,
        "cluster_s": {alg: statistics.median(v) for alg, v in cluster.items()},
    }
    if not scaled_ops:
        return {name: 0.0 for name in END_TO_END}, detail, tally
    values = {
        "setup_s": probe.scaled(
            statistics.median(imports) + (statistics.median(setup) if setup else 0.0),
            statistics.median(p for gap in gaps for p in gap),
        ),
        "ops_per_s": len(scaled_ops) / sum(scaled_ops),
        "op_s.p50": statistics.median(scaled_ops),
        "nmi.distribution": statistics.fmean(nmi),
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, detail, tally


def matrix_problems(matrices: list, rng: np.random.Generator) -> list[str]:
    """Sampled matrix entries must equal the scalar divergence bit for bit."""
    problems = []
    for models, dm in matrices:
        scalar = getattr(dc_metrics, dm.metric)
        for _ in range(MATRIX_SAMPLES):
            i, j = sorted(int(v) for v in rng.choice(len(models), 2, replace=False))
            want = np.float64(scalar(models[i], models[j]))
            if dm.values[i, j].tobytes() != want.tobytes():
                problems.append(f"{dm.metric}[{i},{j}] = {dm.values[i, j]!r}, scalar {want!r}")
    return problems


def traced_run(wl, seconds: float, seed: int, spans_path: Path) -> tuple[dict, Tally]:
    tally = Tally()
    tracer = Tracer()
    probes = [probe.probe_s()]
    started = time.perf_counter()
    inputs, _ = wl.prepare(0)
    ref = wl.reference(inputs, tracer)
    tally.record("reference", ref.problems)

    matrices: list = []
    rng = np.random.default_rng([seed, 0x5EED])
    traced_ops, op_times, mean_only = [], [], []
    entries_checked = 0
    layers.install(tracer, matrices)
    try:
        for index in itertools.count():
            if index:
                tracer.paused = True  # input generation is not part of the op
                inputs, _ = wl.prepare(index)
            tracer.op = index
            tracer.paused = False
            with tracer.span("op"):
                out, op_s, problems = _timed_op(wl, inputs, inline=True)
            tracer.paused = True  # nor are the checks
            probes.append(probe.probe_s())
            if out is not None:
                problems = wl.check(inputs, out) + matrix_problems(matrices, rng)
                entries_checked += MATRIX_SAMPLES * len(matrices)
                if index == 0:
                    problems += workloads.label_mismatch(ref.out, out, "traced vs untraced")
                traced_ops.append(index)
                op_times.append(op_s)
                mean_only.append(workloads.family_means(out.nmi)["mean_only"])
            matrices.clear()
            tally.record(index, problems)
            if not _more_time(started, seconds, op_times or [0.0]):
                break
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(spans_path)
    for name in tracer.missing:
        print(f"perfbench: {name} not found; its layer metrics read 0", file=sys.stderr)

    if not traced_ops:
        return {}, tally
    values = layers.layer_metrics(tracer, traced_ops, ref.pool)
    traced_rate = len(op_times) / sum(op_times)
    untraced_rate = 1.0 / ref.op_s
    values.update(
        {
            "trace.ops": (len(traced_ops), "count"),
            "trace.ops_per_s": (traced_rate, "1/s"),
            "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
            "trace.overhead_ratio": (untraced_rate / traced_rate, "ratio"),
            "checks.matrix_entries": (entries_checked / len(traced_ops), "count/op"),
            "checks.failed_ratio": (tally.failed / tally.attempted, "ratio"),
            "nmi.mean_only": (statistics.fmean(mean_only), "nmi"),
            "machine.probe_s": (statistics.median(probes), "s"),
        }
    )
    return values, tally


def _print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:<52} {entry['value']:>16.6g} {entry['unit']}")


def run_one(args) -> int:
    wl_class = workloads.WORKLOADS[args.workload]
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    wl = wl_class(args.seed, args.size, ROOT, run_dir)
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-pid{os.getpid()}.jsonl"
            values, tally = traced_run(wl, args.seconds, args.seed, spans_path)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        else:
            values, detail, tally = untraced_run(wl, args.seconds)
            metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    finally:
        wl.close()
        run_dir.rmdir()

    print(f"# workload {args.workload}: {wl_class.why}")
    print(f"# seed {args.seed}, {args.seconds} s, trace {args.trace}, size {args.size}")
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not args.trace:
        print("# raw wall time of each op, and of the probe before and after it:")
        print("#   op_s " + " ".join(f"{t:.4f}" for t in detail["op_s"]))
        print("#   probe_s " + " | ".join(" ".join(f"{t:.4f}" for t in g) for g in detail["probe_s"]))
        print("# raw set-up samples, scaled by the median probe for setup_s:")
        print("#   import_s " + " ".join(f"{t:.4f}" for t in detail["import_s"]))
        print("#   prepare_s " + " ".join(f"{t:.4f}" for t in detail["prepare_s"]))
        print("# median run_pipeline time per op, timed directly, scaled like op_s:")
        for alg, t in detail["cluster_s"].items():
            print(f"#   cluster_s.{alg} {t:.6g} s")
    print(f"# ops attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_ratio {tally.failed / tally.attempted:.6g}")
    _print_metrics(metrics)
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = child.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if child.returncode != 0:
                status = child.returncode
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input, for the smoke tests")
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """End the resource tracker that spawn pools start, and wait for it.

    Left alone it outlives this process until it notices the closed pipe.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):  # Python 3.12 and later
        tracker._stop()
        return
    with tracker._lock:
        if tracker._fd is None:
            return
        os.close(tracker._fd)
        tracker._fd = None
        try:
            os.waitpid(tracker._pid, 0)
        except ChildProcessError:
            pass
        tracker._pid = None


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.seed %= 2**64  # numpy seed sequences take non-negative integers
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
