"""Time the k-means stages on fixed inputs and write the timings as JSON.

Run it against the ``src/`` of any tree:

    PYTHONPATH=src python tools/stagebench.py --out BENCH.json
    PYTHONPATH=src python tools/stagebench.py --compare BENCH.json
    PYTHONPATH=src python tools/stagebench.py --quick

Each row calls one stage function of ``distclust`` directly on fixed
inputs; nothing in the package is patched, so a renamed stage fails the
script. The rows:

* ``kmeans/n=<n>``: Lloyd's ``kmeans`` (10 restarts) on the fitted means,
  n = 40 the stock fixture's groups at k = 4, n = 200 and 2000 the fits of
  ``generate_benchmark(7, 5, n, 30, seed=3)`` at k = 5;
* ``kl_cluster/<seeding>/n=<n>``: KL k-means with ``random`` and ``klpp``
  seeding on the same models and k.

Every run draws from ``default_rng(1)``. The rows run in rounds, each round
timing every row once, so a slow spell of the machine falls on all rows
alike; a row's time in a round is the mean of enough calls to last about
``BATCH_S``. The file records each row's median, quartiles and number of
rounds, the git revision of the ``distclust`` tree, and the machine: cores,
the BLAS and kernel thread settings and the Python and numpy versions; the
``probe`` row, a fixed mix of numpy and Python work, times the machine
itself in the same rounds. ``--compare`` prints each row's ratio to
another file's median, raw and over the probe's ratio, marked ``*`` where
the two files' quartile ranges do not overlap. ``--quick`` runs one round
of the n <= 200 rows, to check that every stage still runs.
"""

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

import distclust
from distclust import klcluster
from distclust.gaussian import estimate_gaussians
from distclust.ingest import read_stock_csv
from distclust.synthgen import generate_benchmark

STOCK_CSV = Path(__file__).resolve().parent.parent / "tests" / "data" / "stocks_ohlc.csv"
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DISTCLUST_THREADS")
# seconds of calls that make one row's time in a round
BATCH_S = 0.020


def inputs(sizes) -> dict:
    """n -> (models, k): the stock fixture's fits at n = 40, the benchmark
    fits otherwise."""
    out = {}
    for n in sizes:
        if n == 40:
            out[n] = estimate_gaussians(read_stock_csv(STOCK_CSV).groups), 4
        else:
            out[n] = estimate_gaussians(generate_benchmark(7, 5, n, 30, seed=3).groups), 5
    return out


def rows(sizes) -> dict:
    """Row name -> a call of its stage, and the probe."""
    out = {"probe": probe}
    for n, (models, k) in inputs(sizes).items():
        means = np.stack([m.mean for m in models])
        out[f"kmeans/n={n}"] = lambda means=means, k=k: klcluster.kmeans(
            means, k, np.random.default_rng(1)
        )
        for seeding in klcluster.SEEDINGS:
            out[f"kl_cluster/{seeding}/n={n}"] = (
                lambda models=models, k=k, seeding=seeding: klcluster.kl_cluster(
                    models, k, np.random.default_rng(1), seeding=seeding
                )
            )
    return out


def calls_per_batch(fn) -> int:
    """Calls of ``fn`` that take about ``BATCH_S``, after one warm-up call."""
    fn()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    return max(1, round(BATCH_S / max(once, 1e-9)))


def measure(calls: dict, rounds: int) -> dict:
    counts = {name: calls_per_batch(fn) for name, fn in calls.items()}
    times = {name: [] for name in calls}
    for _ in range(rounds):
        for name, fn in calls.items():
            start = time.perf_counter()
            for _ in range(counts[name]):
                fn()
            times[name].append((time.perf_counter() - start) / counts[name])
    out = {}
    for name, seconds in times.items():
        q1, median, q3 = np.percentile(seconds, [25, 50, 75]).tolist()
        out[name] = {"median_s": median, "q1_s": q1, "q3_s": q3,
                     "rounds": rounds, "calls_per_round": counts[name]}
    return out


def probe() -> None:
    """A fixed mix of numpy GEMMs and a Python loop, timed as a row of its
    own, so a file shows how fast the machine ran while its rows did."""
    a = np.random.default_rng(0).standard_normal((200, 200))
    for _ in range(5):
        a @ a
    sum(i * i for i in range(20000))


def revision() -> dict:
    """The git revision of the tree ``distclust`` was imported from, and
    whether its ``src/`` differs from that revision; None outside git."""
    root = Path(distclust.__file__).resolve().parent
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--", "."], cwd=root,
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "src_modified": None}
    return {"revision": head, "src_modified": bool(status.strip())}


def machine() -> dict:
    return {
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "env": {key: os.environ.get(key) for key in ENV_KEYS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def compare(current: dict, other: dict) -> None:
    """Each row's median against ``other``'s, as a ratio and as that ratio
    over the probe's, which takes out how much faster or slower the machine
    ran; ``*`` marks rows whose quartile ranges do not overlap."""
    probes = [f["rows"].get("probe") for f in (current, other)]
    probe_ratio = probes[0]["median_s"] / probes[1]["median_s"] if all(probes) else float("nan")
    print(f"{'row':<28} {'this ms':>9} {'other ms':>9} {'ratio':>7} {'/ probe':>8}")
    for name, row in current["rows"].items():
        base = other["rows"].get(name)
        if base is None:
            print(f"{name:<28} {row['median_s'] * 1e3:9.3f} {'-':>9}")
            continue
        apart = row["q3_s"] < base["q1_s"] or base["q3_s"] < row["q1_s"]
        ratio = row["median_s"] / base["median_s"]
        print(f"{name:<28} {row['median_s'] * 1e3:9.3f} {base['median_s'] * 1e3:9.3f} "
              f"{ratio:7.3f} {ratio / probe_ratio:8.3f}{' *' if apart else ''}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--quick", action="store_true", help="one round of the n <= 200 rows")
    parser.add_argument("--out", help="write the JSON here")
    parser.add_argument("--compare", help="a file this script wrote, to print ratios against")
    args = parser.parse_args(argv)
    sizes = (40, 200) if args.quick else (40, 200, 2000)
    rounds = 1 if args.quick else args.rounds
    result = {**revision(), "machine": machine(),
              "rows": measure(rows(sizes), rounds)}
    text = json.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.compare:
        compare(result, json.loads(Path(args.compare).read_text()))
    elif not args.out:
        print(text)


if __name__ == "__main__":
    main()
