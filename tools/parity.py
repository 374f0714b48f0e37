"""Print one sha256 line per parity item, so two trees' outputs can be diffed.

Run it against the ``src/`` of any tree:

    PYTHONPATH=src python tools/parity.py > parity.txt

Each line is ``<tag> <item> <sha256>``. The tag names the part of the
README's "Determinism" contract that covers the item's bytes:

* ``labels``: a run's partition, its clusters numbered in order of first
  appearance, equal at every kernel thread count (``DISTCLUST_THREADS``),
  trial process count and BLAS thread count;
* ``report``: a benchmark report's canonical bytes, equal as partitions are;
* ``full``: a run's labels as returned and ``repr`` of its diagnostics,
  full-precision values such as ``ncut`` among them, or a divergence
  matrix's bytes, equal at every kernel thread and process count, but free
  to change with the BLAS thread count.

The items: all six algorithms on ``generate_benchmark(7, 5, 200, 30)`` at
seeds 1 and 2; the four algorithms that need no divergence matrix at
n = 2000 and the two divergence spectral algorithms at n = 600, at seed 3;
the ``wasserstein_sq``, ``bhattacharyya`` and ``kl`` matrices of the
n = 800 fits at seed 3 (``distmat/<metric>/n=800/seed=3``, the values'
bytes); and the report of ``bench-stock`` on the stock fixture at
``--threads`` 1 and 2. No hash is stored anywhere: each pins one machine's
BLAS kernels.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from distclust.gaussian import estimate_gaussians
from distclust.metrics import distance_matrix
from distclust.pipeline import ALGORITHMS, PipelineConfig, run_pipeline
from distclust.storage import canonical_json_bytes
from distclust.synthgen import generate_benchmark

STOCK_CSV = Path(__file__).resolve().parent.parent / "tests" / "data" / "stocks_ohlc.csv"


def emit(tag: str, item: str, data: bytes) -> None:
    print(tag, item, hashlib.sha256(data).hexdigest(), flush=True)


def clustered(algorithms, n: int, seed: int) -> None:
    groups = generate_benchmark(7, 5, n, 30, seed=seed).groups
    for algorithm in algorithms:
        result = run_pipeline(groups, PipelineConfig(algorithm, 5, seed=seed))
        item = f"{algorithm}/n={n}/seed={seed}"
        labels = result.assignment.labels
        numbers = {}
        partition = [numbers.setdefault(label, len(numbers)) for label in labels.tolist()]
        emit("labels", item, repr(partition).encode())
        emit("full", item, labels.tobytes() + repr(result.diagnostics).encode())


def matrices(n: int, seed: int) -> None:
    models = estimate_gaussians(generate_benchmark(7, 5, n, 30, seed=seed).groups)
    for metric in ("wasserstein_sq", "bhattacharyya", "kl"):
        values = distance_matrix(models, metric).values
        emit("full", f"distmat/{metric}/n={n}/seed={seed}", values.tobytes())


def stock_report(threads: int) -> None:
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(
            [sys.executable, "-m", "distclust.cli", "bench-stock", str(STOCK_CSV),
             "--k-list", "2,3,4", "--sigma-list", "0,0.01,1", "--trials", "3",
             "--threads", str(threads), "--out-dir", out],
            check=True, stdout=subprocess.DEVNULL,
        )
        report = json.loads(Path(out, "report.json").read_text())
    emit("report", f"bench-stock/threads={threads}", canonical_json_bytes(report))


def main() -> None:
    for seed in (1, 2):
        clustered(ALGORITHMS, 200, seed)
    clustered(("kmeans_means", "spectral_means", "kl", "klpp"), 2000, 3)
    clustered(("wasserstein_spectral", "bhattacharyya_spectral"), 600, 3)
    matrices(800, 3)
    for threads in (1, 2):
        stock_report(threads)


if __name__ == "__main__":
    main()
