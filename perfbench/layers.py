"""Where the traced run wraps the program, and the per-layer metrics it yields.

Each wrapper sits at the name the caller looks up: ``pipeline.kmeans`` is
k-means on the fitted means, ``spectral.kmeans`` is k-means on the spectral
embedding, ``metrics.spd_inverse`` is the inverse the divergence kernels call.
Every per-layer value is per traced op unless its unit says otherwise. Which
end-to-end metric each layer should move, and on which workload, is written
down in README.md beside this file.
"""

import os

from distclust import evaluation, ingest, klcluster, matrixcore, metrics, pipeline, spectral, storage

ALGORITHMS = pipeline.ALGORITHMS

DIVERGENCES = ("wasserstein_sq", "bhattacharyya")
SPD_HELPERS = ("spd_inverse", "spd_logdet", "spd_sqrt")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer, matrices: list) -> None:
    """Wrap every traced call site.

    ``matrices`` receives ``(models, DistanceMatrix)`` for each divergence
    matrix built, for the bit-for-bit check against the scalar calls.
    """

    def dm_name(args, kwargs):
        return f"metrics.distance_matrix.{_arg(args, kwargs, 1, 'metric')}"

    def dm_attrs(args, kwargs, result):
        models = _arg(args, kwargs, 0, "models")
        matrices.append((models, result))
        n = len(models)
        return {"pairs": n * (n - 1) // 2}

    def euclid_attrs(args, kwargs, result):
        models = _arg(args, kwargs, 0, "models")
        n = len(models)
        # the n x n x d difference array mean_euclidean_matrix materialises
        return {"bytes": 8 * n * n * models[0].dim}

    def kl_attrs(args, kwargs, result):
        return {
            "iterations": result.iterations,
            "repairs": len(result.repair_iterations),
            "converged": bool(result.converged),
        }

    def table_attrs(args, kwargs, result):
        return {"entries": int(result.size)}

    def csv_attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}

    spans = [
        (pipeline, "run_pipeline",
         lambda a, kw: f"pipeline.run_pipeline.{_arg(a, kw, 1, 'config').algorithm}", None),
        (pipeline, "estimate_gaussian", "gaussian.estimate_gaussian", None),
        (pipeline, "distance_matrix", dm_name, dm_attrs),
        (pipeline, "mean_euclidean_matrix", "metrics.mean_euclidean_matrix", euclid_attrs),
        (pipeline, "kernelize", "spectral.kernelize", None),
        (pipeline, "kmeans", "spectral.kmeans.means", None),
        (pipeline, "kl_cluster", "klcluster.kl_cluster", kl_attrs),
        (pipeline, "nmi", "evaluation.nmi", None),
        (pipeline, "add_noise", "ingest.add_noise", None),
        (evaluation, "nmi", "evaluation.nmi", None),
        (spectral, "spectral_embedding", "spectral.spectral_embedding", None),
        (spectral, "kmeans", "spectral.kmeans.embedding", None),
        (spectral, "ncut", "spectral.ncut", None),
        (klcluster, "klpp_seed", "klcluster.klpp_seed", None),
        (klcluster, "center_update", "klcluster.center_update", None),
        (klcluster, "kl_divergence_table", "metrics.kl_divergence_table", table_attrs),
        (storage, "read_groups_csv", "storage.read_groups_csv", csv_attrs),
        (ingest, "read_stock_csv", "ingest.read_stock_csv", None),
    ]
    leaves = [(metrics, helper, f"matrixcore.{helper}") for helper in SPD_HELPERS]
    leaves.append((klcluster, "spd_logdet", "matrixcore.spd_logdet"))

    for owner, attr, name, attrs in spans:
        tracer.wrap(owner, attr, name, attrs)
    for owner, attr, name in leaves:
        tracer.wrap_leaf(owner, attr, name)
    tracer.count_calls(matrixcore.SymMatrix, "__post_init__", "matrixcore.SymMatrix.constructed")


def install_pool_probes(tracer) -> None:
    """Only the pool and the trial map: cheap enough for the reference runs."""
    tracer.wrap_pool_class(pipeline, "ProcessPoolExecutor", "pipeline.pool")
    tracer.wrap(pipeline, "_map_trials", "pipeline._map_trials")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, ops: list, pool: dict) -> dict:
    """Per-layer metrics from the traced ops ``ops``; ``pool`` holds the pool
    figures of the pooled reference op (zeros where no pool ran)."""
    n_ops = len(ops)
    op_set = set(ops)
    out = {}

    def spans(name):
        return tracer.named(name, op_set)

    def busy(name):
        return sum(s.duration for s in spans(name))

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def per_op(name, value, unit):
        put(name, value / n_ops, unit)

    op_time = busy("op")
    dm_busy = 0.0
    dm_calls = 0
    for metric in DIVERGENCES:
        found = spans(f"metrics.distance_matrix.{metric}")
        b = sum(s.duration for s in found)
        pairs = sum(s.attrs["pairs"] for s in found)
        dm_busy += b
        dm_calls += len(found)
        base = f"metrics.distance_matrix.{metric}"
        per_op(f"{base}.busy_s", b, "s/op")
        per_op(f"{base}.self_s", sum(s.self_s for s in found), "s/op")
        per_op(f"{base}.pairs", pairs, "count/op")
        put(f"{base}.pairs_per_s", _ratio(pairs, b), "1/s")
    per_op("metrics.distance_matrix.calls", dm_calls, "count/op")
    put("metrics.distance_matrix.op_share", _ratio(dm_busy, op_time), "ratio")

    for helper in SPD_HELPERS:
        calls, seconds = tracer.leaves.get(f"matrixcore.{helper}", (0, 0.0))
        per_op(f"matrixcore.{helper}.calls", calls, "count/op")
        per_op(f"matrixcore.{helper}.busy_s", seconds, "s/op")
    per_op(
        "matrixcore.SymMatrix.constructed",
        tracer.counts.get("matrixcore.SymMatrix.constructed", 0),
        "count/op",
    )

    per_op("gaussian.estimate_gaussian.calls", len(spans("gaussian.estimate_gaussian")), "count/op")
    per_op("gaussian.estimate_gaussian.busy_s", busy("gaussian.estimate_gaussian"), "s/op")

    per_op("spectral.spectral_embedding.busy_s", busy("spectral.spectral_embedding"), "s/op")
    per_op("spectral.kernelize.busy_s", busy("spectral.kernelize"), "s/op")
    for where in ("means", "embedding"):
        name = f"spectral.kmeans.{where}"
        per_op(f"{name}.calls", len(spans(name)), "count/op")
        per_op(f"{name}.busy_s", busy(name), "s/op")
    per_op("spectral.ncut.busy_s", busy("spectral.ncut"), "s/op")

    euclid = spans("metrics.mean_euclidean_matrix")
    per_op("metrics.mean_euclidean_matrix.busy_s", busy("metrics.mean_euclidean_matrix"), "s/op")
    per_op("metrics.mean_euclidean_matrix.bytes_computed", sum(s.attrs["bytes"] for s in euclid), "B/op")

    kl = spans("klcluster.kl_cluster")
    per_op("klcluster.kl_cluster.busy_s", busy("klcluster.kl_cluster"), "s/op")
    per_op("klcluster.kl_cluster.iterations", sum(s.attrs["iterations"] for s in kl), "count/op")
    per_op("klcluster.kl_cluster.repairs", sum(s.attrs["repairs"] for s in kl), "count/op")
    put(
        "klcluster.kl_cluster.converged_ratio",
        _ratio(sum(s.attrs["converged"] for s in kl), len(kl)),
        "ratio",
    )
    per_op("klcluster.klpp_seed.busy_s", busy("klcluster.klpp_seed"), "s/op")
    per_op("klcluster.center_update.busy_s", busy("klcluster.center_update"), "s/op")
    table = spans("metrics.kl_divergence_table")
    per_op("metrics.kl_divergence_table.calls", len(table), "count/op")
    per_op("metrics.kl_divergence_table.busy_s", busy("metrics.kl_divergence_table"), "s/op")
    per_op("metrics.kl_divergence_table.entries", sum(s.attrs["entries"] for s in table), "count/op")

    reads = spans("storage.read_groups_csv")
    per_op("storage.read_groups_csv.busy_s", busy("storage.read_groups_csv"), "s/op")
    per_op("storage.read_groups_csv.bytes", sum(s.attrs["bytes"] for s in reads), "B/op")
    per_op("ingest.read_stock_csv.busy_s", busy("ingest.read_stock_csv"), "s/op")
    per_op("ingest.add_noise.busy_s", busy("ingest.add_noise"), "s/op")
    per_op("evaluation.nmi.busy_s", busy("evaluation.nmi"), "s/op")

    for alg in ALGORITHMS:
        name = f"pipeline.run_pipeline.{alg}"
        per_op(f"{name}.busy_s", busy(name), "s/op")
        per_op(f"{name}.self_s", sum(s.self_s for s in spans(name)), "s/op")

    put("pipeline.pool.created", pool["created"], "count/op")
    put("pipeline.pool.alive_s", pool["alive_s"], "s/op")
    put("pipeline.pool.efficiency", pool["efficiency"], "ratio")
    return out


def pool_figures(probe, pooled_op, inline_op) -> dict:
    """Pool count, alive time and efficiency from the two reference ops.

    Efficiency is the inline op's trial time over workers x pool wall time.
    """
    pools = probe.named("pipeline.pool", {pooled_op})
    worker_seconds = sum(s.attrs["workers"] * s.duration for s in pools)
    inline_trials = sum(s.duration for s in probe.named("pipeline._map_trials", {inline_op}))
    return {
        "created": len(pools),
        "alive_s": sum(s.duration for s in pools),
        "efficiency": _ratio(inline_trials, worker_seconds),
    }


NO_POOL = {"created": 0, "alive_s": 0.0, "efficiency": 0.0}
