"""Command-line interface.

Subcommands cover the whole workflow: estimate models from a groups CSV,
build divergence matrices, cluster, score two labelings, generate synthetic
benchmarks, and run the synthetic or stock benchmark harnesses. ``cluster``
takes a groups CSV or a saved distance-matrix JSON; either way it prints one
summary line of the run's numeric diagnostics, and a warning to stderr for
each option the run ignores.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 for data
errors (unreadable files, schema violations, numerical failures).
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .errors import DistclustError, InvalidConfig
from .gaussian import estimate_gaussians
from .ingest import log_return_transform, read_stock_csv
from .klcluster import ClusterAssignment
from .evaluation import nmi
from .metrics import KNOWN_METRICS, distance_matrix
from .pipeline import (
    ALGORITHMS,
    PipelineConfig,
    benchmark_stock,
    benchmark_synthetic,
    cluster_matrix,
    run_pipeline,
    spectral_metric,
)
from .storage import (
    read_distance_matrix_json,
    read_groups_csv,
    read_labels_json,
    read_models_json,
    write_distance_matrix,
    write_groups_csv,
    write_labels_json,
    write_models_json,
    write_report,
)
from .synthgen import generate_benchmark

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; remap to 1 so status 2
    stays reserved for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _list_of(item):
    """An argparse type: a comma-separated list, each non-blank part read
    by ``item``; a ValueError from it is a usage error."""

    def parse(text: str) -> list:
        try:
            return [item(part.strip()) for part in text.split(",") if part.strip()]
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"{text!r}: {err}") from None

    return parse


def _algorithm(name: str) -> str:
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}")
    return name


def _add_cluster_options(p: argparse.ArgumentParser):
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--sigma", type=float, default=None, help="kernel bandwidth")
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--eps-scale", type=float, default=PipelineConfig.eps_scale)
    p.add_argument("--restarts", type=int, default=PipelineConfig.restarts)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument(
        "--kernel-on-sqrt",
        action="store_true",
        help="kernelize square roots of stored distances",
    )
    p.add_argument(
        "--klpp-squared",
        action="store_true",
        help="weight ++-seeding by squared divergences",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="distclust", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit one Gaussian per group")
    p.add_argument("input", help="groups CSV")
    p.add_argument("--out", required=True, help="models JSON to write")
    p.add_argument("--eps-scale", type=float, default=PipelineConfig.eps_scale)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("distmat", help="pairwise divergence matrix of models")
    p.add_argument("input", help="models JSON")
    p.add_argument("--metric", choices=KNOWN_METRICS, required=True)
    p.add_argument("--out", required=True, help=".json (keeps metric tag) or .csv")
    p.set_defaults(func=cmd_distmat)

    p = sub.add_parser("cluster", help="cluster groups or a saved distance matrix")
    p.add_argument("input", help="groups CSV, or distance-matrix JSON")
    p.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    p.add_argument("--out", required=True, help="labels JSON to write")
    _add_cluster_options(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("nmi", help="normalized mutual information of two labelings")
    p.add_argument("labels_a", help="labels JSON")
    p.add_argument("labels_b", help="labels JSON")
    p.set_defaults(func=cmd_nmi)

    p = sub.add_parser("synth", help="write one synthetic benchmark instance")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-objects", type=int, default=200)
    p.add_argument("--samples-per-object", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--simplex-boundary", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench-synth", help="synthetic benchmark over (d, k) grid")
    p.add_argument("--d-list", type=_list_of(int), required=True)
    p.add_argument("--k-list", type=_list_of(int), required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-objects", type=int, default=200)
    p.add_argument("--samples-per-object", type=int, default=30)
    p.add_argument("--simplex-boundary", action="store_true")
    p.add_argument("--algorithms", type=_list_of(_algorithm), default=list(ALGORITHMS))
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bench_synth)

    p = sub.add_parser("bench-stock", help="noise-stability benchmark on OHLC data")
    p.add_argument("input", help="stock CSV (date,symbol,open,close,low,high)")
    p.add_argument("--k-list", type=_list_of(int), required=True)
    p.add_argument("--sigma-list", type=_list_of(float), required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-days", type=int, default=2)
    p.add_argument("--strict", action="store_true", help="fail on malformed rows")
    p.add_argument("--log-returns", action="store_true")
    p.add_argument("--algorithms", type=_list_of(_algorithm), default=list(ALGORITHMS))
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bench_stock)

    return parser


def cmd_estimate(args) -> int:
    groups = read_groups_csv(args.input)
    models = estimate_gaussians(groups, args.eps_scale)
    write_models_json(args.out, models)
    print(f"wrote {len(models)} models to {args.out}")
    return 0


def cmd_distmat(args) -> int:
    models = read_models_json(args.input)
    dm = distance_matrix(models, args.metric)
    write_distance_matrix(args.out, dm)
    print(f"wrote {dm.n}x{dm.n} {dm.metric} matrix to {args.out}")
    return 0


def cmd_cluster(args) -> int:
    # every PipelineConfig field is a cluster option of the same name
    config = PipelineConfig(**{f.name: getattr(args, f.name) for f in fields(PipelineConfig)})
    if args.input.lower().endswith(".json"):
        spectral_metric(config.algorithm)  # a usage error before the file is read
        if config.eps_scale != PipelineConfig.eps_scale:
            print("warning: eps_scale ignored for a saved distance matrix", file=sys.stderr)
        result = cluster_matrix(read_distance_matrix_json(args.input), config)
    else:
        result = run_pipeline(read_groups_csv(args.input), config)
    for note in result.warnings:
        print(f"warning: {note}", file=sys.stderr)
    assignment = result.assignment
    details = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in sorted(result.diagnostics.items())
                        if not isinstance(v, str))
    print(f"clustered {assignment.n} objects into k={assignment.k} ({details})")
    write_labels_json(args.out, assignment)
    print(f"wrote labels to {args.out}")
    return 0


def cmd_nmi(args) -> int:
    a = read_labels_json(args.labels_a)
    b = read_labels_json(args.labels_b)
    print(f"{nmi(a.labels, b.labels):.10f}")
    return 0


def cmd_synth(args) -> int:
    bench = generate_benchmark(
        d=args.d,
        k=args.k,
        n_objects=args.n_objects,
        samples_per_object=args.samples_per_object,
        seed=args.seed,
        simplex_boundary=args.simplex_boundary,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_groups_csv(out / "groups.csv", bench.groups)
    write_labels_json(out / "truth.json", ClusterAssignment(bench.truth, args.k))
    print(f"wrote {len(bench.groups)} groups to {out / 'groups.csv'}")
    print(f"wrote ground truth to {out / 'truth.json'}")
    return 0


def _write_and_print(report: dict, out_dir, keys) -> int:
    """Write the report, then print each cell's scores and the paths."""
    json_path, csv_path = write_report(report, out_dir)
    for cell in report["cells"]:
        front = " ".join(f"{key}={cell[key]}" for key in keys)
        print(
            f"{front} {cell['algorithm']}: mean_nmi={cell['mean_nmi']:.4f} "
            f"var={cell['var_nmi']:.4f} ({cell['trials']} trials)"
        )
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_bench_synth(args) -> int:
    report = benchmark_synthetic(
        d_list=args.d_list,
        k_list=args.k_list,
        trials=args.trials,
        base_seed=args.seed,
        algorithms=args.algorithms,
        n_objects=args.n_objects,
        samples_per_object=args.samples_per_object,
        simplex_boundary=args.simplex_boundary,
        threads=args.threads,
    )
    return _write_and_print(report, args.out_dir, ("d", "k"))


def cmd_bench_stock(args) -> int:
    ingest = read_stock_csv(args.input, strict=args.strict, min_days=args.min_days)
    for err in ingest.skipped:
        print(f"warning: skipped {err}", file=sys.stderr)
    for symbol in ingest.dropped_symbols:
        print(f"warning: dropped {symbol} (too few days)", file=sys.stderr)
    groups = ingest.groups
    if args.log_returns:
        groups = log_return_transform(groups)
    report = benchmark_stock(
        groups,
        k_list=args.k_list,
        noise_sigmas=args.sigma_list,
        trials=args.trials,
        base_seed=args.seed,
        algorithms=args.algorithms,
        threads=args.threads,
    )
    return _write_and_print(report, args.out_dir, ("k", "noise_sigma"))


def entrypoint(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidConfig as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (DistclustError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
