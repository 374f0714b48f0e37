"""On-disk formats: sample groups, labels, fitted models, distance matrices.

Formats are deliberately plain so other tools can produce or consume them:

* groups CSV: header ``object_id,sample_index,x_0,...,x_{d-1}``, one row per
  sample. Readers group rows by object_id, order by sample_index, and
  return groups sorted by object_id (numeric-aware, so obj_2 < obj_10).
* labels JSON: ``{"k": int, "labels": [int, ...]}``.
* models JSON: ``[{"mean": [...], "cov": [[...], ...]}, ...]``.
* distance matrix: headerless CSV of the square values, or JSON
  ``{"metric": str, "n": int, "rows": [[...], ...]}`` (JSON keeps the
  metric tag, which round-trips; CSV does not).
"""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import RowError, SchemaError
from .gaussian import GaussianModel, SampleGroup
from .matrixcore import SymMatrix
from .metrics import DistanceMatrix
from .spectral import ClusterAssignment

_GROUP_HEADER_FIRST = ("object_id", "sample_index")


def _natural_key(text: str):
    return tuple(
        int(part) if part.isdigit() else part for part in re.split(r"(\d+)", text)
    )


def write_groups_csv(path: str | Path, groups) -> None:
    if not groups:
        raise SchemaError("no groups to write")
    d = groups[0].dim
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_GROUP_HEADER_FIRST) + [f"x_{i}" for i in range(d)])
        for g in groups:
            for idx, row in enumerate(g.samples):
                writer.writerow([g.group_id, idx] + [repr(float(v)) for v in row])


def read_groups_csv(path: str | Path) -> tuple[SampleGroup, ...]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        expected = list(_GROUP_HEADER_FIRST) + [
            f"x_{i}" for i in range(len(names) - 2)
        ]
        if len(names) < 3 or names != expected:
            raise SchemaError(
                f"{path}: header must be object_id,sample_index,x_0,...; got {names}"
            )
        d = len(names) - 2
        rows: dict[str, dict[int, list[float]]] = {}
        for line, cells in enumerate(reader, start=2):
            if len(cells) != len(names):
                raise RowError(f"expected {len(names)} cells, got {len(cells)}", line)
            object_id = cells[0].strip()
            if not object_id:
                raise RowError("empty object_id", line)
            try:
                sample_index = int(cells[1])
                values = list(map(float, cells[2:]))
            except ValueError as err:
                raise RowError(str(err), line) from None
            if not all(map(math.isfinite, values)):
                raise RowError("non-finite sample value", line)
            per_object = rows.setdefault(object_id, {})
            if sample_index in per_object:
                raise RowError(
                    f"duplicate sample_index {sample_index} for {object_id!r}", line
                )
            per_object[sample_index] = values
    groups = []
    for object_id in sorted(rows, key=_natural_key):
        samples = rows[object_id]
        ordered = [samples[i] for i in sorted(samples)]
        groups.append(SampleGroup(object_id, np.array(ordered, dtype=float)))
    return tuple(groups)


def write_labels_json(path: str | Path, assignment: ClusterAssignment) -> None:
    payload = {"k": int(assignment.k), "labels": [int(v) for v in assignment.labels]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_labels_json(path: str | Path) -> ClusterAssignment:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: not valid JSON ({err})") from None
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("k"), int)
        or not isinstance(payload.get("labels"), list)
    ):
        raise SchemaError(f'{path}: expected {{"k": int, "labels": [...]}}')
    labels = payload["labels"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in labels):
        raise SchemaError(f"{path}: labels must be integers")
    return ClusterAssignment(np.array(labels, dtype=int), payload["k"])


def write_models_json(path: str | Path, models) -> None:
    payload = [
        {
            "mean": [float(v) for v in m.mean],
            "cov": [[float(v) for v in row] for row in m.covariance.values],
        }
        for m in models
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_models_json(path: str | Path) -> tuple[GaussianModel, ...]:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(payload, list) or not payload:
        raise SchemaError(f"{path}: expected a non-empty list of models")
    models = []
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict) or "mean" not in entry or "cov" not in entry:
            raise SchemaError(f'{path}: model {i} must have "mean" and "cov"')
        try:
            mean = np.asarray(entry["mean"], dtype=float)
            cov = np.asarray(entry["cov"], dtype=float)
        except (TypeError, ValueError) as err:
            raise SchemaError(f"{path}: model {i}: {err}") from None
        models.append(GaussianModel(mean, SymMatrix(cov), group_id=str(i)))
    return tuple(models)


def write_distance_matrix(path: str | Path, dm: DistanceMatrix) -> None:
    """Write .json (with metric tag) or .csv (values only) by extension."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = {
            "metric": dm.metric,
            "n": dm.n,
            "rows": [[float(v) for v in row] for row in dm.values],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
    elif path.suffix.lower() == ".csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for row in dm.values:
                writer.writerow([repr(float(v)) for v in row])
    else:
        raise SchemaError(f"{path}: unsupported extension (use .json or .csv)")


def read_distance_matrix_json(path: str | Path) -> DistanceMatrix:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: not valid JSON ({err})") from None
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("metric"), str)
        or not isinstance(payload.get("n"), int)
        or not isinstance(payload.get("rows"), list)
    ):
        raise SchemaError(f'{path}: expected {{"metric", "n", "rows"}}')
    rows = np.asarray(payload["rows"], dtype=float)
    if rows.shape != (payload["n"], payload["n"]):
        raise SchemaError(
            f"{path}: rows shape {rows.shape} does not match n={payload['n']}"
        )
    return DistanceMatrix(rows, payload["metric"])


def canonical_json_bytes(payload, volatile_keys=("created_at", "wall_time_s")) -> bytes:
    """Deterministic byte serialization of a JSON-able payload.

    Keys whose values are timestamps or wall-clock durations vary from run
    to run and are stripped (recursively) before encoding, so two runs with
    identical inputs produce identical bytes.
    """
    drop = set(volatile_keys)

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in drop}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(payload), sort_keys=True, separators=(",", ":")).encode()
