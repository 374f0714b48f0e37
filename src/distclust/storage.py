"""On-disk formats: sample groups, labels, fitted models, distance matrices.

Formats are deliberately plain so other tools can produce or consume them:

* groups CSV: header ``object_id,sample_index,x_0,...,x_{d-1}``, one row per
  sample, CRLF line ends. Readers group rows by object_id, order by
  sample_index, and return groups sorted by object_id (numeric-aware, so
  obj_2 < obj_10).
* labels JSON: ``{"k": int, "labels": [int, ...]}``.
* models JSON: ``[{"mean": [...], "cov": [[...], ...]}, ...]``.
* distance matrix: headerless CSV of the square values, or JSON
  ``{"metric": str, "n": int, "rows": [[...], ...]}`` (JSON keeps the
  metric tag, which round-trips; CSV does not).
* benchmark report: ``report.json``, the report with sorted keys, and
  ``summary.csv``, one row of keys and NMI summary per cell.

Every file is UTF-8 text; a reader raises ``SchemaError`` naming a file
that is not.
"""

import csv
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np

from .errors import (
    DistclustError, InsufficientSamples, InvalidConfig, RowError, SchemaError, _decoding, _prefixed
)
from .gaussian import GaussianModel, SampleGroup
from .matrixcore import SymMatrix, _trusted
from .metrics import DistanceMatrix
from .spectral import ClusterAssignment

_GROUP_HEADER_FIRST = ("object_id", "sample_index")

# report keys whose values differ from run to run: a timestamp and
# wall-clock durations
_VOLATILE_KEYS = frozenset(("created_at", "wall_time_s"))


def _natural_key(text: str):
    return tuple(
        int(part) if part.isdigit() else part for part in re.split(r"(\d+)", text)
    )


def _id_cell(object_id) -> str:
    """An object_id's cell as ``csv.writer`` writes it inside a row of more
    than one field (a lone empty field would be quoted, an inner one not)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([object_id, 0])
    return buf.getvalue()[: -len(",0\r\n")]


def write_groups_csv(path: str | Path, groups) -> None:
    """Write groups as a groups CSV, the bytes ``csv.writer`` would write.

    Lines end in CRLF, an object_id is quoted as ``csv.writer`` quotes it,
    and each value is the ``repr`` of its float, which reads back to the
    same double. Groups the reader would refuse or read back otherwise
    raise ``SchemaError`` before the file is opened: groups of mixed
    dimension, and object_ids that are empty, that start or end with
    whitespace (the reader strips it) or that equal another's.
    """
    if not groups:
        raise SchemaError("no groups to write")
    d = groups[0].dim
    seen: dict[str, int] = {}
    for i, g in enumerate(groups):
        if g.dim != d:
            raise SchemaError(
                f"group {g.group_id!r} has dimension {g.dim}, group 0 has {d}"
            )
        name = str(g.group_id)
        if not name.strip():
            raise SchemaError(f"group {i}: empty object_id {g.group_id!r}")
        if name != name.strip():
            raise SchemaError(
                f"group {i}: object_id {name!r} starts or ends with whitespace,"
                " which the reader strips"
            )
        if name in seen:
            raise SchemaError(
                f"groups {seen[name]} and {i} share the object_id {name!r}"
            )
        seen[name] = i
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_GROUP_HEADER_FIRST + tuple(f"x_{i}" for i in range(d))) + "\r\n")
        for g in groups:
            prefix = _id_cell(g.group_id) + ","
            fh.write("".join(
                f"{prefix}{idx},{','.join(map(repr, row))}\r\n"
                for idx, row in enumerate(g.samples.tolist())
            ))


def read_groups_csv(path: str | Path) -> tuple[SampleGroup, ...]:
    """Groups from a groups CSV, sorted by object_id.

    The body is parsed in bulk (``_parse_groups_bulk``). Whenever that parse
    declines the text or fails, the row loop (``_parse_groups_rows``) reads
    the file instead; it is the one place that raises ``RowError``, with the
    line number of the first bad row. A file with no sample rows after its
    header raises ``SchemaError``.
    """
    path = Path(path)
    with _decoding(path), path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        d = _read_group_header(reader, path)
        groups = _parse_groups_bulk(fh.read(), d)
        if groups is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            groups = _parse_groups_rows(reader, d)
    if not groups:
        raise SchemaError(f"{path}: no sample rows after the header")
    return groups


def _read_group_header(reader, path: Path) -> int:
    """Check the header row and return the sample dimension."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file") from None
    names = [h.strip() for h in header]
    expected = list(_GROUP_HEADER_FIRST) + [f"x_{i}" for i in range(len(names) - 2)]
    if len(names) < 3 or names != expected:
        raise SchemaError(
            f"{path}: header must be object_id,sample_index,x_0,...; got {names}"
        )
    return len(names) - 2


def _parse_groups_bulk(body: str, d: int) -> tuple[SampleGroup, ...] | None:
    """The groups that ``_parse_groups_rows`` builds from the text after the
    header, or None wherever that loop could raise ``RowError`` or read the
    text otherwise than ``np.loadtxt`` does.

    The loop's ``csv`` reader ends a record at CR, LF or CRLF and honours
    quotes; ``loadtxt`` skips blank lines. So text with quotes, ``#`` or NUL
    characters is declined, and so is any line without exactly d + 2 cells.
    ``loadtxt`` reads a sample index only as a plain integer, which ``int``
    also accepts, and a value only as a float string, which ``float`` reads
    to the same double; it raises on the rest. NumPy 1.23 to 1.26 read an
    integer cell such as ``3.0`` or ``3.7`` through a float, with only a
    DeprecationWarning; that warning is raised here and declines the text.
    """
    if '"' in body or "#" in body or "\0" in body:
        return None
    if "\r" in body and body.count("\r") != body.count("\r\n"):
        return None  # a lone CR, which ends a csv record
    # a CR left at a line's end is whitespace to loadtxt and to strip()
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return ()
    # loadtxt raises on a line with too few cells and skips blank ones, so
    # with this count and one parsed row per line, each line has d + 2 cells
    if body.count(",") != len(lines) * (d + 1):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            numbers = np.loadtxt(
                lines,
                dtype=[("index", np.int64), ("x", float, (d,))],
                delimiter=",",
                comments=None,
                quotechar=None,
                usecols=range(1, d + 2),
                ndmin=1,
            )
    # a rejected cell, a line with too few cells, or an integer read via a float
    except (ValueError, OverflowError, DeprecationWarning):
        return None
    ids = [line.partition(",")[0].strip() for line in lines]
    values = numbers["x"]
    if numbers.shape[0] != len(lines) or not all(ids) or not np.isfinite(values).all():
        return None
    # number the ids in order of first appearance, which the row loop's
    # stable sort by natural key keeps among equal keys
    seen: dict[str, int] = {}
    inverse = np.array([seen.setdefault(i, len(seen)) for i in ids], dtype=np.intp)
    names = list(seen)
    order = sorted(range(len(names)), key=lambda g: _natural_key(names[g]))
    rank = np.empty(len(names), dtype=np.intp)
    rank[order] = np.arange(len(names))
    row_rank = rank[inverse]
    index = numbers["index"]
    rows = np.lexsort((index, row_rank))
    row_rank, index = row_rank[rows], index[rows]
    if np.any((row_rank[1:] == row_rank[:-1]) & (index[1:] == index[:-1])):
        return None  # a duplicate sample_index
    counts = np.bincount(row_rank, minlength=len(names))
    if np.any(counts < 2):
        r = int(np.argmax(counts < 2))
        raise InsufficientSamples(
            f"group {names[order[r]]!r}: needs at least 2 samples, got {counts[r]}"
        )
    # the checks above are the ones SampleGroup runs, so the groups are
    # read-only views of one sorted stack
    samples = values[rows]
    samples.flags.writeable = False
    ends = np.cumsum(counts).tolist()
    starts = [0] + ends[:-1]
    return tuple(
        _trusted(SampleGroup, group_id=names[g], samples=samples[a:b])
        for g, a, b in zip(order, starts, ends)
    )


def _parse_groups_rows(reader, d: int) -> tuple[SampleGroup, ...]:
    """Groups from the rows after the header, read one row at a time."""
    width = d + 2
    rows: dict[str, dict[int, list[float]]] = {}
    for line, cells in enumerate(reader, start=2):
        if len(cells) != width:
            raise RowError(f"expected {width} cells, got {len(cells)}", line)
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
    _write_json(path, payload)


def _write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _read_json(path: Path):
    """The JSON value in a file; SchemaError naming the file for text that
    is not UTF-8 or not JSON."""
    with _decoding(path):
        text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: not valid JSON ({err})") from None


def read_labels_json(path: str | Path) -> ClusterAssignment:
    path = Path(path)
    payload = _read_json(path)
    if (
        not isinstance(payload, dict)
        or type(payload.get("k")) is not int  # excludes bool, an int subclass
        or not isinstance(payload.get("labels"), list)
    ):
        raise SchemaError(f'{path}: expected {{"k": int, "labels": [...]}}')
    labels = payload["labels"]
    if not all(type(v) is int for v in labels):
        raise SchemaError(f"{path}: labels must be integers")
    try:
        return ClusterAssignment(np.array(labels, dtype=int), payload["k"])
    except (InvalidConfig, OverflowError) as err:
        raise SchemaError(f"{path}: {err}") from None


def write_models_json(path: str | Path, models) -> None:
    payload = [
        {
            "mean": [float(v) for v in m.mean],
            "cov": [[float(v) for v in row] for row in m.covariance.values],
        }
        for m in models
    ]
    _write_json(path, payload)


def _is_number_tree(node) -> bool:
    """Whether every leaf of nested JSON lists is a number, an int or a
    float: numpy would read a bool as 1.0 or 0.0 and parse a string."""
    if isinstance(node, list):
        return all(map(_is_number_tree, node))
    return type(node) in (int, float)


def _number_array(node, what: str) -> np.ndarray:
    """Nested JSON lists of numbers as a float array; SchemaError for any
    other leaf or a ragged nesting."""
    if not _is_number_tree(node):
        raise SchemaError(f"{what} must hold only numbers")
    try:
        return np.asarray(node, dtype=float)
    except (ValueError, OverflowError) as err:
        raise SchemaError(f"{what}: {err}") from None


def read_models_json(path: str | Path) -> tuple[GaussianModel, ...]:
    """Models from a models JSON; an entry that is no valid model raises
    its error class, its message prefixed with the file and the index."""
    path = Path(path)
    payload = _read_json(path)
    if not isinstance(payload, list) or not payload:
        raise SchemaError(f"{path}: expected a non-empty list of models")
    models = []
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict) or "mean" not in entry or "cov" not in entry:
            raise SchemaError(f'{path}: model {i} must have "mean" and "cov"')
        mean = _number_array(entry["mean"], f"{path}: model {i}: mean")
        cov = _number_array(entry["cov"], f"{path}: model {i}: cov")
        try:
            models.append(GaussianModel(mean, SymMatrix(cov), group_id=str(i)))
        except DistclustError as err:
            raise _prefixed(err, f"{path}: model {i}") from None
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
        _write_json(path, payload)
    elif path.suffix.lower() == ".csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for row in dm.values:
                writer.writerow([repr(float(v)) for v in row])
    else:
        raise SchemaError(f"{path}: unsupported extension (use .json or .csv)")


def read_distance_matrix_json(path: str | Path) -> DistanceMatrix:
    path = Path(path)
    payload = _read_json(path)
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("metric"), str)
        or type(payload.get("n")) is not int
        or not isinstance(payload.get("rows"), list)
    ):
        raise SchemaError(f'{path}: expected {{"metric", "n", "rows"}}')
    rows = _number_array(payload["rows"], f"{path}: rows")
    if rows.shape != (payload["n"], payload["n"]):
        raise SchemaError(
            f"{path}: rows shape {rows.shape} does not match n={payload['n']}"
        )
    return DistanceMatrix(rows, payload["metric"])


def write_report(report: dict, out_dir) -> tuple[str, str]:
    """Write a benchmark report into out_dir as report.json and a flat
    summary.csv, one row per cell; returns the two paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    keys = ["d", "k"] if report["kind"] == "synthetic" else ["k", "noise_sigma"]
    columns = keys + ["algorithm", "family", "trials", "mean_nmi", "var_nmi"]
    csv_path = out / "summary.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([cell[c] for c in columns] for cell in report["cells"])
    return str(json_path), str(csv_path)


def canonical_json_bytes(payload) -> bytes:
    """Deterministic byte serialization of a JSON-able payload.

    The ``_VOLATILE_KEYS`` vary from run to run and are stripped
    (recursively) before encoding, so two runs with identical inputs
    produce identical bytes.
    """

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in _VOLATILE_KEYS}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(payload), sort_keys=True, separators=(",", ":")).encode()
