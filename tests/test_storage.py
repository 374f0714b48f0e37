import csv
import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_model
import distclust
from distclust import storage
from distclust.errors import (
    DimensionMismatch,
    InsufficientSamples,
    InvalidMatrix,
    NotPositiveSemidefinite,
    RowError,
    SchemaError,
)
from distclust.gaussian import SampleGroup
from distclust.metrics import METRIC_KL, METRIC_WASSERSTEIN_SQ, DistanceMatrix
from distclust.spectral import ClusterAssignment
from distclust.synthgen import generate_benchmark
from distclust.storage import (
    canonical_json_bytes,
    read_distance_matrix_json,
    read_groups_csv,
    read_labels_json,
    read_models_json,
    write_distance_matrix,
    write_groups_csv,
    write_labels_json,
    write_models_json,
)


class TestGroupsCsv:
    def test_round_trip_bitwise(self, tmp_path, rng):
        groups = [
            SampleGroup("obj_0", rng.standard_normal((4, 3))),
            SampleGroup("obj_1", rng.standard_normal((2, 3))),
        ]
        path = tmp_path / "groups.csv"
        write_groups_csv(path, groups)
        back = read_groups_csv(path)
        assert [g.group_id for g in back] == ["obj_0", "obj_1"]
        for a, b in zip(groups, back):
            assert np.array_equal(a.samples, b.samples)

    def test_reader_sorts_numerically(self, tmp_path):
        lines = ["object_id,sample_index,x_0"]
        for name in ("obj_10", "obj_2"):
            lines += [f"{name},0,1.0", f"{name},1,2.0"]
        (tmp_path / "g.csv").write_text("\n".join(lines) + "\n")
        back = read_groups_csv(tmp_path / "g.csv")
        assert [g.group_id for g in back] == ["obj_2", "obj_10"]

    def test_sample_index_orders_rows(self, tmp_path):
        text = (
            "object_id,sample_index,x_0\n"
            "a,1,20.0\n"
            "a,0,10.0\n"
        )
        (tmp_path / "g.csv").write_text(text)
        back = read_groups_csv(tmp_path / "g.csv")
        np.testing.assert_allclose(back[0].samples.ravel(), [10.0, 20.0])

    def test_empty_file_names_its_path(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_bytes(b"")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: empty file$"):
            read_groups_csv(path)

    def test_bad_header(self, tmp_path):
        (tmp_path / "g.csv").write_text("id,sample_index,x_0\na,0,1\na,1,2\n")
        with pytest.raises(SchemaError):
            read_groups_csv(tmp_path / "g.csv")

    @pytest.mark.parametrize("at", ["header", "body"])
    def test_non_utf8_text_is_schema_error(self, at, tmp_path):
        # a bad byte in the header, or past the first read-ahead buffer of
        # the body, where the bulk read meets it
        text = "object_id,sample_index,x_0\r\n" + "".join(
            f"g{i % 3},{i},{float(i)}\r\n" for i in range(4000)
        )
        data = text.encode()
        cut = 5 if at == "header" else len(data) - 10
        path = tmp_path / "g.csv"
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            read_groups_csv(path)

    def test_non_contiguous_feature_columns(self, tmp_path):
        (tmp_path / "g.csv").write_text("object_id,sample_index,x_0,x_2\na,0,1,1\n")
        with pytest.raises(SchemaError):
            read_groups_csv(tmp_path / "g.csv")

    def test_bad_cell_reports_line(self, tmp_path):
        text = "object_id,sample_index,x_0\na,0,1.0\na,1,oops\n"
        (tmp_path / "g.csv").write_text(text)
        with pytest.raises(RowError) as err:
            read_groups_csv(tmp_path / "g.csv")
        assert err.value.line == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        text = f"object_id,sample_index,x_0,x_1\na,0,1.0,2.0\na,1,3.0,{cell}\na,2,4.0,5.0\n"
        (tmp_path / "g.csv").write_text(text)
        with pytest.raises(RowError, match="^line 3: non-finite sample value$") as err:
            read_groups_csv(tmp_path / "g.csv")
        assert err.value.line == 3

    def test_row_error_survives_pickling(self):
        back = pickle.loads(pickle.dumps(RowError("bad cell", 7)))
        assert type(back) is RowError
        assert str(back) == "line 7: bad cell"
        assert back.line == 7

    def test_duplicate_sample_index(self, tmp_path):
        text = "object_id,sample_index,x_0\na,0,1.0\na,0,2.0\n"
        (tmp_path / "g.csv").write_text(text)
        with pytest.raises(RowError):
            read_groups_csv(tmp_path / "g.csv")

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            write_groups_csv(tmp_path / "g.csv", [])

    @pytest.mark.parametrize("first, second", [
        (("a", 2), ("b", 3)),
        (("a", 2), ("a", 2)),
        (("a", 2), (" a", 2)),
        (("a", 2), ("\t ", 2)),
    ], ids=["mixed dimension", "equal ids", "equal after strip", "empty after strip"])
    def test_write_rejects_what_the_reader_refuses(self, first, second, tmp_path, rng):
        groups = [SampleGroup(name, rng.standard_normal((2, d))) for name, d in (first, second)]
        refused = tmp_path / "refused.csv"
        reference_write_groups_csv(refused, groups)
        with pytest.raises(RowError):
            read_groups_csv(refused)
        path = tmp_path / "g.csv"
        path.write_text("kept\n")
        with pytest.raises(SchemaError):
            write_groups_csv(path, groups)
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("d", [1, 3])
    def test_write_matches_csv_writer(self, d, tmp_path):
        ids = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\nhere", "inner space",
               "\u00e9t\u00e9", "\u6771\u4eac", "plain"]
        values = np.array([-0.0, 5e-324, 1e16, 1e-5, 1e22, -1.5, 0.1, 2.0 / 3.0, -7e-300])
        groups = [
            SampleGroup(name, np.roll(values, i)[: 2 * d].reshape(2, d) * (1 + i))
            for i, name in enumerate(ids)
        ]
        write_groups_csv(tmp_path / "new.csv", groups)
        reference_write_groups_csv(tmp_path / "ref.csv", groups)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("name", [" padded ", "padded ", "\tpadded", "crlf\r\n"])
    def test_padded_id_is_refused_before_the_file_opens(self, name, tmp_path, rng):
        # the reader strips an id, so " padded " would read back as "padded"
        path = tmp_path / "g.csv"
        with pytest.raises(SchemaError, match="whitespace"):
            write_groups_csv(path, [SampleGroup(name, rng.standard_normal((2, 2)))])
        assert not path.exists()

    def test_inner_whitespace_round_trips(self, tmp_path, rng):
        groups = [SampleGroup(name, rng.standard_normal((3, 2))) for name in ("a b", "c\td")]
        write_groups_csv(tmp_path / "g.csv", groups)
        back = read_groups_csv(tmp_path / "g.csv")
        assert [g.group_id for g in back] == ["a b", "c\td"]
        for a, b in zip(groups, back):
            assert a.samples.tobytes() == b.samples.tobytes()

    def test_write_bytes_of_a_benchmark(self, tmp_path):
        path = tmp_path / "g.csv"
        write_groups_csv(path, generate_benchmark(7, 5, 200, 30, seed=1).groups)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5a29cbabe59647bfa6ab5af3836a9f36d3d5c8610e39aad8114e43a6bfa204f9"
        )


def reference_write_groups_csv(path, groups):
    """The groups-CSV writer as it was, one ``csv.writer`` row per sample:
    the reference for the bulk writer."""
    d = groups[0].dim
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_id", "sample_index"] + [f"x_{i}" for i in range(d)])
        for g in groups:
            for idx, row in enumerate(g.samples):
                writer.writerow([g.group_id, idx] + [repr(float(v)) for v in row])


def reference_read_groups_csv(path):
    """The groups-CSV reader as it was, one csv row at a time: the
    reference for the bulk parse and its fallback."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = [h.strip() for h in header]
        rows = {}
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
    if not rows:
        raise SchemaError(f"{path}: no sample rows after the header")
    groups = []
    for object_id in sorted(rows, key=storage._natural_key):
        samples = rows[object_id]
        ordered = [samples[i] for i in sorted(samples)]
        groups.append(SampleGroup(object_id, np.array(ordered, dtype=float)))
    return tuple(groups)


def outcome(read, path):
    """Groups as (id, shape, bytes), or the error's class, message and line."""
    try:
        groups = read(path)
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err), getattr(err, "line", None)
    return [(type(g.group_id), g.group_id, g.samples.shape, g.samples.tobytes()) for g in groups]


HEADER = "object_id,sample_index,x_0,x_1\n"
PARITY_BODIES = {
    "plain": "b,1,3.0,4.0\na,0,1.0,2.0\nb,0,5.5,-1e-300\na,1,2.0,0.1\n",
    "blank line mid-file": "a,0,1.0,2.0\n\na,1,2.0,3.0\n",
    "trailing blank line": "a,0,1.0,2.0\na,1,2.0,3.0\n\n",
    "whitespace-only line": "a,0,1.0,2.0\n   \na,1,2.0,3.0\n",
    "no final newline": "a,0,1.0,2.0\na,1,2.0,3.0",
    "hash row": "a,0,1.0,2.0\n#a,0,1.0,2.0\n#a,1,1.0,2.0\na,1,2.0,3.0\n",
    "hash comment": "a,0,1.0,2.0\n# comment\na,1,2.0,3.0\n",
    "quoted id": '"a",0,1.0,2.0\na,1,2.0,3.0\n',
    "quoted comma": '"a,b",0,1.0,2.0\n"a,b",1,2.0,3.0\n',
    "crlf": "a,0,1.0,2.0\r\nb,0,3.0,4.0\r\na,1,2.0,3.0\r\nb,1,1.0,1.0\r\n",
    "lone cr": "a,0,1.0,2.0\ra,1,2.0,3.0\n",
    "cr before crlf": "a,0,1.0,2.0\r\r\na,1,2.0,3.0\r\n",
    "cr at the end": "a,0,1.0,2.0\r\na,1,2.0,3.0\r",
    "padded cells": " a , 0 , 1.0 ,2.0 \n\ta,1\t, 2.0,\t3.0\n",
    "underscore index": "a,1_000,1.0,2.0\na,0,2.0,3.0\n",
    "plus index": "a,+3,1.0,2.0\na,0,2.0,3.0\n",
    "float index": "a,3.0,1.0,2.0\na,0,2.0,3.0\n",
    "huge index": "a,99999999999999999999,1.0,2.0\na,0,2.0,3.0\n",
    "underscore value": "a,0,1_0.5,2.0\na,1,2.0,3.0\n",
    "nan in last row": "a,0,1.0,2.0\na,1,2.0,3.0\nb,0,1.0,2.0\nb,1,2.0,nan\n",
    "overflowing value": "a,0,1.0,2.0\na,1,1e400,3.0\n",
    "bad cell": "a,0,1.0,2.0\na,1,oops,3.0\n",
    "empty cell": "a,0,1.0,2.0\na,1,,3.0\n",
    "extra cell": "a,0,1.0,2.0,9\na,1,2.0,3.0\n",
    "missing cell": "a,0,1.0\na,1,2.0,3.0\n",
    "empty id": "a,0,1.0,2.0\n ,1,2.0,3.0\n",
    "duplicate index": "a,0,1.0,2.0\nb,0,1.0,2.0\na,0,2.0,3.0\n",
    "one-sample group": "a,0,1.0,2.0\na,1,2.0,3.0\nb,0,1.0,2.0\n",
    "non-ascii ids": "\u00e9t\u00e9,0,1.0,2.0\n\u6771\u4eac,0,3.0,4.0\n\u00e9t\u00e9,1,2.0,3.0\n\u6771\u4eac,1,1.0,1.0\n",
    "digits in ids": "obj_10,0,1.0,2.0\nobj_2,0,3.0,4.0\nobj_10,1,2.0,3.0\nobj_2,1,1.0,1.0\n",
    # equal natural keys keep the order of first appearance, not of the text
    "natural-key tie": "a1,0,1.0,2.0\na01,0,3.0,4.0\na01,1,2.0,3.0\na1,1,1.0,1.0\n",
    "header only": "",
}
# bulk read block sizes: lines cut at every byte, at a few bytes and whole
BLOCK_SIZES = [1, 7, 64, storage._BLOCK_BYTES]


class TestGroupsCsvParity:
    """The bulk parse with its row-loop fallback against the reference
    reader, at every block size: byte-equal groups, or the same error
    class, message and line."""

    @pytest.mark.parametrize("case", sorted(PARITY_BODIES))
    def test_matches_row_reader(self, case, tmp_path, monkeypatch):
        path = tmp_path / "g.csv"
        path.write_bytes((HEADER + PARITY_BODIES[case]).encode())
        expected = outcome(reference_read_groups_csv, path)
        for block_bytes in BLOCK_SIZES:
            monkeypatch.setattr(storage, "_BLOCK_BYTES", block_bytes)
            assert outcome(read_groups_csv, path) == expected, block_bytes

    def test_error_cases_raise(self, tmp_path):
        expected = {
            "blank line mid-file": (RowError, 3),
            "trailing blank line": (RowError, 4),
            "float index": (RowError, 2),
            "nan in last row": (RowError, 5),
            "one-sample group": (InsufficientSamples, None),
            "header only": (SchemaError, None),
        }
        for case, (cls, line) in expected.items():
            path = tmp_path / "g.csv"
            path.write_bytes((HEADER + PARITY_BODIES[case]).encode())
            with pytest.raises(cls) as err:
                read_groups_csv(path)
            assert getattr(err.value, "line", None) == line, case

    @pytest.mark.parametrize("case", ["float index", "plus index", "plain"])
    def test_integer_read_via_a_float_falls_back(self, case, tmp_path, monkeypatch):
        # NumPy 1.23 to 1.26 read an integer cell such as 3.0 through a
        # float with only a DeprecationWarning; this loadtxt warns and
        # truncates as they did, and the row loop must still decide
        path = tmp_path / "g.csv"
        path.write_bytes((HEADER + PARITY_BODIES[case]).encode())
        expected = outcome(reference_read_groups_csv, path)
        real_loadtxt = np.loadtxt

        def lenient_loadtxt(lines, **kwargs):
            text = [line.replace("3.0,1.0", "3,1.0") for line in lines]
            if text != list(lines):
                warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return real_loadtxt(text, **kwargs)

        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        assert outcome(read_groups_csv, path) == expected

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_ordinary_files_take_the_bulk_parse(self, newline, tmp_path, rng, monkeypatch):
        groups = [SampleGroup(f"obj_{i}", rng.standard_normal((3 + i % 4, 3))) for i in range(12)]
        path = tmp_path / "g.csv"
        write_groups_csv(path, groups)
        path.write_bytes(path.read_bytes().replace(b"\r\n", newline.encode()))
        expected = outcome(reference_read_groups_csv, path)

        def no_row_loop(*args):
            raise AssertionError("the row loop ran")

        monkeypatch.setattr(storage, "_parse_groups_rows", no_row_loop)
        for block_bytes in BLOCK_SIZES:
            monkeypatch.setattr(storage, "_BLOCK_BYTES", block_bytes)
            assert outcome(read_groups_csv, path) == expected, block_bytes
        assert [g[1] for g in expected] == [f"obj_{i}" for i in range(12)]

    def test_bulk_groups_are_read_only(self, tmp_path, rng):
        path = tmp_path / "g.csv"
        write_groups_csv(path, [SampleGroup(f"obj_{i}", rng.standard_normal((3, 2))) for i in range(3)])
        for g in read_groups_csv(path):
            with pytest.raises(ValueError):
                g.samples[0, 0] = 1.0


class TestGroupsCsvBlocks:
    """The bulk read in blocks of a few bytes up to the default: the same
    groups or error as the reference reader wherever the blocks end."""

    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    def test_writer_output_at_every_block_size(self, block_bytes, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(storage, "_BLOCK_BYTES", block_bytes)
        ids = ["a,b", 'say "hi"', "lf\nhere", "\u00e9t\u00e9", "\u6771\u4eac", "obj_10", "obj_2"]
        odd = [SampleGroup(name, rng.standard_normal((2 + i % 3, 3))) for i, name in enumerate(ids)]
        plain = [SampleGroup(f"obj_{i}", rng.standard_normal((3 + i % 4, 3))) for i in range(12)]
        for groups in (odd, plain, plain[::-1]):
            path = tmp_path / "g.csv"
            write_groups_csv(path, groups)
            assert outcome(read_groups_csv, path) == outcome(reference_read_groups_csv, path)

    @pytest.mark.parametrize("block_bytes", [64, storage._BLOCK_BYTES])
    def test_non_utf8_byte_past_the_first_block(self, block_bytes, tmp_path, monkeypatch):
        monkeypatch.setattr(storage, "_BLOCK_BYTES", block_bytes)
        line = "g{},{},{}\r\n"
        rows = 2 * block_bytes // len(line.format(0, 0, 0.0)) + 4
        text = HEADER.replace(",x_1", "") + "".join(
            line.format(i % 3, i, float(i)) for i in range(rows)
        )
        data = text.encode()
        cut = len(HEADER) + block_bytes + 3
        path = tmp_path / "g.csv"
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            read_groups_csv(path)

    def test_non_utf8_byte_after_a_bad_row(self, tmp_path, monkeypatch):
        # the byte is reported, not the row before it, though the row loop
        # takes over in the first block and the text reader decodes ahead
        # only 8 KiB at a time
        monkeypatch.setattr(storage, "_BLOCK_BYTES", 64)
        text = HEADER + "a,0,1.0,2.0\na,1,oops,3.0\n" + "b,0,1.0,2.0\n" * 2000
        path = tmp_path / "g.csv"
        path.write_bytes(text.encode() + b"\xff,1,2.0,3.0\n")
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            read_groups_csv(path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone cr"])
    def test_read_ending_at_a_cr(self, newline, tmp_path, monkeypatch):
        # the first read's last byte is a CR: its LF, or the byte that makes
        # it a lone CR, comes with the next read, and the line with it
        body = "a,0,1.0,2.0\r\nb,0,3.0,4.0" + newline + "a,1,2.0,3.0\r\nb,1,1.0,1.0\r\n"
        path = tmp_path / "g.csv"
        path.write_bytes((HEADER + body).encode())
        monkeypatch.setattr(storage, "_BLOCK_BYTES", body.index("\r", 14) + 1)
        assert outcome(read_groups_csv, path) == outcome(reference_read_groups_csv, path)

    @pytest.mark.parametrize("header", [
        '"object_id",sample_index,x_0,x_1\n',
        '"object_id\n",sample_index,x_0,x_1\n',
        "object_id,sample_index,x_0,x_1\r",
        "object_id,sample_index,x_0,x_1\r\n",
        " object_id , sample_index,x_0,\tx_1\n",
    ], ids=["quoted", "quoted newline", "lone cr", "crlf", "padded"])
    def test_header_forms(self, header, tmp_path):
        # a header whose csv record may end elsewhere than at its first LF
        # sends the file to the row loop
        path = tmp_path / "g.csv"
        path.write_bytes((header + PARITY_BODIES["plain"]).encode())
        got = outcome(read_groups_csv, path)
        assert got == outcome(reference_read_groups_csv, path)
        assert [g[1] for g in got] == ["a", "b"]

    def test_read_holds_about_the_file_once(self, tmp_path):
        # a read holds one block of text besides the numbers it keeps; the
        # whole text with its lines and ids would take about 4 times the file
        path = tmp_path / "g.csv"
        write_groups_csv(path, generate_benchmark(7, 5, 2000, 30, seed=1).groups)
        tracemalloc.start()
        try:
            groups = read_groups_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(groups) == 2000
        assert peak <= 2 * path.stat().st_size


class TestLabelsJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.json"
        write_labels_json(path, ClusterAssignment(np.array([0, 1, 2, 1]), 3))
        back = read_labels_json(path)
        assert back.k == 3
        assert back.labels.tolist() == [0, 1, 2, 1]

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text('{"labels": [0, 1]}')
        with pytest.raises(SchemaError):
            read_labels_json(path)
        path.write_text('{"k": 2, "labels": [0, "x"]}')
        with pytest.raises(SchemaError):
            read_labels_json(path)
        path.write_text("not json")
        with pytest.raises(SchemaError):
            read_labels_json(path)

    @pytest.mark.parametrize("payload", ['{"k": true, "labels": [0, 0, 0]}',
                                         '{"k": 2, "labels": [0, true, false]}'])
    def test_boolean_integers_rejected(self, payload, tmp_path):
        # bool is an int subclass in Python; JSON true must not read as 1
        path = tmp_path / "labels.json"
        path.write_text(payload)
        with pytest.raises(SchemaError):
            read_labels_json(path)


    @pytest.mark.parametrize("payload, message", [
        ('{"k": 2, "labels": []}', "labels must be a non-empty 1-d array"),
        ('{"k": 2, "labels": [0, 2, 1]}', r"labels must lie in \[0, 2\)"),
        ('{"k": 2, "labels": [0, -1, 1]}', r"labels must lie in \[0, 2\)"),
        ('{"k": 0, "labels": [0, 0]}', "k=0 invalid for 2 objects"),
        ('{"k": 3, "labels": [0, 1]}', "k=3 invalid for 2 objects"),
        ('{"k": 2, "labels": [0, 1, 100000000000000000000]}', "too large"),
    ], ids=["empty", "above-k", "negative", "k-zero", "k-above-n", "overflow"])
    def test_out_of_range_is_schema_error(self, payload, message, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(payload)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: .*{message}"):
            read_labels_json(path)


class TestModelsJson:
    def test_round_trip_bitwise(self, tmp_path, rng):
        models = [random_model(3, rng) for _ in range(4)]
        path = tmp_path / "models.json"
        write_models_json(path, models)
        back = read_models_json(path)
        assert len(back) == 4
        for a, b in zip(models, back):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.covariance.values, b.covariance.values)

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text("[]")
        with pytest.raises(SchemaError):
            read_models_json(path)
        path.write_text('[{"mean": [0.0]}]')
        with pytest.raises(SchemaError):
            read_models_json(path)

    @pytest.mark.parametrize("second, error, message", [
        ({"mean": [0.0, 0.0], "cov": [[-1.0, 0.0], [0.0, 1.0]]},
         NotPositiveSemidefinite, "covariance: min eigenvalue -1.000000e+00"),
        ({"mean": [0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
         DimensionMismatch, "mean dimension 1 does not match covariance dimension 2"),
        ({"mean": [0.0, 0.0], "cov": [[1.0, 0.0]]},
         InvalidMatrix, "expected a square matrix"),
    ])
    def test_invalid_model_names_the_file_and_index(self, second, error, message, tmp_path):
        path = tmp_path / "models.json"
        first = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        path.write_text(json.dumps([first, second]))
        with pytest.raises(error, match=rf"^{re.escape(str(path))}: model 1: {re.escape(message)}"):
            read_models_json(path)

    def test_covariance_that_overflows_when_symmetrized_fails_at_load(self, tmp_path):
        # every entry is finite, but symmetrizing overflows to inf; loading
        # fails here rather than as a nan divergence in a later command
        path = tmp_path / "models.json"
        big = [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]
        path.write_text(json.dumps([{"mean": [0.0, 0.0], "cov": big}]))
        with pytest.raises(InvalidMatrix, match="matrix entries must be finite"):
            read_models_json(path)


    @pytest.mark.parametrize("mean, cov", [
        (["1.5", 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        ([1.5, True], [[1.0, 0.0], [0.0, 1.0]]),
        ([1.5, 0.0], [[1.0, "0"], [0.0, 1.0]]),
        ([1.5, 0.0], [[1.0, 0.0], [None, 1.0]]),
    ])
    def test_non_number_entries_rejected(self, tmp_path, mean, cov):
        # numpy would parse the string and read true as 1.0
        path = tmp_path / "models.json"
        path.write_text(json.dumps([{"mean": mean, "cov": cov}]))
        with pytest.raises(SchemaError, match="must hold only numbers"):
            read_models_json(path)


class TestDistanceMatrixIo:
    def test_json_round_trip(self, tmp_path):
        dm = DistanceMatrix([[0.0, 1.5], [1.5, 0.0]], METRIC_WASSERSTEIN_SQ)
        path = tmp_path / "dm.json"
        write_distance_matrix(path, dm)
        back = read_distance_matrix_json(path)
        assert back.metric == METRIC_WASSERSTEIN_SQ
        assert np.array_equal(back.values, dm.values)

    def test_kl_round_trip_keeps_asymmetry(self, tmp_path):
        dm = DistanceMatrix([[0.0, 1.0], [2.0, 0.0]], METRIC_KL)
        path = tmp_path / "dm.json"
        write_distance_matrix(path, dm)
        back = read_distance_matrix_json(path)
        assert back.values[0, 1] == 1.0 and back.values[1, 0] == 2.0

    def test_csv_write(self, tmp_path):
        dm = DistanceMatrix([[0.0, 0.25], [0.25, 0.0]], METRIC_WASSERSTEIN_SQ)
        path = tmp_path / "dm.csv"
        write_distance_matrix(path, dm)
        values = np.loadtxt(path, delimiter=",")
        assert np.array_equal(values, dm.values)

    def test_unsupported_extension(self, tmp_path):
        dm = DistanceMatrix(np.zeros((2, 2)), METRIC_WASSERSTEIN_SQ)
        with pytest.raises(SchemaError):
            write_distance_matrix(tmp_path / "dm.parquet", dm)

    def test_shape_mismatch_detected(self, tmp_path):
        path = tmp_path / "dm.json"
        path.write_text(json.dumps({"metric": "kl", "n": 3, "rows": [[0.0]]}))
        with pytest.raises(SchemaError):
            read_distance_matrix_json(path)

    def test_boolean_n_rejected(self, tmp_path):
        # JSON true would otherwise read as n = 1 and load a 1 x 1 matrix
        path = tmp_path / "dm.json"
        path.write_text(json.dumps({"metric": "wasserstein_sq", "n": True, "rows": [[0.0]]}))
        with pytest.raises(SchemaError):
            read_distance_matrix_json(path)

    @pytest.mark.parametrize("rows", [[[0, "3"], ["3", 0]], [[0, True], [True, 0]]])
    def test_non_number_rows_rejected(self, tmp_path, rows):
        path = tmp_path / "dm.json"
        path.write_text(json.dumps({"metric": "wasserstein_sq", "n": 2, "rows": rows}))
        with pytest.raises(SchemaError, match="must hold only numbers"):
            read_distance_matrix_json(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "dm.json"
        path.write_text(json.dumps({"metric": "kl", "n": 2, "rows": [[0.0, 1.0], [1.0]]}))
        with pytest.raises(SchemaError):
            read_distance_matrix_json(path)


class TestTextEncoding:
    @pytest.mark.parametrize("reader, text", [
        (read_labels_json, '{"k": 2, "labels": [0, 1]}'),
        (read_models_json, '[{"mean": [0.0], "cov": [[1.0]]}]'),
        (read_distance_matrix_json, '{"metric": "kl", "n": 1, "rows": [[0.0]]}'),
    ])
    def test_non_utf8_json_is_schema_error(self, reader, text, tmp_path):
        path = tmp_path / "in.json"
        path.write_bytes(text.encode()[:-1] + b"\xff" + text.encode()[-1:])
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            reader(path)

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        # under the C locale without UTF-8 mode, text files default to ASCII;
        # a non-ASCII id is still written and read back as UTF-8
        script = (
            "import sys, numpy as np\n"
            "from distclust.gaussian import SampleGroup\n"
            "from distclust.storage import read_groups_csv, write_groups_csv\n"
            "write_groups_csv(sys.argv[1], [SampleGroup('\\u00e9t\\u00e9', np.eye(2))])\n"
            "assert read_groups_csv(sys.argv[1])[0].group_id == '\\u00e9t\\u00e9'\n"
        )
        src = str(Path(distclust.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
        path = tmp_path / "g.csv"
        subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
        assert path.read_bytes().startswith(b"object_id,sample_index,x_0,x_1\r\n\xc3\xa9t\xc3\xa9,0,")


class TestCanonicalJsonBytes:
    def test_strips_volatile_keys_recursively(self):
        payload = {
            "created_at": "2026-01-01T00:00:00",
            "cells": [{"mean": 0.5, "wall_time_s": 1.23}],
        }
        decoded = json.loads(canonical_json_bytes(payload))
        assert "created_at" not in decoded
        assert decoded["cells"] == [{"mean": 0.5}]

    def test_key_order_independent(self):
        a = {"x": 1, "y": {"a": 2, "b": 3}}
        b = {"y": {"b": 3, "a": 2}, "x": 1}
        assert canonical_json_bytes(a) == canonical_json_bytes(b)
