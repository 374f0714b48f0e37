import json
import pickle

import numpy as np
import pytest

from conftest import random_model
from distclust.errors import RowError, SchemaError
from distclust.gaussian import SampleGroup
from distclust.metrics import METRIC_KL, METRIC_WASSERSTEIN_SQ, DistanceMatrix
from distclust.spectral import ClusterAssignment
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

    def test_bad_header(self, tmp_path):
        (tmp_path / "g.csv").write_text("id,sample_index,x_0\na,0,1\na,1,2\n")
        with pytest.raises(SchemaError):
            read_groups_csv(tmp_path / "g.csv")

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
