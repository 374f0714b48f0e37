import json

import numpy as np
import pytest

from distclust.cli import entrypoint

STOCK_CSV = """date,symbol,open,close,low,high
2024-01-01,AAA,10.0,10.5,9.8,10.9
2024-01-02,AAA,10.5,10.2,10.0,10.8
2024-01-03,AAA,10.2,10.4,10.1,10.6
2024-01-01,BBB,30.0,31.0,29.5,31.5
2024-01-02,BBB,31.0,30.5,30.0,31.5
2024-01-03,BBB,30.5,30.8,30.2,31.2
2024-01-01,CCC,10.1,10.6,9.9,11.0
2024-01-02,CCC,10.6,10.3,10.1,10.9
2024-01-03,CCC,10.3,10.5,10.2,10.7
2024-01-01,DDD,30.1,31.1,29.6,31.6
2024-01-02,DDD,31.1,30.6,30.1,31.6
2024-01-03,DDD,30.6,30.9,30.3,31.3
"""


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "bench"
    code = entrypoint(
        [
            "synth", "--d", "3", "--k", "2", "--n-objects", "16",
            "--samples-per-object", "40", "--seed", "5", "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_groups_and_truth(self, synth_dir):
        assert (synth_dir / "groups.csv").exists()
        truth = json.loads((synth_dir / "truth.json").read_text())
        assert truth["k"] == 2
        assert len(truth["labels"]) == 16

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = entrypoint(["synth", "--d", "3", "--k", "2", "--seed", "-1", "--out-dir", str(out)])
        assert code == 1
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestEstimateAndDistmat:
    def test_full_chain(self, synth_dir, tmp_path, capsys):
        models = tmp_path / "models.json"
        assert entrypoint(
            ["estimate", str(synth_dir / "groups.csv"), "--out", str(models)]
        ) == 0
        assert "wrote 16 models" in capsys.readouterr().out

        dm_json = tmp_path / "dm.json"
        assert entrypoint(
            ["distmat", str(models), "--metric", "wasserstein_sq",
             "--out", str(dm_json)]
        ) == 0
        payload = json.loads(dm_json.read_text())
        assert payload["metric"] == "wasserstein_sq"
        assert payload["n"] == 16

        dm_csv = tmp_path / "dm.csv"
        assert entrypoint(
            ["distmat", str(models), "--metric", "kl", "--out", str(dm_csv)]
        ) == 0
        values = np.loadtxt(dm_csv, delimiter=",")
        assert values.shape == (16, 16)

    @pytest.mark.parametrize("second, message", [
        ({"mean": [0.0, 0.0], "cov": [[-1.0, 0.0], [0.0, 1.0]]}, "covariance: min eigenvalue"),
        ({"mean": [0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}, "mean dimension 1 does not match"),
    ])
    def test_bad_model_error_names_file_and_index(self, second, message, tmp_path, capsys):
        models = tmp_path / "models.json"
        first = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        models.write_text(json.dumps([first, second]))
        out = tmp_path / "dm.json"
        code = entrypoint(["distmat", str(models), "--metric", "kl", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {models}: model 1: {message}")
        assert not out.exists()


class TestClusterCommand:
    def test_cluster_from_groups_and_score(self, synth_dir, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        code = entrypoint(
            [
                "cluster", str(synth_dir / "groups.csv"), "--algorithm", "klpp",
                "--k", "2", "--seed", "3", "--out", str(labels),
            ]
        )
        assert code == 0
        assert entrypoint(
            ["nmi", str(labels), str(synth_dir / "truth.json")]
        ) == 0
        score = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_cluster_from_distance_matrix(self, synth_dir, tmp_path):
        models = tmp_path / "models.json"
        entrypoint(["estimate", str(synth_dir / "groups.csv"), "--out", str(models)])
        dm = tmp_path / "dm.json"
        entrypoint(
            ["distmat", str(models), "--metric", "bhattacharyya", "--out", str(dm)]
        )
        labels = tmp_path / "labels.json"
        code = entrypoint(
            [
                "cluster", str(dm), "--algorithm", "bhattacharyya_spectral",
                "--k", "2", "--out", str(labels),
            ]
        )
        assert code == 0
        assert len(json.loads(labels.read_text())["labels"]) == 16

    def test_saved_matrix_run_matches_groups_run(self, synth_dir, tmp_path, capsys):
        # one result and one summary line, whichever input the run reads
        models = tmp_path / "models.json"
        entrypoint(["estimate", str(synth_dir / "groups.csv"), "--out", str(models)])
        dm = tmp_path / "dm.json"
        entrypoint(["distmat", str(models), "--metric", "wasserstein_sq", "--out", str(dm)])
        capsys.readouterr()
        runs = []
        for source in (synth_dir / "groups.csv", dm):
            labels = tmp_path / f"labels_{source.stem}.json"
            code = entrypoint(
                ["cluster", str(source), "--algorithm", "wasserstein_spectral",
                 "--k", "2", "--seed", "3", "--out", str(labels)]
            )
            assert code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            runs.append((labels.read_bytes(), captured.out.splitlines()[0]))
        assert runs[0] == runs[1]
        assert runs[0][1].startswith("clustered 16 objects into k=2 (bandwidth_sigma=")

    def test_ignored_options_warn_from_either_input(self, synth_dir, tmp_path, capsys):
        models = tmp_path / "models.json"
        entrypoint(["estimate", str(synth_dir / "groups.csv"), "--out", str(models)])
        dm = tmp_path / "dm.json"
        entrypoint(["distmat", str(models), "--metric", "wasserstein_sq", "--out", str(dm)])
        out = str(tmp_path / "l.json")
        capsys.readouterr()
        cases = [
            ([str(dm), "--algorithm", "wasserstein_spectral", "--klpp-squared",
              "--eps-scale", "0.1"],
             ["eps_scale ignored for a saved distance matrix",
              "klpp_squared ignored for wasserstein_spectral"]),
            ([str(dm), "--algorithm", "wasserstein_spectral", "--eps-scale", "1e-8"], []),
            ([str(synth_dir / "groups.csv"), "--algorithm", "wasserstein_spectral",
              "--eps-scale", "0.1"], []),
            ([str(synth_dir / "groups.csv"), "--algorithm", "kl", "--restarts", "3"],
             ["restarts ignored for kl"]),
            ([str(synth_dir / "groups.csv"), "--algorithm", "kl"], []),
        ]
        for args, notes in cases:
            assert entrypoint(["cluster", *args, "--k", "2", "--out", out]) == 0
            assert capsys.readouterr().err.splitlines() == [f"warning: {n}" for n in notes]

    def test_distmat_metric_mismatch_is_usage_error(self, synth_dir, tmp_path):
        models = tmp_path / "models.json"
        entrypoint(["estimate", str(synth_dir / "groups.csv"), "--out", str(models)])
        dm = tmp_path / "dm.json"
        entrypoint(
            ["distmat", str(models), "--metric", "bhattacharyya", "--out", str(dm)]
        )
        code = entrypoint(
            [
                "cluster", str(dm), "--algorithm", "wasserstein_spectral",
                "--k", "2", "--out", str(tmp_path / "l.json"),
            ]
        )
        assert code == 1

    def test_kl_cannot_use_distance_matrix(self, synth_dir, tmp_path):
        models = tmp_path / "models.json"
        entrypoint(["estimate", str(synth_dir / "groups.csv"), "--out", str(models)])
        dm = tmp_path / "dm.json"
        entrypoint(
            ["distmat", str(models), "--metric", "wasserstein_sq", "--out", str(dm)]
        )
        code = entrypoint(
            ["cluster", str(dm), "--algorithm", "kl", "--k", "2",
             "--out", str(tmp_path / "l.json")]
        )
        assert code == 1

    def test_overflowing_median_bandwidth_is_data_error(self, tmp_path, capsys):
        # the median bandwidth of 1e200 entries has a 2 sigma^2 that overflows
        dm = tmp_path / "dm.json"
        rows = (1e200 * (1.0 - np.eye(3))).tolist()
        dm.write_text(json.dumps({"metric": "wasserstein_sq", "n": 3, "rows": rows}))
        code = entrypoint(
            ["cluster", str(dm), "--algorithm", "wasserstein_spectral", "--k", "2",
             "--out", str(tmp_path / "l.json")]
        )
        assert code == 2
        assert "2 sigma^2 overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["inf", "1e300", "1e155", "1e154", "nan", "0"])
    def test_bad_sigma_is_usage_error(self, sigma, tmp_path, capsys):
        # a given bandwidth that is not positive, or whose 2 sigma^2
        # overflows, is a bad setting, refused before the matrix is read
        dm = tmp_path / "dm.json"
        dm.write_text(json.dumps({"metric": "wasserstein_sq", "n": 2, "rows": [[0, 1], [1, 0]]}))
        out = tmp_path / "l.json"
        code = entrypoint(
            ["cluster", str(dm), "--algorithm", "wasserstein_spectral", "--k", "2",
             "--sigma", sigma, "--out", str(out)]
        )
        assert code == 1
        assert "error: sigma " in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_comes_before_reading_the_matrix(self, tmp_path, capsys):
        code = entrypoint(
            ["cluster", str(tmp_path / "missing.json"), "--algorithm", "kl", "--k", "2",
             "--out", str(tmp_path / "l.json")]
        )
        assert code == 1
        assert "kl cannot run from a saved distance matrix" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path):
        code = entrypoint(
            ["estimate", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 2

    def test_bad_schema_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        code = entrypoint(
            ["estimate", str(bad), "--out", str(tmp_path / "m.json")]
        )
        assert code == 2

    def test_unknown_algorithm_is_usage_error(self, tmp_path):
        code = entrypoint(
            ["cluster", "whatever.csv", "--algorithm", "dbscan", "--k", "2",
             "--out", str(tmp_path / "l.json")]
        )
        assert code == 1

    def test_missing_required_flag_is_usage_error(self):
        assert entrypoint(["distmat", "models.json", "--out", "x.json"]) == 1

    def test_bad_k_is_usage_error(self, synth_dir, tmp_path):
        code = entrypoint(
            ["cluster", str(synth_dir / "groups.csv"), "--algorithm", "kl",
             "--k", "1", "--out", str(tmp_path / "l.json")]
        )
        assert code == 1

    def test_help_exits_zero(self):
        assert entrypoint(["--help"]) == 0

    @pytest.mark.parametrize("command", ["estimate", "cluster"])
    def test_header_only_groups_file_is_data_error(self, command, tmp_path, capsys):
        groups = tmp_path / "g.csv"
        groups.write_text("object_id,sample_index,x_0\n")
        out = tmp_path / "out.json"
        args = ["--algorithm", "kmeans_means", "--k", "2"] if command == "cluster" else []
        assert entrypoint([command, str(groups), *args, "--out", str(out)]) == 2
        assert "no sample rows after the header" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["estimate", "cluster"])
    def test_empty_groups_file_is_data_error(self, command, tmp_path, capsys):
        groups = tmp_path / "g.csv"
        groups.write_bytes(b"")
        out = tmp_path / "out.json"
        args = ["--algorithm", "kmeans_means", "--k", "2"] if command == "cluster" else []
        assert entrypoint([command, str(groups), *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {groups}: empty file\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["estimate", "cluster"])
    def test_bad_eps_scale_is_usage_error(self, command, value, synth_dir, tmp_path, capsys):
        out = tmp_path / "out.json"
        args = ["--algorithm", "kl", "--k", "2"] if command == "cluster" else []
        code = entrypoint(
            [command, str(synth_dir / "groups.csv"), *args, "--eps-scale", value, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"eps_scale must be finite and non-negative, got {float(value)}" in err
        assert not out.exists()


    @pytest.mark.parametrize("name, text, args", [
        ("a.json", '{"k": 2, "labels": [0, 1]}', ["nmi", "IN", "IN"]),
        ("m.json", '[{"mean": [0.0], "cov": [[1.0]]}]',
         ["distmat", "IN", "--metric", "kl", "--out", "OUT"]),
        ("dm.json", '{"metric": "wasserstein_sq", "n": 2, "rows": [[0, 1], [1, 0]]}',
         ["cluster", "IN", "--algorithm", "wasserstein_spectral", "--k", "2", "--out", "OUT"]),
        ("g.csv", "object_id,sample_index,x_0\na,0,1.0\na,1,2.0\nb,0,1.0\nb,1,3.0\n",
         ["cluster", "IN", "--algorithm", "kmeans_means", "--k", "2", "--out", "OUT"]),
        ("prices.csv", STOCK_CSV,
         ["bench-stock", "IN", "--k-list", "2", "--sigma-list", "1", "--trials", "1",
          "--threads", "1", "--out-dir", "OUT"]),
        ("g.csv", "obj\xffect_id,sample_index,x_0\na,0,1.0\na,1,2.0\n",
         ["estimate", "IN", "--out", "OUT"]),
    ], ids=["nmi", "distmat", "cluster matrix", "cluster groups", "bench-stock", "estimate header"])
    def test_non_utf8_file_is_data_error(self, name, text, args, tmp_path, capsys):
        # one 0xff byte: in the header for estimate, else near the end
        bad = tmp_path / name
        data = text.encode("latin-1")
        bad.write_bytes(data if b"\xff" in data else data[:-3] + b"\xff" + data[-3:])
        out = tmp_path / "out"
        args = [str(bad) if a == "IN" else str(out) if a == "OUT" else a for a in args]
        assert entrypoint(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")
        assert not out.exists()


class TestNmiCommand:
    def test_prints_score(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"k": 2, "labels": [0, 0, 1, 1]}')
        b.write_text('{"k": 2, "labels": [1, 1, 0, 0]}')
        assert entrypoint(["nmi", str(a), str(b)]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)

    def test_label_out_of_range_is_data_error(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"k": 2, "labels": [0, 0, 1, 1]}')
        b.write_text('{"k": 2, "labels": [0, 2, 1, 1]}')
        assert entrypoint(["nmi", str(a), str(b)]) == 2
        assert f"error: {b}: labels must lie in [0, 2)" in capsys.readouterr().err


class TestBenchCommands:
    def test_bench_synth_writes_report(self, tmp_path):
        out = tmp_path / "report"
        code = entrypoint(
            [
                "bench-synth", "--d-list", "2", "--k-list", "2", "--trials", "2",
                "--seed", "3", "--n-objects", "10", "--samples-per-object", "6",
                "--algorithms", "kl,kmeans_means", "--threads", "1",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "synthetic"
        assert {c["algorithm"] for c in report["cells"]} == {"kl", "kmeans_means"}
        assert (out / "summary.csv").exists()

    def test_bench_stock_writes_report(self, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text(STOCK_CSV)
        out = tmp_path / "report"
        code = entrypoint(
            [
                "bench-stock", str(prices), "--k-list", "2", "--sigma-list", "0,0.2",
                "--trials", "2", "--seed", "1", "--algorithms", "kmeans_means",
                "--threads", "1", "--out-dir", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "stock"
        zero_noise = [c for c in report["cells"] if c["noise_sigma"] == 0.0]
        assert zero_noise[0]["mean_nmi"] == 1.0

    def test_bench_stock_log_returns(self, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text(STOCK_CSV)
        out = tmp_path / "report"
        code = entrypoint(
            [
                "bench-stock", str(prices), "--k-list", "2", "--sigma-list", "0",
                "--trials", "1", "--algorithms", "kmeans_means", "--log-returns",
                "--threads", "1", "--out-dir", str(out),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "rows",
        [
            # every symbol trades on a single day
            "2024-01-01,AAA,1,1,1,1\n2024-01-02,BBB,2,2,2,2\n",
            # every symbol's rows share one date, so only the last one counts
            "2024-01-01,AAA,1,1,1,1\n2024-01-01,AAA,2,2,2,2\n"
            "2024-01-03,BBB,1,1,1,1\n2024-01-03,BBB,3,3,3,3\n",
        ],
        ids=["single-day", "one-date"],
    )
    def test_no_usable_symbol_is_data_error(self, tmp_path, capsys, rows):
        prices = tmp_path / "prices.csv"
        prices.write_text("date,symbol,open,close,low,high\n" + rows)
        code = entrypoint(
            ["bench-stock", str(prices), "--k-list", "2", "--sigma-list", "1",
             "--trials", "1", "--threads", "1", "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert "no symbol has at least 2 distinct dates" in capsys.readouterr().err

    @pytest.mark.parametrize("strict", [False, True])
    def test_nan_price_row(self, tmp_path, capsys, strict):
        prices = tmp_path / "prices.csv"
        prices.write_text(STOCK_CSV + "2024-01-04,AAA,nan,10.4,10.1,10.6\n")
        code = entrypoint(
            ["bench-stock", str(prices), "--k-list", "2", "--sigma-list", "0",
             "--trials", "1", "--algorithms", "kmeans_means", "--threads", "1",
             "--out-dir", str(tmp_path / "out")]
            + (["--strict"] if strict else [])
        )
        err = capsys.readouterr().err
        assert "line 14: non-finite open value 'nan'" in err
        if strict:
            assert code == 2
            assert not (tmp_path / "out").exists()
        else:
            assert code == 0
            assert "warning: skipped line 14" in err

    @pytest.mark.parametrize("args, name", [
        (["bench-synth", "--d-list", "2", "--k-list", ""], "k_list"),
        (["bench-synth", "--d-list", "2", "--k-list", "2", "--algorithms", ""], "algorithms"),
        (["bench-stock", "PRICES", "--k-list", "2", "--sigma-list", ""], "noise_sigmas"),
    ], ids=["bench-synth k-list", "bench-synth algorithms", "bench-stock sigma-list"])
    def test_empty_list_is_usage_error(self, args, name, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text(STOCK_CSV)
        args = [str(prices) if a == "PRICES" else a for a in args]
        out = tmp_path / "out"
        code = entrypoint([*args, "--trials", "1", "--threads", "1", "--out-dir", str(out)])
        assert code == 1
        assert f"{name} must not be empty" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_shape_no_draw_can_give_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = entrypoint(
            ["bench-synth", "--d-list", "1", "--k-list", "2", "--trials", "4",
             "--threads", "2", "--out-dir", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "d must be at least 2, got 1" in err
        assert "trial seed" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sigmas", ["nan", "1,inf", "-1"])
    def test_bad_noise_sigma_is_usage_error(self, sigmas, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text(STOCK_CSV)
        out = tmp_path / "out"
        code = entrypoint(
            ["bench-stock", str(prices), "--k-list", "2", "--sigma-list", sigmas,
             "--trials", "1", "--threads", "1", "--out-dir", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "noise sigma must be finite and non-negative" in err
        assert "Warning" not in err
        assert not out.exists()

    def test_unknown_algorithm_in_list_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = entrypoint(
            ["bench-synth", "--d-list", "2", "--k-list", "2", "--trials", "1",
             "--algorithms", "kmeans_means,nope", "--out-dir", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "argument --algorithms: 'kmeans_means,nope': unknown algorithm 'nope'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bench_stock_warns_of_dropped_symbols(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text(STOCK_CSV + "2024-01-01,EEE,1.0,1.0,1.0,1.0\n")
        code = entrypoint(
            ["bench-stock", str(prices), "--k-list", "2", "--sigma-list", "0",
             "--trials", "1", "--algorithms", "kmeans_means", "--threads", "1",
             "--out-dir", str(tmp_path / "out")]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "warning: dropped EEE (too few days)\n" in err
        assert "Traceback" not in err

    def test_bad_list_is_usage_error(self, tmp_path):
        code = entrypoint(
            ["bench-synth", "--d-list", "two", "--k-list", "2",
             "--out-dir", str(tmp_path)]
        )
        assert code == 1
