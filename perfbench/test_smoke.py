"""Smoke tests for the benchmark itself, at toy input sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, script=HERE / "run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--size", "toy", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def session_members(sid: int) -> list[int]:
    """Pids whose session id is ``sid``, read from /proc/<pid>/stat."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:  # pid (comm) state ppid pgrp session
            members.append(int(stat.parent.name))
    return members


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace))
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: e["unit"] for name, e in result["metrics"].items()} == declared
    for name, unit in declared.items():
        line = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}$"
        assert re.search(line, proc.stdout, re.M), f"{name} not printed with {unit}"


def test_spawn_pool_runs_from_the_entry_point():
    # the traced run makes one pooled and one inline op and requires their
    # canonical report bytes to match
    metrics = last_json(run_bench("--workload", "stock_pool", "--trace", "1"))["metrics"]
    assert metrics["pipeline.pool.created"]["value"] >= 1
    assert metrics["pipeline.pool.efficiency"]["value"] > 0
    assert metrics["checks.failed_ratio"]["value"] == 0


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_outlives_a_pooled_run():
    # spawn pools start multiprocessing's resource tracker, which would
    # otherwise linger after the benchmark exits
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--size", "toy", "--seed", "7", "--seconds", "1",
         "--workload", "stock_pool", "--trace", "0"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=300) == 0
    assert session_members(proc.pid) == []


def test_divergence_matrix_is_traced_only_where_it_runs():
    flagship = last_json(run_bench("--workload", "synth_flagship", "--trace", "1"))["metrics"]
    many = last_json(run_bench("--workload", "many_objects", "--trace", "1"))["metrics"]
    assert flagship["metrics.distance_matrix.calls"]["value"] == 2
    assert flagship["checks.matrix_entries"]["value"] > 0
    assert many["metrics.distance_matrix.calls"]["value"] == 0
    assert many["storage.read_groups_csv.bytes"]["value"] > 0


def test_all_runs_every_workload_in_both_modes():
    result = last_json(run_bench("--workload", "all"))
    assert result["correct"]
    for workload in WORKLOADS:
        assert f"{workload}/setup_s" in result["metrics"]
        assert f"{workload}/trace.ops" in result["metrics"]


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
