"""Smoke test of the benchmark: every workload at minimal length.

Run from the repository root with ``python -m pytest perfbench``. Each
workload runs once untraced and once traced with ``--seconds 1``; the test
asserts that the result line names every metric of BENCHMARK.json with its
unit and that the outputs passed their checks.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert lines[-2].startswith("provenance ")
    if trace:
        assert result["metrics"]["solver.trace_digest_mismatch"]["value"] == 0


def test_layer_map_names_only_declared_metrics():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layer_map["workloads"]) == set(WORKLOADS)
    for entry in layer_map["map"]:
        assert set(entry["layer_metrics"]) <= per_layer, entry["id"]
        assert set(entry["moves"]) <= end_to_end, entry["id"]
        assert set(entry["on"]) | set(entry["not_on"]) <= set(WORKLOADS), entry["id"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
