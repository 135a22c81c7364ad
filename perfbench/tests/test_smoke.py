"""Tiny runs of every workload through run.py, checked against BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per op of two grid replications; what the code implies for each table
REDUNDANT = {"mc_table1": (2 * 3, 2 * 12), "mc_table2": (2 * 1, 2 * 2), "fit_ingest": (0, 0)}


def run_bench(workload, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def test_workloads_match_benchmark_json():
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_smoke_run(workload):
    done = run_bench(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run(workload):
    done = run_bench(workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])
    assert all(m["value"] is not None for m in metrics.values()), "a layer is unmeasured"
    builds, fits = REDUNDANT[workload]
    assert metrics["graph.redundant_builds"]["value"] == builds
    assert metrics["lsq.redundant_fits"]["value"] == fits
    for layer in ("cli", "graph", "dgp", "design", "lsq", "effects"):
        assert metrics[f"{layer}.calls"]["value"] > 0
    assert (metrics["montecarlo.calls"]["value"] > 0) == workload.startswith("mc_")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("mc_table1", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
