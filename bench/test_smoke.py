"""Smoke test of the benchmark harness at its smallest sizes.

    python -m pytest bench/test_smoke.py

Each workload, untraced and traced, must print every metric named in
BENCHMARK.json with its unit, and fail no operation.  Without the package
source beside it the harness must exit non-zero and print no result.
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


def run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, done.stdout
    assert result["correct"] is True
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_every_layer_metric_has_a_prediction():
    predictions = json.loads((HERE / "predictions.json").read_text())
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(predictions["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for entry in predictions["per_layer"].values():
        for key in ("moves", "unchanged"):
            for workload, metrics in entry[key].items():
                assert workload in workloads and set(metrics) <= end_to_end


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "dual-exact", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
