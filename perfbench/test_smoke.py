"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(cwd, workload, trace):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--iterations", "5"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    else:
        calls = result["metrics"]["evolve.evolve.calls"]["value"]
        assert calls == (4 if workload == "fit-stock" else 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "export-int8", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
