"""The benchmark's own test: every workload at a tiny size, both metric sets.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run passes its correctness checks and emits exactly the
metrics named in BENCHMARK.json, each with its unit, and that the benchmark
refuses to run where the package source is missing.
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


def run_bench(root, workload, trace, extra=("--smoke",)):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("env ") for line in lines)
    if trace == 0:
        assert all(v["value"] != 0 for v in result["metrics"].values())
    elif workload == "report-preset":
        coverage = [line for line in lines if line.startswith("self time coverage ")]
        assert float(coverage[0].split()[-1]) >= 0.95


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "padic-sweep", 0, extra=())
    assert proc.returncode != 0
    assert not proc.stdout.strip()
