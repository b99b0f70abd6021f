"""Smoke tests for the benchmark itself, at toy input sizes.

    python3 -m pytest perfbench
"""
from __future__ import annotations

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


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def run_toy(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_op_prints_every_metric_and_passes_every_check(workload, trace):
    result, _ = run_toy(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in expected}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_op_gives_the_same_outputs_as_untraced_ops(workload):
    _, lines = run_toy(workload, 1)
    note = next(line for line in lines if line.startswith("# identical outputs:"))
    identical, ops = note.split(":")[1].split(" over ")
    assert identical.strip() == "True"
    assert int(ops.split()[0]) >= 2


def test_tracer_reports_a_traced_function_that_no_longer_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import sada.cli  # noqa: F401  (imports every module the tracer wraps)
    import sada.data
    from tracing import Tracer

    monkeypatch.delattr(sada.data, "stacked_score_matrix")
    tracer = Tracer()
    with tracer.installed(1):
        pass
    assert tracer.missing == {"sada.data.stacked_score_matrix"}


def test_exits_nonzero_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
