"""Tests of the benchmark itself; run with

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import SpanSummary, Tracer
from workloads import StudyReference, check_study_output, make_workload

HRX = run.import_hrx()


def traced_pass(name: str, tmp_path: Path) -> SpanSummary:
    workload = make_workload(name, 7, tmp_path / "job.csv")
    runner = run.Runner(HRX, workload)
    runner.phase(0.0)
    tracer = Tracer()
    runner.phase(0.0, tracer)
    assert runner.failed == 0, runner.failures
    return SpanSummary(tracer)


@pytest.mark.parametrize("name, tail_calls, records", [
    ("study-tail", 1723, 1859),
    ("study-bulk", 4, 2023),
])
def test_study_pass_counts(name, tail_calls, records, tmp_path):
    s = traced_pass(name, tmp_path)
    assert s.calls_of("gauss.bvn_survival.tail") == tail_calls
    assert s.calls_of("triangular.exact_joint_max_cdf") == records
    assert s.counts["hr_core.tau"] == 2 * records
    assert s.amount_of("cli.write_records") == records


def test_verify_call_counts(tmp_path):
    s = traced_pass("verify-suite", tmp_path)
    assert s.calls_of("oracle.quad_semi_infinite") == 135
    assert s.calls_of("oracle.mc") == 1
    assert s.amount_of("oracle.mc") == 50 * 100_000
    assert s.calls_of("gauss.bvn_survival.tail") == 0


def test_uninstall_restores_bindings():
    before = (HRX.cli.hr_approx, HRX.gauss.std_normal_survival,
              HRX.triangular.bivariate_normal_survival)
    tracer = Tracer()
    tracer.install(HRX)
    assert HRX.cli.hr_approx is not before[0]
    tracer.uninstall()
    assert (HRX.cli.hr_approx, HRX.gauss.std_normal_survival,
            HRX.triangular.bivariate_normal_survival) == before


def _with_exact(text: str, row: int, factor: float) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[5] = format(float(cells[5]) * factor, ".17g")
    lines[row] = ",".join(cells)
    return "".join(lines)


def test_study_check_tolerances():
    reference = StudyReference("study-tail")
    n = reference.n_values[-1]
    text = reference.expected[n]
    assert check_study_output(reference, n, text).byte_identical
    within = check_study_output(reference, n, _with_exact(text, 5, 1 + 1e-14))
    assert within.ok and not within.byte_identical
    assert not check_study_output(reference, n, _with_exact(text, 5, 1 + 1e-9)).ok
    assert not check_study_output(reference, n, text.rsplit("\n", 2)[0] + "\n").ok


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "study-bulk",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert {m["name"]: m["unit"] for m in spec[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "study-tail", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
