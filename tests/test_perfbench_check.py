"""Every n-row of the benchmark's two studies passes its own per-row check.

`perfbench/workloads.py` compares each `hrx table` row with a reference
CSV, byte for byte or else within the README contracts, and a benchmark
run counts a failed comparison as an incorrect output.  Running that
check here shows such a failure (a moved rounding residue of the
rho = -1 row, say) before a benchmark run does.  The module is loaded
from its file and nothing under `perfbench/` is written.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import hrx

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.STUDIES))
def test_every_study_row_passes_the_benchmark_check(name, tmp_path):
    workload = workloads.make_workload(name, 0, tmp_path / "row.csv")
    for n in workload.reference.n_values:
        rc, out, err = workloads.run_cli(hrx.cli, workload.argv(n))
        outcome = workload.check(n, rc, out, err)
        assert outcome.ok, outcome.detail
