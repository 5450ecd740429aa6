"""Jobs of the three workloads and the correctness check of each job.

A study job is one in-process ``hrx table`` call for a single n-row of a
study grid, written to a CSV file and compared with the reference CSV
produced by the full study at the commit that defined this benchmark.
A verify job is one in-process ``hrx verify --seed s`` call whose every
line must read PASS.
"""
from __future__ import annotations

import contextlib
import csv
import gzip
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

STUDY_SPEC = ("--spec", "third-order", "--lambda", "1", "--alpha", "2",
              "--beta", "5")

# workload -> (n range of the full study, grid); the reference file holds
# the output of `hrx table <STUDY_SPEC> --n <range> --grid <grid>`.
STUDIES = {
    "study-tail": ("3:8:0.5", "x=-2:4:0.5"),
    "study-bulk": ("1:2.5:0.25", "x=-3:1:0.25"),
}
WORKLOADS = (*STUDIES, "verify-suite")

# Monte Carlo seeds for verify jobs: 0..399 without 14 and 112, the two
# seeds whose estimate lands beyond 3 standard errors of the exact cdf at
# the defining commit (a chance miss, about 0.27% per seed).  Any change
# to the exact cdf or to the sampler shows up as FAIL lines on the rest.
VERIFY_SEEDS = tuple(s for s in range(400) if s not in (14, 112))

# Tolerances derived from the README contracts.  Survival pieces hold
# rel 1e-13; exact = exp(n log1p(-s)) with s a sum of up to three such
# pieces turns a relative error e of s into |ln exact| * e, so exact is
# held to 1e-12 * max(1, |ln exact|).  Approximants are closed forms,
# held to the coefficient contract, rel 1e-9.
_B_REL = 1e-13
_RHO_ABS = 1e-12
_EXACT_REL = 1e-12
_APPROX_REL = 1e-9


@dataclass(frozen=True)
class Outcome:
    ok: bool
    ops: int
    byte_identical: bool
    detail: str = ""


def run_cli(hrx_cli, argv: list[str]) -> tuple[int, str, str]:
    """hrx.cli.main(argv) in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = hrx_cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class StudyReference:
    """Reference CSV of one study, split into one expected file per row."""

    def __init__(self, workload: str) -> None:
        path = HERE / "reference" / f"{workload}.csv.gz"
        text = gzip.decompress(path.read_bytes()).decode("utf-8")
        header, *lines = text.splitlines(keepends=True)
        self.header = header
        self.n_values: list[int] = []
        self.lines: dict[int, list[str]] = {}
        for line in lines:
            n = int(line.split(",", 1)[0])
            if n not in self.lines:
                self.n_values.append(n)
                self.lines[n] = []
            self.lines[n].append(line)
        self.rows = {n: list(csv.reader(v)) for n, v in self.lines.items()}
        self.expected = {n: header + "".join(v) for n, v in self.lines.items()}


def _float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _row_problem(got: list[str], ref: list[str]) -> str | None:
    if len(got) != len(ref):
        return "column count"
    if got[0] != ref[0] or got[15] != ref[15]:
        return "n or clipped"
    if float(got[3]) != float(ref[3]) or float(got[4]) != float(ref[4]):
        return "grid point"
    b = float(ref[1])
    if abs(float(got[1]) - b) > _B_REL * b:
        return "b_n"
    if abs(float(got[2]) - float(ref[2])) > _RHO_ABS:
        return "rho_n"
    values = [_float(c) for c in got[5:15]]
    expect = [_float(c) for c in ref[5:15]]
    if [v is None for v in values] != [v is None for v in expect]:
        return "empty cells"
    if expect[0] is None:
        return None
    exact, ref_exact = values[0], expect[0]
    tol_exact = _EXACT_REL * max(1.0, abs(math.log(max(ref_exact, 1e-300)))) * ref_exact
    if abs(exact - ref_exact) > tol_exact:
        return "exact"
    b2 = b * b
    for k in range(3):
        ref_approx = expect[1 + k]
        if ref_approx is None:
            continue
        tol_approx = _APPROX_REL * abs(ref_approx)
        if abs(values[1 + k] - ref_approx) > tol_approx:
            return f"approx{k + 1}"
        tol_err = tol_exact + tol_approx
        if abs(values[4 + k] - expect[4 + k]) > tol_err:
            return f"err{k + 1}"
        tol_scaled = tol_err * b2 ** (k + 1) + 1e-13 * abs(expect[7 + k])
        if abs(values[7 + k] - expect[7 + k]) > tol_scaled:
            return f"scaled{k + 1}"
    return None


def check_study_output(reference: StudyReference, n: int, text: str) -> Outcome:
    """Compare one job's CSV text with the reference rows for n."""
    if text == reference.expected[n]:
        evaluated = sum(1 for row in reference.rows[n] if row[5] != "")
        return Outcome(True, evaluated, True)
    got_lines = text.splitlines(keepends=True)
    if not got_lines or got_lines[0] != reference.header:
        return Outcome(False, 0, False, f"n={n}: bad header")
    got = list(csv.reader(got_lines[1:]))
    ref = reference.rows[n]
    if len(got) != len(ref):
        return Outcome(False, 0, False, f"n={n}: {len(got)} rows, want {len(ref)}")
    for i, (g, r) in enumerate(zip(got, ref)):
        problem = _row_problem(g, r)
        if problem is not None:
            return Outcome(False, 0, False, f"n={n} row {i}: {problem} differs")
    return Outcome(True, sum(1 for row in got if row[5] != ""), False)


class StudyWorkload:
    """Passes over every n-row of one study, in a seeded order per pass."""

    def __init__(self, name: str, seed: int, out_path: Path) -> None:
        self.reference = StudyReference(name)
        self.grid = STUDIES[name][1]
        self.out_path = out_path
        self._rng = random.Random(f"{name}:{seed}")

    def first_job(self) -> int:
        return self.reference.n_values[0]

    def next_pass(self) -> list[int]:
        order = list(self.reference.n_values)
        self._rng.shuffle(order)
        return order

    def kind(self, n: int) -> int:
        return n

    def argv(self, n: int) -> list[str]:
        return ["table", *STUDY_SPEC, "--n", str(n), "--grid", self.grid,
                "--out", str(self.out_path)]

    def check(self, n: int, rc: int, stdout: str, stderr: str) -> Outcome:
        if rc != 0:
            return Outcome(False, 0, False, f"n={n}: exit {rc}: {stderr.strip()}")
        text = self.out_path.read_text(encoding="utf-8")
        return check_study_output(self.reference, n, text)


class VerifyWorkload:
    """One pass is one `hrx verify` call with a seed drawn from VERIFY_SEEDS."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"verify-suite:{seed}")

    def first_job(self) -> int:
        return VERIFY_SEEDS[0]

    def next_pass(self) -> list[int]:
        return [self._rng.choice(VERIFY_SEEDS)]

    def kind(self, seed: int) -> str:
        return "verify"

    def argv(self, seed: int) -> list[str]:
        return ["verify", "--seed", str(seed)]

    def check(self, seed: int, rc: int, stdout: str, stderr: str) -> Outcome:
        lines = stdout.splitlines()
        checks = [line for line in lines if line.startswith(("PASS: ", "FAIL: "))]
        passed = sum(1 for line in checks if line.startswith("PASS: "))
        if rc != 0 or not checks or passed != len(checks):
            failing = [line for line in checks if not line.startswith("PASS: ")]
            return Outcome(False, passed, False,
                           f"seed={seed}: exit {rc}: {failing or stderr.strip()}")
        return Outcome(True, passed, False)


def make_workload(name: str, seed: int, out_path: Path):
    if name in STUDIES:
        return StudyWorkload(name, seed, out_path)
    if name == "verify-suite":
        return VerifyWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
