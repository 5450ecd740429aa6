"""Shared fixtures plus the acceptance-criteria summary hook.

Acceptance tests report through the `criterion` fixture; the terminal
summary then prints exactly one PASS/FAIL line per numbered criterion,
aggregated over its subchecks.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import settings

import hrx

settings.register_profile("suite", max_examples=60, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

_RESULTS: dict[int, list[tuple[str, bool, str]]] = defaultdict(list)


@pytest.fixture
def unconverged_quad(monkeypatch):
    """Make the certificate of `hrx.quadrature.exp_sinh` fail: its
    step-1/16 weights are scaled by 1.5, so the two steps of any integral
    with a nonzero value disagree by half of it."""
    monkeypatch.setattr(hrx.quadrature, "_COARSE_WEIGHTS",
                        1.5 * hrx.quadrature._COARSE_WEIGHTS)


class RecordedIntegral(NamedTuple):
    """One `exp_sinh` integral: its array integrand, lower limit and value."""

    integrand: Callable[[np.ndarray], np.ndarray]
    lower: float
    value: float

    def scalar(self, z: float) -> float:
        """The integrand at one point, for scipy's scalar `quad`."""
        return float(self.integrand(np.array([z]))[0])

    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The weighted node values the step-1/32 and step-1/16 rules sum."""
        values = self.integrand(self.lower + hrx.quadrature._OFFSETS)
        return (hrx.quadrature._FINE_WEIGHTS * values,
                hrx.quadrature._COARSE_WEIGHTS * values[::2])

    def sums_match_fsum(self) -> bool:
        """Whether the value and both of the rule's split sums equal
        `math.fsum` of every term, bit for bit."""
        fine, coarse = self.terms()
        return self.value == math.fsum(fine.tolist()) and all(
            hrx.quadrature._rule_sum(terms) == math.fsum(terms.tolist())
            for terms in (fine, coarse))


@pytest.fixture
def exp_sinh_calls(monkeypatch):
    """Record each integral of the oracles and of `lemma31_tail_approx`
    as a RecordedIntegral, in call order."""
    calls = []
    rule = hrx.quadrature.exp_sinh

    def recorded(integrand, lower, *args):
        result = rule(integrand, lower, *args)
        calls.append(RecordedIntegral(integrand, lower, result.value))
        return result

    for module in (hrx.oracle, hrx.triangular):
        monkeypatch.setattr(module, "exp_sinh", recorded)
    return calls


@pytest.fixture
def laguerre_passes(monkeypatch):
    """Record each Gauss-Laguerre pass of the joint tail as (conditioning
    thresholds, other thresholds, rho), as lists; a diagonal pass is the
    one at rho < 0 for a pair at rho > 0."""
    calls = []
    one_pass = hrx.gauss._laguerre_pass

    def recorded(a, c, rho):
        calls.append((a.tolist(), c.tolist(), rho))
        return one_pass(a, c, rho)

    monkeypatch.setattr(hrx.gauss, "_laguerre_pass", recorded)
    return calls


@pytest.fixture
def fresh_python():
    """Runner of `python *args` in a fresh interpreter that imports hrx
    from this source tree; returns the completed process, output as text."""
    src = str(Path(hrx.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": path},
        )

    return run


def _record(number: int, label: str, passed: bool, detail: str) -> None:
    _RESULTS[number].append((label, bool(passed), detail))


@pytest.fixture
def criterion():
    """Checker that registers a subcheck for the summary, then asserts."""

    def check(number: int, label: str, passed: bool, detail: str = "") -> None:
        _record(number, label, passed, detail)
        assert passed, f"criterion {number} [{label}] {detail}"

    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        cases = _RESULTS[number]
        failing = [(label, detail) for label, ok, detail in cases if not ok]
        if failing:
            labels = "; ".join(label for label, _ in failing)
            terminalreporter.write_line(
                f"criterion {number:2d}: FAIL "
                f"({len(cases) - len(failing)}/{len(cases)} subchecks passed; "
                f"failing: {labels})",
                red=True,
            )
        else:
            terminalreporter.write_line(
                f"criterion {number:2d}: PASS ({len(cases)} subchecks)",
                green=True,
            )


# One third-order array study shared by the rate-fit criteria: lambda=1,
# alpha=2, beta=5, five decades of n, the diagonal grid, all three orders.
STUDY_LAM = 1.0
STUDY_ALPHA = 2.0
STUDY_BETA = 5.0
STUDY_N = (10**3, 10**4, 10**5, 10**6, 10**7)
STUDY_GRID = ((-1.0, -1.0), (0.0, 0.0), (1.0, 1.0), (2.0, 2.0))


@pytest.fixture(scope="session")
def third_order_study():
    config = hrx.StudyConfig(
        spec=hrx.ThirdOrderHR(STUDY_LAM, STUDY_ALPHA, STUDY_BETA),
        n_values=STUDY_N,
        grid=STUDY_GRID,
    )
    return hrx.run_study(config)
