"""One fixed quadrature rule on [lower, inf) that cannot fail silently.

The result and error types live here, below every numerical module, so
the joint tail's certificate in `gauss`, the proof diagnostics in
`triangular` and the oracles in `oracle` raise one error type, which
`hrx` turns into exit code 2 instead of a value.

`exp_sinh` is the double-exponential rule of Takahasi & Mori (1974,
Publ. RIMS 9) on a half-line: under z = lower + exp(t - e^{-t}) an
integrand with an e^{-z} factor decays doubly exponentially in t, and
the trapezoid rule in t converges geometrically in its step.  Its 385
nodes, t in [-6, 6] in steps of 1/32, reach from lower + 1e-178 to
lower + 402; every other node gives the step-1/16 rule, which must
agree, as the joint tail's 64- and 48-node Laguerre rules must.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadratureResult", "QuadratureConvergenceError", "exp_sinh"]


_T = np.arange(-192, 193) / 32.0
_OFFSETS = np.exp(_T - np.exp(-_T)).tolist()  # z - lower at each node
# dz/dt times the step: 1/32 on every node, 1/16 on every other node
_FINE_WEIGHTS = np.multiply(_OFFSETS, 1.0 + np.exp(-_T)) / 32.0
_COARSE_WEIGHTS = 2.0 * _FINE_WEIGHTS[::2]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


class QuadratureConvergenceError(RuntimeError):
    """A quadrature did not reach the requested tolerance.

    The best available estimate is attached as `partial`."""

    def __init__(self, message: str, partial: QuadratureResult) -> None:
        super().__init__(message)
        self.partial = partial


def exp_sinh(integrand: Callable[[float], float], lower: float,
             epsabs: float, epsrel: float, context: str) -> QuadratureResult:
    """The integral of a scalar `integrand` over [lower, inf), certified.

    Returns the step-1/32 value, with its distance to the step-1/16
    value as the error estimate.  Where that misses
    max(epsabs, epsrel*|value|), or is NaN because a node value is not
    finite, QuadratureConvergenceError is raised with the result
    attached; `context` names the integral in its message.  Both sums
    are correctly rounded (`math.fsum`).
    """
    values = np.array([integrand(lower + offset) for offset in _OFFSETS])
    try:
        fine = math.fsum((_FINE_WEIGHTS * values).tolist())
        coarse = math.fsum((_COARSE_WEIGHTS * values[::2]).tolist())
    except (ValueError, OverflowError):  # inf - inf, or a sum past 1.8e308
        fine = coarse = math.nan
    out = QuadratureResult(fine, abs(fine - coarse), len(values))
    if not out.abs_error_estimate <= max(epsabs, epsrel * abs(fine)):
        raise QuadratureConvergenceError(
            f"{context}: the step-1/16 and step-1/32 rules differ by "
            f"{out.abs_error_estimate:.3e}", out)
    return out
