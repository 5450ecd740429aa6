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
agree, as the joint tail's 64- and 48-node Laguerre rules must.  The
integrand is called once per integral, on the whole node array.

The weighted node values span ~180 decimal orders, so `math.fsum`
(Shewchuk 1997, Discrete Comput. Geom. 18) of all of them carries one
partial per ~53 bits of that range and is slow.  Each sum instead takes
`math.fsum` of the terms of at least 2^-60 of the largest, plus one
numpy sum of the rest: together those are below 385 * 2^-60 of the
largest, and their sum is off by less than ~2^-95 of it.  The result is
therefore the correctly rounded sum of all terms unless that sum lies
within ~2^-95 max|term| of a rounding boundary; on all 295 integrals of
`hrx verify` and the lemma 3.1 tests it equals `math.fsum` bit for bit.
numpy's sum is pairwise over a contiguous array, never `np.dot` or
BLAS, whose bits depend on the machine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadratureResult", "QuadratureConvergenceError", "exp_sinh"]


_T = np.arange(-192, 193) / 32.0
_OFFSETS = np.exp(_T - np.exp(-_T))  # z - lower at each node
# dz/dt times the step: 1/32 on every node, 1/16 on every other node
_FINE_WEIGHTS = _OFFSETS * (1.0 + np.exp(-_T)) / 32.0
_COARSE_WEIGHTS = 2.0 * _FINE_WEIGHTS[::2]
# terms below this share of the largest go to numpy's sum, not fsum
_FSUM_CUT = 2.0 ** -60


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


def _rule_sum(terms: np.ndarray) -> float:
    """The sum of `terms`: `math.fsum` of the large ones and of one numpy
    sum of those below 2^-60 of the largest.  A NaN term makes it NaN."""
    size = np.abs(terms)
    large = size >= _FSUM_CUT * size.max()
    return math.fsum([*terms[large].tolist(), float(np.sum(terms[~large]))])


def exp_sinh(integrand: Callable[[np.ndarray], np.ndarray], lower: float,
             epsabs: float, epsrel: float, context: str) -> QuadratureResult:
    """The integral of `integrand` over [lower, inf), certified.

    `integrand` is called once, on the float64 array of the 385 nodes,
    and must return a float64 array of the same shape; anything else
    raises ValueError.  Returns the step-1/32 value, with its distance
    to the step-1/16 value as the error estimate.  Where that misses
    max(epsabs, epsrel*|value|), or is NaN because a node value is not
    finite, QuadratureConvergenceError is raised with the result
    attached; `context` names the integral in its message.
    """
    nodes = lower + _OFFSETS
    values = integrand(nodes)
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.shape == nodes.shape):
        got = (f"a {values.dtype} array of shape {values.shape}"
               if isinstance(values, np.ndarray) else type(values).__name__)
        raise ValueError(f"{context}: the integrand must return a float64 "
                         f"array of shape {nodes.shape}, got {got}")
    try:
        fine = _rule_sum(_FINE_WEIGHTS * values)
        coarse = _rule_sum(_COARSE_WEIGHTS * values[::2])
    except (ValueError, OverflowError):  # inf - inf, or a sum past 1.8e308
        fine = coarse = math.nan
    out = QuadratureResult(fine, abs(fine - coarse), values.size)
    if not out.abs_error_estimate <= max(epsabs, epsrel * abs(fine)):
        raise QuadratureConvergenceError(
            f"{context}: the step-1/16 and step-1/32 rules differ by "
            f"{out.abs_error_estimate:.3e}", out)
    return out
