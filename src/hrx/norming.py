"""Norming constants b_n for maxima of n iid standard normals.

b_n solves n * P(Z > b_n) = 1, and the affine thresholds

    u_n(x) = b_n + x / b_n

turn the maximum of n standard normals into a variable with a Gumbel
limit.  The solver works on the survival function directly: inverting
the cdf at 1 - 1/n loses the tail once 1/n is below ~1e-10, while
n * survival(b) keeps full relative accuracy at any n.

The expansion residual diagnostic checks the classical refinement

    1/n = b^-1 phi(b) (1 - b^-2 + 3 b^-4 + O(b^-6))

by scaling the relative remainder back up by b^6; boundedness of that
quantity over a wide n range is what licenses replacing 1/n by the
leading term inside higher-order error analyses.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .gauss import std_normal_pdf, std_normal_survival

__all__ = [
    "NormingConstant",
    "check_n",
    "solve_bn",
    "threshold",
    "bn_expansion_residual",
]


@dataclass(frozen=True)
class NormingConstant:
    """Solution of n * P(Z > b) = 1 for a given sample size."""

    n: int
    b: float

    @property
    def b_squared(self) -> float:
        return self.b * self.b


def check_n(n: int) -> int:
    """The one check of a row size: an integer n >= 3, so that b_n > 0."""
    n = operator.index(n)
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")
    return n


def _initial_guess(n: int) -> float:
    # Two-term asymptotic inverse of the tail; only needs to land in the
    # Newton basin, which it does for every n >= 3.
    ln = math.log(n)
    arg = 2.0 * ln - math.log(4.0 * math.pi * ln)
    return math.sqrt(max(arg, 0.25))


@lru_cache(maxsize=4096)
def _solve(n: int) -> float:
    lo = 0.0
    hi = _initial_guess(n) + 2.0
    # f(b) = n * survival(b) - 1 is strictly decreasing; widen the
    # bracket upward until it straddles the root.
    while n * std_normal_survival(hi) - 1.0 > 0.0:
        lo = hi
        hi *= 2.0
    b = _initial_guess(n)
    for _ in range(100):
        fb = n * std_normal_survival(b) - 1.0
        if abs(fb) <= 1e-15:
            break
        if fb > 0.0:
            lo = max(lo, b)
        else:
            hi = min(hi, b)
        step = fb / (n * std_normal_pdf(b))
        nxt = b + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - b) <= 5e-17 * max(1.0, abs(b)):
            b = nxt
            break
        b = nxt
    return b


def solve_bn(n: int) -> NormingConstant:
    """Norming constant for sample size n >= 3."""
    n = check_n(n)
    return NormingConstant(n, _solve(n))


def threshold(constant: NormingConstant, x: float) -> float:
    """u_n(x) = b_n + x / b_n; x may be +-inf (a limit), never NaN."""
    check_n(constant.n)
    if math.isnan(x):
        raise ValueError(f"requires a grid value that is not NaN, got {x}")
    return constant.b + x / constant.b


def bn_expansion_residual(n: int) -> float:
    """b^6-scaled relative error of the three-term tail expansion at b_n."""
    constant = solve_bn(n)
    b = constant.b
    b2 = b * b
    lead = std_normal_pdf(b) / b
    series = 1.0 - 1.0 / b2 + 3.0 / (b2 * b2)
    rel = abs(1.0 / n - lead * series) / lead
    return b2 * b2 * b2 * rel
