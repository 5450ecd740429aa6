"""Adaptive quadrature that cannot fail silently.

The result and error types live here, below every numerical module, so
the joint tail's certificate in `gauss`, the proof diagnostics in
`triangular` and the oracles in `oracle` raise one error type, which
`hrx table` turns into exit code 2 instead of a CSV value.  `gauss`
imports only those types: its joint tail is a fixed rule, and
`checked_quad` serves `triangular` and `oracle` alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["QuadratureResult", "QuadratureConvergenceError", "checked_quad"]


# scipy.integrate.quad, imported on first use: loading scipy would be
# most of a cold `import hrx`, and `hrx table` never integrates
# adaptively, so a table run loads no scipy at all.
quad = None


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance.

    The best available estimate is attached as `partial`."""

    def __init__(self, message: str, partial: QuadratureResult) -> None:
        super().__init__(message)
        self.partial = partial


def checked_quad(
    integrand: Callable[[float], float],
    lower: float,
    upper: float,
    epsabs: float,
    epsrel: float,
    context: str,
) -> QuadratureResult:
    """scipy's adaptive `quad` on [lower, upper] with its flag read.

    QUADPACK reports trouble (roundoff, subdivision limit) with a message
    next to its estimate; when that error estimate also misses
    max(epsabs, epsrel*|value|), QuadratureConvergenceError is raised
    with the estimate attached.  `context` names the integral in the
    message.
    """
    global quad
    if quad is None:
        from scipy.integrate import quad
    result = quad(integrand, lower, upper, epsabs=epsabs, epsrel=epsrel,
                  limit=200, full_output=1)
    value, abs_err, info = result[0], result[1], result[2]
    out = QuadratureResult(float(value), float(abs_err), int(info["neval"]))
    if len(result) > 3 and not abs_err <= max(epsabs, epsrel * abs(value)):
        raise QuadratureConvergenceError(f"{context}: {result[3]}", out)
    return out
