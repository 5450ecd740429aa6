"""Independent verification machinery: quadrature and Monte Carlo.

Everything here exists to check the closed forms and exact evaluators
from the outside; no expansion code path depends on this module.  The
semi-infinite integrals all carry an e^{-z} factor, so they are mapped
to [0, 1) by the substitution z = lower - ln(1 - u), under which an
integrand C e^{-z} poly(z) becomes C e^{-lower} poly(z(u)): bounded up
to a logarithmic endpoint factor that adaptive quadrature absorbs.
"""
from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from .gauss import check_rho, std_normal_pdf
from .norming import check_n, solve_bn, threshold
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureResult,
    checked_quad,
)

__all__ = [
    "QuadratureResult",
    "QuadratureConvergenceError",
    "quad_semi_infinite",
    "I_k_quadrature",
    "mc_triangular_maxima",
]


def quad_semi_infinite(
    integrand: Callable[[float], float], lower: float, tol: float
) -> QuadratureResult:
    """Adaptive quadrature of integrand over [lower, inf).

    Assumes eventual exponential decay (every integral in this package
    has an explicit e^{-z} factor); deterministic for identical inputs.
    Asks `checked_quad` for tol/10 absolute or 1e-12 relative, and
    raises QuadratureConvergenceError where it flags a miss of both.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    def transformed(u: float) -> float:
        # A subdivided Gauss-Kronrod node can round to exactly 1.0; the
        # point has measure zero, so its value is immaterial.
        if u >= 1.0:
            return 0.0
        z = lower - math.log1p(-u)
        return integrand(z) / (1.0 - u)

    return checked_quad(transformed, 0.0, 1.0, 0.1 * tol, 1e-12,
                        f"integral over [{lower!r}, inf)")


def I_k_quadrature(k: int, lam: float, x: float, y: float) -> float:
    """int_y^inf phi(lam + (x-z)/(2 lam)) e^{-z} z^k dz by quadrature."""
    k = operator.index(k)
    if k not in (0, 1, 2, 3):
        raise ValueError(f"I_k is defined for k in 0..3, got {k}")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"requires finite lam > 0, got {lam}")

    def integrand(z: float) -> float:
        return std_normal_pdf(lam + (x - z) / (2.0 * lam)) * math.exp(-z) * z**k

    return quad_semi_infinite(integrand, y, 1e-10).value


def mc_triangular_maxima(
    n: int, rho: float, x: float, y: float, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of P(max X_i <= u_n(x), max Y_i <= u_n(y)).

    Each trial draws n correlated pairs (Z1, rho Z1 + sqrt(1-rho^2) Z2)
    from an explicitly seeded generator, so results are reproducible.
    Returns (estimate, binomial standard error).
    """
    n = check_n(n)
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError(f"requires trials >= 1, got {trials}")
    check_rho(rho)
    constant = solve_bn(n)
    u1 = threshold(constant, x)
    u2 = threshold(constant, y)
    spread = math.sqrt((1.0 - rho) * (1.0 + rho))

    rng = np.random.default_rng(seed)
    rows_per_chunk = max(1, 2_000_000 // n)
    hits = 0
    remaining = trials
    while remaining > 0:
        m = min(rows_per_chunk, remaining)
        z1 = rng.standard_normal((m, n))
        z2 = rng.standard_normal((m, n))
        x_max = z1.max(axis=1)
        y_max = (rho * z1 + spread * z2).max(axis=1)
        hits += int(np.count_nonzero((x_max <= u1) & (y_max <= u2)))
        remaining -= m
    estimate = hits / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, std_error
