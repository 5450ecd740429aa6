"""Independent verification machinery: quadrature and Monte Carlo.

Everything here exists to check the closed forms and exact evaluators
from the outside; no expansion code path depends on this module.  The
semi-infinite integrals all carry an e^{-z} factor, which the fixed
double-exponential rule `quadrature.exp_sinh` integrates to rounding
error; its step-1/16 and step-1/32 values certify each integral.  Each
integrand is a numpy function of the rule's whole node array, so one
integral is one integrand call.
"""
from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

from .gauss import (
    check_rho,
    std_normal_pdf,  # unused here; perfbench's tracer wraps this binding
    std_normal_pdf_array,
)
from .hr_core import check_k, check_lam
from .norming import check_n, solve_bn, threshold
from .quadrature import QuadratureConvergenceError, QuadratureResult, exp_sinh

__all__ = [
    "QuadratureResult",
    "QuadratureConvergenceError",
    "quad_semi_infinite",
    "I_k_quadrature",
    "mc_triangular_maxima",
]


def quad_semi_infinite(
    integrand: Callable[[np.ndarray], np.ndarray], lower: float, tol: float
) -> QuadratureResult:
    """Certified quadrature over [lower, inf) of an integrand that maps
    the array of nodes to the float64 array of its values.

    Assumes eventual exponential decay (every integral in this package
    has an explicit e^{-z} factor); deterministic for identical inputs.
    Asks `exp_sinh` for tol/10 absolute or 1e-12 relative, and raises
    QuadratureConvergenceError where its certificate misses both.  A
    NaN `lower` or a `tol` that is not positive is a ValueError.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if math.isnan(lower):
        raise ValueError(f"requires a lower limit that is not NaN, got {lower}")
    return exp_sinh(integrand, lower, 0.1 * tol, 1e-12,
                    f"integral over [{lower!r}, inf)")


def I_k_quadrature(k: int, lam: float, x: float, y: float) -> float:
    """int_y^inf phi(lam + (x-z)/(2 lam)) e^{-z} z^k dz by quadrature."""
    k = check_k(k)
    check_lam(lam)
    for name, value in (("x", x), ("y", y)):
        if math.isnan(value):
            raise ValueError(f"I_k_quadrature requires {name} that is not "
                             f"NaN, got {value}")

    # The integrand is also e^{-x} phi(lam - (x-z)/(2 lam)) z^k, a normal
    # density in z of width 2 lam peaking at x - 2 lam^2; that form takes
    # the nodes where e^{-z} overflows.
    def integrand(z: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            growth = np.exp(-z)
            values = (std_normal_pdf_array(lam + (x - z) / (2.0 * lam))
                      * growth * z**k)
            far = np.isinf(growth)
            if far.any():
                z = z[far]
                values[far] = (std_normal_pdf_array(lam - (x - z) / (2.0 * lam))
                               * np.exp(-x) * z**k)
        return values

    # The rule's nodes crowd at its lower limit and miss a narrow peak a
    # few widths above it.  A y more than 4 widths below the peak takes
    # the whole line, from the peak both ways, less the half-line below
    # y: each of the three integrands peaks at its lower limit.  The 402
    # that the nodes reach past the peak must span 10 widths.
    peak = x - 2.0 * lam * lam
    if not (y < peak - 8.0 * lam and lam <= 20.0 and math.isfinite(peak)):
        return quad_semi_infinite(integrand, y, 1e-10).value
    whole = (quad_semi_infinite(integrand, peak, 1e-10).value
             + quad_semi_infinite(lambda v: integrand(2.0 * peak - v),
                                  peak, 1e-10).value)
    if y == -math.inf:
        return whole
    return whole - quad_semi_infinite(lambda v: integrand(2.0 * y - v),
                                      y, 1e-10).value


# Normals per chunk and per Z2 block; the chunk size fixes which doubles
# of the seeded stream each trial sees, so it is part of the sampler's
# output, not a tuning knob.
_CHUNK_ELEMENTS = 2_000_000
_BLOCK_ELEMENTS = 65_536


def mc_triangular_maxima(
    n: int, rho: float, x: float, y: float, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of P(max X_i <= u_n(x), max Y_i <= u_n(y)).

    Each trial draws n correlated pairs (Z1, rho Z1 + sqrt(1-rho^2) Z2)
    from an explicitly seeded generator, so results are reproducible.
    Returns (estimate, binomial standard error).

    Trials run in chunks of max(1, _CHUNK_ELEMENTS // n) rows; a chunk
    draws all its Z1, then all its Z2, each in C order.  Z1 fills one
    buffer reused across chunks; Z2 streams through a small block
    buffer, and each block of rho Z1 + spread Z2 is formed in place over
    Z1 once the X maxima are taken.  Consecutive fills draw the same
    doubles as one call over their union, and the in-place arithmetic
    rounds as the out-of-place expression does, so the estimates equal
    those of drawing each chunk whole, in about 16 MiB for any trials.
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
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // n)
    rows_per_block = max(1, _BLOCK_ELEMENTS // n)
    z1 = np.empty((min(rows_per_chunk, trials), n))
    z2 = np.empty((min(rows_per_block, len(z1)), n))
    hits = 0
    remaining = trials
    while remaining > 0:
        m = min(rows_per_chunk, remaining)
        rng.standard_normal(out=z1[:m])
        x_ok = z1[:m].max(axis=1) <= u1
        for lo in range(0, m, rows_per_block):
            hi = min(lo + rows_per_block, m)
            a, b = z1[lo:hi], z2[:hi - lo]
            rng.standard_normal(out=b)
            a *= rho
            b *= spread
            a += b
            hits += int(np.count_nonzero(x_ok[lo:hi] & (a.max(axis=1) <= u2)))
        remaining -= m
    estimate = hits / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, std_error
