"""Independent verification machinery: quadrature and Monte Carlo.

Everything here exists to check the closed forms and exact evaluators
from the outside; no expansion code path depends on this module.  The
semi-infinite integrals all carry an e^{-z} factor, or a normal density
once I_k is taken in its own variable, which the fixed
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


# The lower limit in u above which `I_k_quadrature` integrates with
# phi(u_y) factored out.  Every `hrx verify` integral lies below it.
_ABOVE_PEAK = 8.0


def I_k_quadrature(k: int, lam: float, x: float, y: float) -> float:
    """int_y^inf phi(lam + (x-z)/(2 lam)) e^{-z} z^k dz by quadrature.

    The integrand is also e^{-x} phi((z - m)/(2 lam)) z^k, a normal
    density in z of width 2 lam about m = x - 2 lam^2.  In its own
    variable u = (z - m)/(2 lam) the integral is

        2 lam e^{-x} int_{u_y}^inf phi(u) (m + 2 lam u)^k du,

    u_y = (y - x)/(2 lam) + lam, of width 1 for every lam, with e^{-x}
    outside it.  The rule's nodes crowd at its lower limit and miss a
    peak far above it, so a u_y below -4 takes the two half-lines from
    0 less the half-line below u_y.  Above u_y = 8 phi(u_y) leaves the
    integral (`_I_k_above_peak`), since phi itself is 0 past u = 40.
    The integral is held to 1e-11 of I absolute or 1e-12 relative.
    """
    k = check_k(k)
    check_lam(lam)
    for name, value in (("x", x), ("y", y)):
        if math.isnan(value):
            raise ValueError(f"I_k_quadrature requires {name} that is not "
                             f"NaN, got {value}")
    u_y = (y - x) / (2.0 * lam) + lam
    if u_y > _ABOVE_PEAK:
        return _I_k_above_peak(k, lam, x, y, u_y)
    try:
        weight = 2.0 * lam * math.exp(-x)
    except OverflowError:  # x < -709.78
        weight = math.inf
    if weight == 0.0:
        return 0.0
    m = x - 2.0 * lam * lam

    def integrand(u: np.ndarray) -> np.ndarray:
        density = std_normal_pdf_array(u)
        with np.errstate(over="ignore", invalid="ignore"):
            values = density * (m + 2.0 * lam * u) ** k
        # 0 where the density is, even if m + 2 lam u is inf - inf there
        return np.where(density == 0.0, 0.0, values)

    def half_line(f: Callable[[np.ndarray], np.ndarray], lower: float) -> float:
        return quad_semi_infinite(f, lower, max(1e-10 / weight, 5e-324)).value

    if u_y >= -4.0:
        total = half_line(integrand, u_y)
    else:
        def mirrored(v: np.ndarray) -> np.ndarray:
            return integrand(-v)

        total = half_line(integrand, 0.0) + half_line(mirrored, 0.0)
        if u_y > -math.inf:
            total -= half_line(mirrored, -u_y)
    if weight < math.inf:
        return weight * total
    # 2 lam e^{-x} overflows, but the integral times it may not
    return _times_exp(total, math.log(2.0 * lam) - x)


def _times_exp(value: float, log_scale: float) -> float:
    """value * e^{log_scale}, formed in logarithms: inf where it
    overflows, 0 where it underflows."""
    if value == 0.0:
        return 0.0
    try:
        scale = math.exp(log_scale + math.log(abs(value)))
    except OverflowError:
        scale = math.inf
    return math.copysign(scale, value)


def _I_k_above_peak(k: int, lam: float, x: float, y: float, u_y: float) -> float:
    """I_k for u_y > 8: with u = u_y + s/u_y,

        I = 2 lam e^{-x} phi(u_y)/u_y
            * int_0^inf e^{-s - s^2/(2 u_y^2)} (y + 2 lam s/u_y)^k ds,

    whose integrand carries the e^{-s} factor the rule expects and
    never underflows where its weight is not negligible.  The factor
    in front is formed in logarithms, so I stays finite and nonzero
    wherever it is, though phi(u_y) is 0 past 40 and e^{-x} overflows
    below -709.78.
    """
    if u_y == math.inf:  # y = inf, or x = -inf, where phi vanishes
        return 0.0
    # 2 lam phi(u_y)/u_y = lam/u_y sqrt(2/pi) e^{-u_y^2/2}
    log_scale = (math.log(lam) - math.log(u_y) + 0.5 * math.log(2.0 / math.pi)
                 - x - 0.5 * u_y * u_y)
    if log_scale == -math.inf:
        return 0.0
    slope = 2.0 * lam / u_y
    inv_2u2 = 0.5 / (u_y * u_y)

    def integrand(s: np.ndarray) -> np.ndarray:
        density = np.exp(-s - s * s * inv_2u2)
        with np.errstate(over="ignore", invalid="ignore"):
            values = density * (y + slope * s) ** k
        return np.where(density == 0.0, 0.0, values)

    # 1e-11 of I absolute, as below u_y = 8
    tol = max(1e-10 * math.exp(min(-log_scale, 709.0)), 5e-324)
    return _times_exp(quad_semi_infinite(integrand, 0.0, tol).value, log_scale)


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
