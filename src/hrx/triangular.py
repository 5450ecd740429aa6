"""Finite-n triangular arrays of bivariate Gaussian maxima.

Row n of the array holds n iid centered Gaussian pairs with correlation
rho_n; the distribution of the componentwise maximum, normalized by the
thresholds u_n(x) = b_n + x/b_n, converges to a max-stable limit whose
identity is decided by lam_n = (b_n^2 (1 - rho_n)/2)^{1/2}:

    lam_n -> 0        complete dependence,
    lam_n -> lam      the interior one-parameter family,
    lam_n -> inf      independence.

This module builds the correlation sequences for each regime, evaluates
the exact finite-n distribution F^n(u_n(x), u_n(y)) with enough accuracy
that b_n^4-scaled residuals are still meaningful, and exposes the
proof-level diagnostics (the error functional Delta, the A-coefficients,
the h_n remainder, and the tail-integral approximation of the joint
exceedance probability).

F^n is evaluated a whole row at a time (`exact_row_cdf`): u_n once per
distinct grid value, the marginal survival once per distinct threshold,
and the joint survivals in one `gauss.bivariate_survival_row` call.
The one-point functions are one-point rows, so each value is the same
double either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .gauss import (
    bivariate_normal_survival,  # unused here; perfbench's tracer wraps this binding
    bivariate_survival_row,
    check_rho,
    std_normal_cdf,
    std_normal_cdf_array,
    std_normal_survival,
)
from .hr_core import ApproxOrder, HRParams, check_lam, hr_cdf
from .norming import NormingConstant, check_n, solve_bn, threshold
from .quadrature import exp_sinh

__all__ = [
    "ConstantRho",
    "ThirdOrderHR",
    "CorollaryInfinity",
    "CorollaryZero",
    "RhoSequenceSpec",
    "ArrayRow",
    "make_row",
    "exact_joint_max_cdf",
    "exact_row_cdf",
    "delta_error",
    "a_coefficients",
    "h_n_diagnostic",
    "lemma31_tail_approx",
]


@dataclass(frozen=True)
class ConstantRho:
    """rho_n = rho for every n."""

    rho: float

    def __post_init__(self) -> None:
        check_rho(self.rho)

    @property
    def params(self) -> HRParams:
        """A fixed rho < 1 sends lam_n to infinity; rho = 1 pins it at 0."""
        return HRParams.zero() if self.rho == 1.0 else HRParams.infinity()


@dataclass(frozen=True)
class ThirdOrderHR:
    """lam_n = lam - alpha/b_n^2 - beta/b_n^4 exactly, so the refined
    convergence conditions hold with zero slack."""

    lam: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        self.params  # HRParams.finite checks lam, alpha and beta

    @property
    def params(self) -> HRParams:
        return HRParams.finite(self.lam, self.alpha, self.beta)

    def lam_n(self, b2: float) -> float:
        """lam - alpha/b2 - beta/b2^2 at b2 = b_n^2.  rho_n depends on its
        square alone, so a row where it is negative realises |lam_n|."""
        return self.lam - self.alpha / b2 - self.beta / (b2 * b2)


@dataclass(frozen=True)
class CorollaryInfinity:
    """rho_n solving (1 - rho) ln n - (2 + rho) ln ln n = 2 gamma, the
    borderline scaling under which lam_n -> inf."""

    gamma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma):
            raise ValueError(f"requires finite gamma, got {self.gamma}")

    @property
    def params(self) -> HRParams:
        return HRParams.infinity()


@dataclass(frozen=True)
class CorollaryZero:
    """rho_n = 1 - tau_rate^2 / (ln n)^3, under which lam_n -> 0."""

    tau_rate: float

    def __post_init__(self) -> None:
        if not (self.tau_rate >= 0.0
                and math.isfinite(self.tau_rate * self.tau_rate)):
            raise ValueError(
                f"tau_rate must be >= 0 with a finite square, got {self.tau_rate}"
            )

    @property
    def params(self) -> HRParams:
        return HRParams.zero()


# Each spec's read-only `params` is the limit H its sequence fixes, the
# one every study and `delta_error` compare the array against.
RhoSequenceSpec = Union[ConstantRho, ThirdOrderHR, CorollaryInfinity, CorollaryZero]


@dataclass(frozen=True)
class ArrayRow:
    """One row of the array: its size, norming constant, correlation,
    implied lam_n, and (for refined specs) the second-order deviation
    delta_n = b^2 (lam - lam_n) - alpha."""

    n: int
    b: NormingConstant
    rho: float
    lambda_n: float
    delta_n: float | None
    clipped: bool


def make_row(spec: RhoSequenceSpec, n: int) -> ArrayRow:
    """Materialize row n of the correlation sequence.

    Out-of-range raw correlations (possible for aggressive specs at
    small n) are clipped to [-1, 1] and flagged rather than rejected.
    """
    n = check_n(n)
    constant = solve_bn(n)
    b2 = constant.b_squared

    lam_exact: float | None = None
    if isinstance(spec, ConstantRho):
        raw = spec.rho
    elif isinstance(spec, ThirdOrderHR):
        lam_exact = spec.lam_n(b2)
        raw = 1.0 - 2.0 * lam_exact * lam_exact / b2
    elif isinstance(spec, CorollaryInfinity):
        ln_n = math.log(n)
        lnln_n = math.log(ln_n)
        raw = (ln_n - 2.0 * lnln_n - 2.0 * spec.gamma) / (ln_n + lnln_n)
    elif isinstance(spec, CorollaryZero):
        raw = 1.0 - spec.tau_rate**2 / math.log(n) ** 3
    else:
        raise TypeError(f"unknown correlation spec {spec!r}")

    if math.isnan(raw):
        # alpha/b^2 and beta/b^4 overflowed to opposite infinities
        raise ValueError(f"{spec!r} has no correlation at n = {n}: its "
                         f"terms overflow")
    clipped = not -1.0 <= raw <= 1.0
    rho = min(max(raw, -1.0), 1.0)

    if lam_exact is not None and lam_exact >= 0.0 and not clipped:
        lambda_n = lam_exact
    else:
        lambda_n = math.sqrt(max(b2 * (1.0 - rho) / 2.0, 0.0))

    delta_n: float | None = None
    if isinstance(spec, ThirdOrderHR):
        delta_n = b2 * (spec.lam - lambda_n) - spec.alpha

    return ArrayRow(n, constant, rho, lambda_n, delta_n, clipped)


def _n_log_joint_row(
    n: int, rho: float, points: Sequence[tuple[float, float]]
) -> list[float]:
    """n * log F_rho(u_n(x), u_n(y)) at every grid point of one row.

    The complement s = 1 - F is assembled from survival pieces so no
    accuracy is lost against 1.  u_n is formed once per distinct grid
    value, the marginal survival once per distinct threshold and the
    joint survivals in one `bivariate_survival_row` call, so every value
    equals the one-point evaluation.
    """
    constant = solve_bn(n)
    u: dict[float, float] = {}
    for point in points:
        for v in point:
            if v not in u:
                u[v] = threshold(constant, v)
    marginal = {t: std_normal_survival(t) for t in set(u.values())}
    thresholds = [(u[x], u[y]) for x, y in points]
    if rho == 1.0:
        pieces = [marginal[min(u1, u2)] for u1, u2 in thresholds]
    else:
        joint = bivariate_survival_row(thresholds, rho)
        pieces = [marginal[u1] + marginal[u2] - p
                  for (u1, u2), p in zip(thresholds, joint)]
    # F <= Phi(min(u1, u2)).  Where n log Phi(min(u1, u2)) lies below
    # -745.2, past exp's underflow to 0 at -745.13, 1 - s may keep only a
    # rounding residue of F; both bound n log F from above there, so the
    # smaller stands in for it
    caps = {t: n * math.log(p) if (p := std_normal_cdf(t)) > 0.0 else -math.inf
            for t in {min(t) for t in thresholds}}
    return [-math.inf if s >= 1.0 else min(c, n * math.log1p(-s))
            if (c := caps[min(t)]) < -745.2 else n * math.log1p(-s)
            for s, t in zip(pieces, thresholds)]


def exact_row_cdf(
    n: int, rho: float, points: Sequence[tuple[float, float]]
) -> list[float]:
    """F_rho^n(u_n(x), u_n(y)) at every (x, y) of one row of the array,
    in order; each value equals `exact_joint_max_cdf` at that point."""
    n = check_n(n)
    check_rho(rho)
    return [math.exp(v) for v in _n_log_joint_row(n, rho, points)]


def exact_joint_max_cdf(n: int, rho: float, x: float, y: float) -> float:
    """F_rho^n(u_n(x), u_n(y)) for n iid correlated Gaussian pairs."""
    return exact_row_cdf(n, rho, ((x, y),))[0]


def delta_error(n: int, spec: RhoSequenceSpec, x: float, y: float) -> float:
    """Delta = F^n(u_n(x), u_n(y)) - H(x, y) along the spec's sequence,
    against the limit the sequence fixes."""
    row = make_row(spec, n)
    return exact_joint_max_cdf(row.n, row.rho, x, y) - hr_cdf(spec.params, x, y)


def a_coefficients(row: ArrayRow, lam: float) -> tuple[float, float, float]:
    """The three b^2-scale coefficients steering the expansion proofs:

        A1 = b^2 (lam - lam_n r),  A2 = (b^2/2)(1/lam - r/lam_n),
        A3 = lam_n r,              r = (1 - lam_n^2/b^2)^{-1/2}.

    Converge to alpha - lam^3/2, -alpha/(2 lam^2) - lam/4 and lam along
    a refined sequence."""
    check_lam(lam)
    lam_n = row.lambda_n
    b2 = row.b.b_squared
    if lam_n <= 0.0:
        raise ValueError(f"requires lambda_n > 0, got {lam_n}")
    if lam_n * lam_n >= b2:
        raise ValueError(
            f"requires lambda_n^2 < b^2, got {lam_n * lam_n} >= {b2}"
        )
    r = 1.0 / math.sqrt(1.0 - lam_n * lam_n / b2)
    a1 = b2 * (lam - lam_n * r)
    a2 = 0.5 * b2 * (1.0 / lam - r / lam_n)
    a3 = lam_n * r
    return a1, a2, a3


def h_n_diagnostic(n: int, rho: float, lam: float, x: float, y: float) -> float:
    """h_n = n log F + Phi(lam+(x-y)/2lam) e^{-y} + Phi(lam+(y-x)/2lam) e^{-x}.

    Vanishes as n grows along a matching sequence; b_n^2 h_n tends to
    the second-order coefficient kappa, and exp(h_n) = F^n / H.  Where
    e^{-x} or e^{-y} overflows (x or y below about -709.78), so does
    h_n, and that is a ValueError."""
    n = check_n(n)
    check_rho(rho)
    check_lam(lam)
    try:
        ex, ey = math.exp(-x), math.exp(-y)
    except OverflowError:
        raise ValueError(f"h_n_diagnostic({n}, {rho!r}, {lam!r}, {x!r}, "
                         f"{y!r}): e^{{-x}} or e^{{-y}} overflowed") from None
    half = (x - y) / (2.0 * lam)
    return (
        _n_log_joint_row(n, rho, ((x, y),))[0]
        + std_normal_cdf(lam + half) * ey
        + std_normal_cdf(lam - half) * ex
    )


def lemma31_tail_approx(
    n: int, rho: float, x: float, y: float, order: ApproxOrder
) -> float:
    """Tail-integral approximation of n P(X > u_n(x), Y > u_n(y)).

    Replaces the inner Gaussian tail by its two- or three-term Mills
    expansion, leaving n Phibar(u_n(y)) minus an explicit integral whose
    weight is 1 + (1 - z^2/2)/b^2 (order Second) plus
    (z^4/8 - z^2/2 - 2)/b^4 (order Third)."""
    n = check_n(n)
    if not -1.0 < rho < 1.0:
        raise ValueError(f"requires |rho| < 1, got {rho}")
    if order is ApproxOrder.FIRST:
        raise ValueError("tail approximation is defined for Second and Third")
    constant = solve_bn(n)
    b = constant.b
    b2 = constant.b_squared
    b4 = b2 * b2
    u_x = threshold(constant, x)
    u_y = threshold(constant, y)
    spread = math.sqrt((1.0 - rho) * (1.0 + rho))
    third = order is ApproxOrder.THIRD

    def integrand(z: np.ndarray) -> np.ndarray:
        arg = (u_x - rho * (b + z / b)) / spread
        z2 = z * z
        w = 1.0 + (1.0 - z2 / 2.0) / b2
        if third:
            w += (z2 * z2 / 8.0 - z2 / 2.0 - 2.0) / b4
        return std_normal_cdf_array(arg) * np.exp(-z) * w

    integral = exp_sinh(
        integrand, y, 1e-13, 1e-12,
        f"lemma 3.1 tail integral at n={n}, rho={rho!r}, x={x!r}, y={y!r}",
    ).value
    return n * std_normal_survival(u_y) - integral
