"""Hüsler-Reiss limit family and its higher-order expansion coefficients.

The max-stable family interpolating between complete dependence and
independence of bivariate Gaussian maxima is

    H_lam(x, y) = exp(-Phi(lam + (y-x)/(2 lam)) e^{-x}
                  - Phi(lam + (x-y)/(2 lam)) e^{-y}),   0 < lam < inf,

with boundary members H_0(x,y) = exp(-e^{-min(x,y)}) (complete
dependence) and H_inf(x,y) = Lambda(x) Lambda(y) (independence), where
Lambda(x) = exp(-e^{-x}) is the Gumbel distribution.

For triangular arrays whose correlations satisfy the refined scaling
lam_n = lam - alpha/b_n^2 - beta/b_n^4 + o(b_n^-4), the distribution of
normalized maxima expands as

    F^n(u_n(x), u_n(y)) = H_lam (1 + kappa/b_n^2
                                 + (tau + kappa^2/2)/b_n^4 + o(b_n^-4)),

and this module carries the closed forms of every coefficient: the
univariate pieces s, t; the second-order coefficient kappa and its
companion kappa1; the fourth-order pieces tau1, tau2, tau3 assembled
into tau; and the auxiliary integrals

    I_k = int_y^inf phi(lam + (x-z)/(2 lam)) e^{-z} z^k dz,  k = 0..3,

whose closed forms the tau derivation rests on.  lam ranges over
[0, inf], boundaries included: at lam = inf the coefficients collapse
to s(x)+s(y) (independence) and at lam = 0 to s(min(x,y)) (complete
dependence), built from the univariate s and t.

H, kappa and tau do not depend on n: `hr_expansion` gives (H, kappa,
tau + kappa^2/2) at one point, computing what the closed forms share
once, `hr_expansion_grid` gives them over a grid (the closed forms run
on floats or arrays alike), and `approximants` combines them with b_n^2.

Every function here is an exact transcription of a closed form; all the
integrals have independent quadrature oracles in the test suite.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .gauss import std_normal_cdf, std_normal_pdf, std_normal_survival
from .norming import check_n, solve_bn

__all__ = [
    "HRParams",
    "ApproxOrder",
    "check_lam",
    "check_k",
    "gumbel_cdf",
    "hr_cdf",
    "s_term",
    "t_term",
    "univariate_gumbel_approx",
    "kappa",
    "kappa1",
    "tau1",
    "tau2",
    "tau3",
    "tau",
    "I_closed",
    "hr_expansion",
    "hr_expansion_grid",
    "approximants",
    "hr_approx",
]

_Real = float | np.ndarray  # a term at one point, or over a grid


class ApproxOrder(enum.Enum):
    """Truncation level of the 1/b_n^2 expansion."""

    FIRST = 1
    SECOND = 2
    THIRD = 3


@dataclass(frozen=True)
class HRParams:
    """Limit parameter lam in [0, inf] plus the refinement coefficients
    alpha, beta.

    lam = 0 is complete dependence and lam = inf independence, the
    boundary members of the family.  alpha and beta describe how fast
    the array's lam_n approaches lam; they only make sense for an
    interior (finite, positive) lam, so the boundary members reject
    nonzero values instead of ignoring them.
    """

    lam: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not self.lam >= 0.0:
            raise ValueError(f"requires lam in [0, inf], got {self.lam}")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(value):
                raise ValueError(f"requires finite {name}, got {value}")
        if self.lam in (0.0, math.inf) and (self.alpha != 0.0 or self.beta != 0.0):
            raise ValueError(
                f"alpha and beta are unused at lam = {self.lam}; got "
                f"alpha={self.alpha}, beta={self.beta}"
            )

    @classmethod
    def zero(cls) -> "HRParams":
        return cls(0.0)

    @classmethod
    def infinity(cls) -> "HRParams":
        return cls(math.inf)

    @classmethod
    def finite(cls, lam: float, alpha: float = 0.0, beta: float = 0.0) -> "HRParams":
        check_lam(lam)
        return cls(float(lam), float(alpha), float(beta))


def check_lam(lam: float) -> None:
    """The one check of an interior limit parameter: finite lam > 0."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"requires finite lam > 0, got {lam}")


def check_k(k: int) -> int:
    """The one check of a tail-moment index: an integer k in 0..3."""
    k = operator.index(k)
    if k not in (0, 1, 2, 3):
        raise ValueError(f"I_k is defined for k in 0..3, got {k}")
    return k


def _exp_neg(x: float) -> float:
    """e^{-x}, or inf where it overflows (x below about -709.78)."""
    try:
        return math.exp(-x)
    except OverflowError:
        return math.inf


def _weighted(poly: _Real, w1: _Real, w2: _Real = 1.0) -> _Real:
    """poly * w1 * w2 for exponential weights w1, w2, or 0 where a weight
    is 0: far out in x or y the weight underflows while poly overflows,
    and 0 * inf would be NaN."""
    if isinstance(w1, np.ndarray):
        return np.where((w1 == 0.0) | (w2 == 0.0), 0.0, poly * w1 * w2)
    return 0.0 if w1 == 0.0 or w2 == 0.0 else poly * w1 * w2


def gumbel_cdf(x: float) -> float:
    """Lambda(x) = exp(-e^{-x})."""
    return math.exp(-_exp_neg(x))


def _finite_hr(cdf_w: _Real, ex: _Real, cdf_v: _Real, ey: _Real) -> _Real:
    """H_lam from Phi(w), e^{-x}, Phi(2 lam - w) and e^{-y}.

    Once e^{-x} or e^{-y} overflows, H <= min(Lambda(x), Lambda(y))
    is 0 in double precision; 0 * inf would make it NaN instead.  Over
    arrays, exp is still math.exp: numpy's is off by an ulp at times."""
    overflowed = (ex == math.inf) | (ey == math.inf)
    arg = -cdf_w * ex - cdf_v * ey
    if isinstance(arg, np.ndarray):
        return np.where(overflowed, 0.0, [math.exp(a) for a in arg.tolist()])
    return 0.0 if overflowed else math.exp(arg)


def hr_cdf(params: HRParams, x: float, y: float) -> float:
    """Limit distribution H_lam(x, y), boundary members included."""
    lam = params.lam
    if lam == 0.0:
        return gumbel_cdf(min(x, y))
    if lam == math.inf:
        return gumbel_cdf(x) * gumbel_cdf(y)
    half = (y - x) / lam / 2.0
    return _finite_hr(
        std_normal_cdf(lam + half), _exp_neg(x),
        std_normal_cdf(lam - half), _exp_neg(y),
    )


# s(x) and t(x) unchecked: hr_expansion and the grid pass keep their
# infinities for `approximants`; the public s_term and t_term raise.
def _s_term(x: float) -> float:
    return _weighted(0.5 * (x * x + 2.0 * x), _exp_neg(x))


def _t_term(x: float) -> float:
    return _weighted(-0.125 * (((x + 4.0) * x + 8.0) * x + 16.0) * x,
                     _exp_neg(x))


def approximants(
    h: _Real, c1: _Real, c2: _Real, b2: float
) -> tuple[_Real, _Real, _Real]:
    """First-, second- and third-order approximants H, H (1 + c1/b2) and
    H (1 + c1/b2 + c2/b2^2), elementwise over arrays of terms (Python
    floats for float terms); the last two are clamped to [0, 1].

    H = 0 gives zeros: where e^{-x} overflows, H is 0 but c1 and c2 are
    infinite or NaN, and 0 * inf would be NaN.  Elsewhere a NaN
    coefficient (inf - inf inside tau, for alpha or beta beyond about
    1e154) raises ValueError naming the first such point's coefficients:
    no approximant can be formed from them."""
    zero = np.asarray(h == 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = 1.0 + c1 / b2
        second = np.clip(h * value, 0.0, 1.0)
        value = value + c2 / (b2 * b2)
        third = np.clip(h * value, 0.0, 1.0)
    overflowed = ~zero & (np.isnan(second) | np.isnan(third))
    if overflowed.any():
        c1, c2 = (float(np.ravel(c)[overflowed.argmax()]) for c in (c1, c2))
        raise ValueError(f"expansion coefficients c1={c1!r}, c2={c2!r} overflowed")
    out = h, np.where(zero, 0.0, second), np.where(zero, 0.0, third)
    return out if np.ndim(h) else tuple(float(v) for v in out)


class _Point(NamedTuple):
    """What the closed forms at (lam, x, y) share, computed once: the
    half-step h = (y-x)/(2 lam); e^{-v}, s(v), t(v) at v = x, y; Phi(w),
    Phi(2 lam - w), Phi-bar(w) and phi(w) at w = lam + h; lam^2..lam^8."""

    lam: float
    x: _Real
    y: _Real
    half: _Real
    ex: _Real
    sx: _Real
    tx: _Real
    ey: _Real
    sy: _Real
    ty: _Real
    cdf_w: _Real
    cdf_v: _Real
    sf_w: _Real
    pdf_w: _Real
    powers: tuple[float, float, float, float, float, float, float]


def _normal_terms(lam: float, half: float) -> tuple[float, float, float, float]:
    """Phi(w), Phi(2 lam - w), Phi-bar(w), phi(w) at w = lam + half."""
    w = lam + half
    return (std_normal_cdf(w), std_normal_cdf(lam - half),
            std_normal_survival(w), std_normal_pdf(w))


def _powers(lam: float) -> tuple[float, float, float, float, float, float, float]:
    l2 = lam * lam
    l4 = l2 * l2
    l6 = l4 * l2
    return l2, l2 * lam, l4, l4 * lam, l6, l6 * lam, l4 * l4


def _point(lam: float, x: float, y: float) -> _Point:
    half = (y - x) / lam / 2.0
    return _Point(lam, x, y, half, _exp_neg(x), _s_term(x), _t_term(x),
                  _exp_neg(y), _s_term(y), _t_term(y),
                  *_normal_terms(lam, half), _powers(lam))


def _kappa(alpha: float, p: _Point) -> _Real:
    lam, x, y = p.lam, p.x, p.y
    return (
        p.sx * p.cdf_w
        + p.sy * p.cdf_v
        + _weighted(2.0 * alpha - lam * (lam * lam + x + y + 2.0),
                    p.ex, p.pdf_w)
    )


def _tau1(alpha: float, beta: float, p: _Point) -> _Real:
    lam, x, y, h, ex = p.lam, p.x, p.y, p.half, p.ex
    l2, l3, l4, l5, l6, l7, l8 = p.powers
    a2 = alpha * alpha
    c_pb = (
        2.0 * l8
        + 8.0 * l6
        - 4.0 * l6 * x
        + 2.0 * l4 * x * x
        - 4.0 * l4 * x
        - 8.0 * alpha * l3
        + 4.0 * alpha * lam * x
    )
    c_ph = (
        2.0 * beta
        + 9.0 * alpha * l2
        - 23.0 / 4.0 * l5
        - 3.0 / 8.0 * l3 * x * y
        - alpha * l2 * x
        + alpha / 4.0 * (y - x) * (3.0 * y + x)
        # alpha^2 (x-y)^2 / (4 lam^3): lam^3 underflows below lam ~ 1e-108
        - a2 * h * h / lam
        - alpha * l2 * y
        - 7.0 / 4.0 * l7
        + 7.0 / 2.0 * l5 * x
        - l3 * x * x / 16.0
        - alpha * l4
        + a2 * lam
        + 3.0 / 2.0 * l5 * y
        - 9.0 / 16.0 * l3 * y * y
    )
    return _weighted(c_pb, ex, p.sf_w) + _weighted(c_ph, ex, p.pdf_w)


def _tau2(alpha: float, p: _Point) -> _Real:
    lam, x, y, ex = p.lam, p.x, p.y, p.ex
    l2, l3, l4, l5, l6, l7, l8 = p.powers
    c_pb = (
        2.0 * l4
        - 4.0 * alpha * lam * x
        - 2.0 * l2 * x
        + 8.0 * l6 * x
        - 5.0 * l4 * x * x
        + 10.0 * l4 * x
        + l2 * x * x * x
        + 8.0 * alpha * l3
        - 4.0 * l8
        - 16.0 * l6
    )
    c_ph = (
        2.0 * alpha
        + 4.0 * l7
        + 12.0 * l5
        - 3.0 * l3
        - 6.0 * l5 * x
        + 2.0 * l3 * x * x
        - alpha * y * y
        + 2.0 * l3 * x * y
        - 2.0 * l5 * y
        + 3.0 / 2.0 * l3 * y * y
        - 8.0 * alpha * l2
    )
    return _weighted(c_pb, ex, p.sf_w) + _weighted(c_ph, ex, p.pdf_w)


def _tau3(p: _Point) -> _Real:
    lam, x, y, ex = p.lam, p.x, p.y, p.ex
    l2, l3, l4, l5, l6, l7, l8 = p.powers
    # -t(y) Phi(lam + (x-y)/(2 lam)): the boundary term at z = y
    lead = -p.ty * p.cdf_v
    c_pb = (
        4.0 * l6 * x
        - 3.0 * l4 * x * x
        + l2 * x * x * x
        - 2.0 * l8
        - 8.0 * l6
        - x * x * x * x / 8.0
        - 2.0 * l2 * x
        - x * x * x / 2.0
        + 2.0 * l4
        + 6.0 * l4 * x
        - x * x
        - 2.0 * x
    )
    c_ph = (
        2.0 * l7
        - lam * x * x * x / 4.0
        - l5 * y
        + l3 * y * y / 2.0
        + l3 * x * y
        - 3.0 * l5 * x
        + 3.0 / 2.0 * l3 * x * x
        - lam * y * y * y / 4.0
        - lam * y * y * x / 4.0
        - lam * y * x * x / 4.0
        - l3 * y
        - lam * y * y
        - lam * x * y
        - l3 * x
        - lam * x * x
        - 4.0 * l3
        + 6.0 * l5
        - 2.0 * lam * x
        - 2.0 * lam * y
        - 4.0 * lam
    )
    return lead + _weighted(c_pb, ex, p.sf_w) + _weighted(c_ph, ex, p.pdf_w)


def _tau(alpha: float, beta: float, p: _Point) -> _Real:
    return p.tx + _tau1(alpha, beta, p) + _tau2(alpha, p) - _tau3(p)


def _terms(params: HRParams, p: _Point) -> tuple[_Real, _Real, _Real]:
    """(H, c1, c2) from the shared pieces of an interior lam."""
    c1 = _kappa(params.alpha, p)
    c2 = _tau(params.alpha, params.beta, p) + 0.5 * c1 * c1
    return _finite_hr(p.cdf_w, p.ex, p.cdf_v, p.ey), c1, c2


def _checked_point(lam: float, x: float, y: float) -> _Point:
    check_lam(lam)
    return _point(lam, x, y)


def _finite(closed_form: Callable[..., float]) -> Callable[..., float]:
    """closed_form, raising ValueError where its value is not finite.

    Where e^{-x} nears the top of the double range, or alpha or beta
    pass about 1e154, a polynomial times its weight overflows to inf, or
    inf - inf gives NaN, and the coefficient cannot be formed.  A NaN
    argument is named as such.  The kernels the grid pass shares keep
    those values: `approximants` reads them there."""

    @functools.wraps(closed_form)
    def checked(*args, **kwargs):
        value = closed_form(*args, **kwargs)
        if not math.isfinite(value):
            call = ", ".join([*map(repr, args),
                              *(f"{k}={v!r}" for k, v in kwargs.items())])
            name = f"{closed_form.__name__}({call})"
            if any(math.isnan(v) for v in (*args, *kwargs.values())):
                raise ValueError(f"{name} has a NaN argument")
            raise ValueError(f"{name} overflowed to {value!r}")
        return value

    return checked


@_finite
def s_term(x: float) -> float:
    """s(x) = (x^2 + 2x) e^{-x} / 2, the second-order univariate piece."""
    return _s_term(x)


@_finite
def t_term(x: float) -> float:
    """t(x) = -(x^4 + 4x^3 + 8x^2 + 16x) e^{-x} / 8."""
    return _t_term(x)


@_finite
def kappa(alpha: float, lam: float, x: float, y: float) -> float:
    """Second-order coefficient of the bivariate expansion."""
    return _kappa(alpha, _checked_point(lam, x, y))


@_finite
def kappa1(alpha: float, lam: float, x: float, y: float) -> float:
    """Second-order coefficient of the joint-tail piece alone.

    kappa splits as s(x)Phi + s(y)Phi + kappa1-like remainder; kappa1 is
    the b_n^2-scaled deviation of the joint exceedance from its limit.
    """
    p = _checked_point(lam, x, y)
    lam2 = lam * lam
    return (_weighted(2.0 * lam2 * lam2 - 2.0 * lam2 * x, p.ex, p.sf_w)
            + _weighted(2.0 * alpha - 3.0 * lam2 * lam, p.ex, p.pdf_w))


@_finite
def tau1(alpha: float, beta: float, lam: float, x: float, y: float) -> float:
    """Fourth-order piece from the correlation refinement (alpha, beta)."""
    return _tau1(alpha, beta, _checked_point(lam, x, y))


@_finite
def tau2(alpha: float, lam: float, x: float, y: float) -> float:
    """Fourth-order cross piece pairing the alpha refinement with x."""
    return _tau2(alpha, _checked_point(lam, x, y))


@_finite
def tau3(lam: float, x: float, y: float) -> float:
    """Fourth-order piece equal to int_y^inf Phi(lam+(x-z)/2lam) e^{-z}
    (z^4/8 - z^2/2 - 2) dz in closed form."""
    return _tau3(_checked_point(lam, x, y))


@_finite
def tau(alpha: float, beta: float, lam: float, x: float, y: float) -> float:
    """Full fourth-order coefficient: t(x) + tau1 + tau2 - tau3."""
    return _tau(alpha, beta, _checked_point(lam, x, y))


@_finite
def I_closed(k: int, lam: float, x: float, y: float) -> float:
    """Closed form of I_k = int_y^inf phi(lam+(x-z)/2lam) e^{-z} z^k dz."""
    k = check_k(k)
    p = _checked_point(lam, x, y)
    ex, pb, ph = p.ex, p.sf_w, p.pdf_w
    l2, l3, l4, l5, l6, l7, _ = p.powers
    if k == 0:
        return _weighted(2.0 * lam, ex, pb)
    if k == 1:
        c_pb, c_ph = 2.0 * lam * x - 4.0 * l3, 4.0 * l2
    elif k == 2:
        c_pb = 8.0 * l5 - 8.0 * l3 * x + 8.0 * l3 + 2.0 * lam * x * x
        c_ph = -8.0 * l4 + 4.0 * l2 * x + 4.0 * l2 * y
    else:
        c_pb = (24.0 * l5 * x - 12.0 * l3 * x * x + 24.0 * l3 * x
                + 2.0 * lam * x * x * x - 16.0 * l7 - 48.0 * l5)
        c_ph = (16.0 * l6 - 16.0 * l4 * x - 8.0 * l4 * y + 32.0 * l4
                + 4.0 * l2 * x * x + 4.0 * l2 * x * y + 4.0 * l2 * y * y)
    return _weighted(c_pb, ex, pb) + _weighted(c_ph, ex, ph)


def hr_expansion(params: HRParams, x: float, y: float) -> tuple[float, float, float]:
    """(H, c1, c2) at (x, y), with c1 = kappa and c2 = tau + kappa^2/2:
    the n-free terms of H (1 + c1/b_n^2 + c2/b_n^4).  Every quantity the
    closed forms share is evaluated once."""
    lam = params.lam
    if lam == 0.0:
        # the univariate terms s and t + s^2/2 at min(x, y)
        v = min(x, y)
        s = _s_term(v)
        return hr_cdf(params, x, y), s, _t_term(v) + 0.5 * s * s
    if lam == math.inf:
        ssum = _s_term(x) + _s_term(y)
        return (hr_cdf(params, x, y), ssum,
                _t_term(x) + _t_term(y) + 0.5 * ssum * ssum)
    return _terms(params, _point(lam, x, y))


def _per_distinct(fn: Callable, values: np.ndarray) -> list[np.ndarray]:
    """fn's outputs at each element of a 1-d array, one array per output,
    calling fn once per distinct value (0.0 = -0.0: c2 drops t's sign)."""
    keys, at = np.unique(values, return_inverse=True)
    return [np.array(column)[at] for column in zip(*map(fn, keys.tolist()))]


def hr_expansion_grid(
    params: HRParams, points: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`hr_expansion` at every (x, y) of points, as arrays H, c1, c2 of the
    doubles it gives point by point.  e^{-v}, s(v) and t(v) are computed
    once per distinct grid value, the normal functions once per distinct
    (y-x)/(2 lam), and each closed form once over the arrays."""
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    lam = params.lam
    if lam in (0.0, math.inf) or not len(xy):
        terms = [hr_expansion(params, x, y) for x, y in xy.tolist()]
        return tuple(np.array(terms).reshape(-1, 3).T)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = xy.T
        by_value = _per_distinct(
            lambda v: (_exp_neg(v), _s_term(v), _t_term(v)), xy.ravel())
        (ex, ey), (sx, sy), (tx, ty) = (c.reshape(-1, 2).T for c in by_value)
        half = (y - x) / lam / 2.0
        normal = _per_distinct(lambda v: _normal_terms(lam, v), half)
        p = _Point(lam, x, y, half, ex, sx, tx, ey, sy, ty, *normal,
                   _powers(lam))
        return _terms(params, p)


def hr_approx(
    n: int, params: HRParams, x: float, y: float, order: ApproxOrder
) -> float:
    """Ordered approximant H (1 + c1/b_n^2 [+ c2/b_n^4]) of F^n(u_n(x), u_n(y))."""
    n = check_n(n)
    if order is ApproxOrder.FIRST:
        return hr_cdf(params, x, y)
    b2 = solve_bn(n).b_squared
    return approximants(*hr_expansion(params, x, y), b2)[order.value - 1]


def univariate_gumbel_approx(n: int, x: float, order: ApproxOrder) -> float:
    """Expansion of Phi^n(u_n(x)) about Lambda(x), truncated per order:
    the complete-dependence member (lam = 0) on the diagonal x = y."""
    return hr_approx(n, HRParams.zero(), x, x, order)
