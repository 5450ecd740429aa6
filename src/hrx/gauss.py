"""High-accuracy univariate and bivariate standard normal distributions.

Conventions used throughout the package:

    pdf(x)       = (2*pi)^(-1/2) exp(-x^2/2)
    cdf(x)       = P(Z <= x)
    survival(x)  = P(Z > x), computed without the cancelling 1 - cdf(x)

The survival tail matters here: norming thresholds push x into the 5-8
range where scaled residuals probe ~1e-9 structure, so the tail is held
to ~1e-13 relative accuracy rather than the ~1e-8 a complement would
give.  Two ingredients make that work, one formula per function:

  * phi(x) is exp(-x^2/2) evaluated with a split square, exp(-hi^2/2) *
    exp(-(x^2 - hi^2)/2), so the argument rounding of x^2/2 (worth
    ~x^2 * ulp in relative terms) never lands inside the exponential;
  * cdf(x) is 0.5 erfc(-x/sqrt(2)), with the rounding defect of the
    argument -x/sqrt(2) corrected to first order, and survival(x) is
    cdf(-x).

Beyond |t| = 40 every normal probability is exactly 0 or 1 in double
precision, so each function meets infinite and huge arguments with one
range guard rather than a case per infinity.

The bivariate survival is a port of the classic Gauss-Legendre
evaluation of the single-integral correlation representation (graded
6/12/20-point rules, with a dedicated branch for |rho| > 0.925); its
absolute error is below 5e-16.  The bivariate cdf is the survival at
(-h, -k), since (-X, -Y) has the law of (X, Y).  The survival adds a
conditioning-integral branch for deep joint tails (3 <= min(h, k) and
max(h, k) < 40), where absolute accuracy is not enough.  One fixed rule
serves the whole branch: a 64-node Gauss-Laguerre rule, certified by
agreeing with a 48-node rule to 1e-14 relative (or by both values lying
below the normal range).  It runs either directly, conditioned on the
larger threshold, or, where rho -> 1 gives that integrand an edge too
sharp for the nodes, on the two halves of the event split at
X - Y = h - k.  A pair that neither pass certifies raises
QuadratureConvergenceError rather than return an unconverged value.
Against 60-digit references it holds relative 1e-13 for h, k in [3, 37]
and rho in [-0.98, 1) wherever the value is a normal double.

`bivariate_survival_row` evaluates every pair of one rho at once:
joint-tail pairs in `joint_tail_survival`'s numpy passes, pairs that a
closed form settles (a threshold saturated at +-40, or rho = +-1) by
that form, and the rest in one numpy pass of the Gauss-Legendre or the
Genz branch, whose node terms depend on rho alone (at rho = +-0, the
node sum is +-0 and the value survival(h) survival(k)).  Both passes use
only elementwise IEEE operations and per-pair sums in a fixed order, so
each value is the same double whether its pair comes alone or in a row:
`bivariate_normal_survival` is the one-pair row.  The survival is
also bitwise symmetric in (h, k) for every rho in (-1, 1), in every
branch: the Genz branch for rho < -0.925 evaluates each pair in
ascending order, the one order that keeps relative accuracy.  At
rho = -1 it is the difference survival(h) - survival(-k), which is not.
So the row evaluates each distinct pair once, (h, k) and (k, h) being
one pair for rho > -1 and two at rho = -1; no caller orders or
deduplicates pairs itself.

The module needs numpy alone.  The Gauss-Legendre and Genz pass takes
its normal functions from math.erfc, and the tail pass takes the scaled
complement erfcx(z) = exp(z^2) erfc(z) from `_erfcx`: r q(t) with
r = 3/(z + 3), t = 1 - 2r = (z - 3)/(z + 3) and q a frozen degree-24
polynomial, evaluated by Horner's rule over the whole half-line z >= 0.
Against 40-digit mpmath it is within 1e-15 relative on [0, inf).
`std_normal_pdf_array` and `std_normal_cdf_array` give phi and Phi on
the node arrays of the quadrature integrands, Phi from `_erfcx` by
reflection.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .quadrature import QuadratureConvergenceError, QuadratureResult

__all__ = [
    "std_normal_pdf",
    "std_normal_cdf",
    "std_normal_survival",
    "std_normal_pdf_array",
    "std_normal_cdf_array",
    "bivariate_normal_cdf",
    "bivariate_normal_survival",
    "check_rho",
    "is_joint_tail",
    "joint_tail_survival",
    "bivariate_survival_row",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 0.5641895835477563
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TWOPI = 2.0 * math.pi

# Beyond |t| = 40 every normal probability is exactly 0 or 1 in double
# precision: Phi(-40) ~ 4e-350 lies below the smallest subnormal.
_SATURATED = 40.0

# Veltkamp splitter for 53-bit doubles: 2^27 + 1.
_SPLIT = 134217729.0

# Two-part 1/sqrt(2): HI + LO carries ~106 bits of the constant, so the
# erfc argument x/sqrt(2) can be formed with its rounding defect known.
_SQRT1_2_HI = 0.7071067811865476
_SQRT1_2_LO = -4.833646656726457e-17


def _two_prod(x: float, y: float) -> tuple[float, float]:
    """x*y as p + e exactly (Dekker's product on Veltkamp halves)."""
    p = x * y
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLIT * y
    yh = t - (t - y)
    yl = y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _two_diff(x: float, y: float) -> tuple[float, float]:
    """x - y as d + e exactly (Knuth's two-sum)."""
    d = x - y
    back = d - x
    return d, (x - (d - back)) - (y + back)


def _exp_neg_half_square(x: float) -> float:
    """exp(-x^2/2) with the square carried at twice working precision."""
    t = _SPLIT * x
    hi = t - (t - x)
    lo = x - hi
    # hi has <= 27 significant bits, so hi*hi is exact; the residual
    # cross terms stay small enough that exp() sees them linearly.
    return math.exp(-0.5 * hi * hi) * math.exp(-0.5 * lo * (hi + hi + lo))


def _half_erfc_scaled(v: float) -> float:
    """0.5 erfc(v/sqrt(2)) with the argument defect corrected.

    erfc amplifies a relative perturbation of its argument a by ~2a^2,
    so the rounding of a alone would cost up to 2a^2 ulp, over 1e-13
    near v = 37; forming the defect delta exactly and applying
    erfc'(a) = -(2/sqrt(pi)) e^{-a^2} restores ~1 ulp accuracy.
    """
    a, residual = _two_prod(v, _SQRT1_2_HI)
    delta = residual + v * _SQRT1_2_LO
    return 0.5 * math.erfc(a) - delta * _INV_SQRT_PI * math.exp(-a * a)


def std_normal_pdf(x: float) -> float:
    """Standard normal density phi(x), from the split square."""
    # exp(-x^2/2) underflows to 0 here; past |x| ~ 2.6e5 the split's
    # cross term alone would overflow exp().
    if abs(x) >= _SATURATED:
        return 0.0
    return _INV_SQRT_2PI * _exp_neg_half_square(x)


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    if abs(x) >= _SATURATED:
        return 0.0 if x < 0.0 else 1.0
    return _half_erfc_scaled(-x)


def std_normal_survival(x: float) -> float:
    """Tail probability P(Z > x) without forming 1 - cdf: Phi(-x)."""
    return std_normal_cdf(-x)


def _exp_neg_half_square_array(x: np.ndarray) -> np.ndarray:
    """`_exp_neg_half_square` elementwise on numpy's exp, and exactly 0
    where |x| >= 40 (below every normal probability), where exp is not
    called; a NaN stays NaN."""
    out = np.zeros(x.shape)
    live = ~(np.abs(x) >= _SATURATED)
    v = x[live]
    t = _SPLIT * v
    hi = t - (t - v)
    lo = v - hi
    out[live] = np.exp(-0.5 * hi * hi) * np.exp(-0.5 * lo * (hi + hi + lo))
    return out


def std_normal_pdf_array(x: np.ndarray) -> np.ndarray:
    """phi elementwise, for the quadrature integrands: the square is
    carried exactly at every |x| < 40, and beyond that the value is 0."""
    return _INV_SQRT_2PI * _exp_neg_half_square_array(x)


def std_normal_cdf_array(x: np.ndarray) -> np.ndarray:
    """Phi elementwise, for the quadrature integrands, from the lower
    tail Phi(-|x|) = erfcx(|x|/sqrt(2)) exp(-x^2/2) / 2: that tail below
    0 and one minus it above, 0 and 1 beyond |x| = 40."""
    tail = 0.5 * _erfcx(np.abs(x) * _SQRT1_2_HI) * _exp_neg_half_square_array(x)
    return np.where(x < 0.0, tail, 1.0 - tail)


# Gauss-Legendre nodes/weights for [-1, 1], halved rules: the 3-, 6- and
# 10-point tables cover |rho| < 0.3, < 0.75 and the rest.
_GL_NODES = (
    (-0.9324695142031522, -0.6612093864662647, -0.2386191860831970),
    (
        -0.9815606342467191,
        -0.9041172563704750,
        -0.7699026741943050,
        -0.5873179542866171,
        -0.3678314989981802,
        -0.1252334085114692,
    ),
    (
        -0.9931285991850949,
        -0.9639719272779138,
        -0.9122344282513259,
        -0.8391169718222188,
        -0.7463319064601508,
        -0.6360536807265150,
        -0.5108670019508271,
        -0.3737060887154196,
        -0.2277858511416451,
        -0.07652652113349733,
    ),
)
_GL_WEIGHTS = (
    (0.1713244923791705, 0.3607615730481384, 0.4679139345726904),
    (
        0.04717533638651177,
        0.1069393259953183,
        0.1600783285433464,
        0.2031674267230659,
        0.2334925365383547,
        0.2491470458134029,
    ),
    (
        0.01761400713915212,
        0.04060142980038694,
        0.06267204833410906,
        0.08327674157670475,
        0.1019301198172404,
        0.1181945319615184,
        0.1316886384491766,
        0.1420961093183821,
        0.1491729864726037,
        0.1527533871307259,
    ),
)


def _cumulative_sum(columns: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right: the order of the scalar
    rule's running sum, whatever the number of rows."""
    return np.cumsum(columns, axis=1)[:, -1]


def _quadrature_row(
    pairs: Sequence[tuple[float, float]], r: float
) -> list[float]:
    """P(X > h, Y > k) for pairs with h, k in (-40, 40), |r| < 1.

    Gauss-Legendre quadrature on the correlation-parameter representation
    for |r| <= 0.925; for larger |r| the complement is expanded about the
    perfectly-dependent case and the remainder integrated (Genz's
    branch).  The node terms depend on r alone and are formed once, in
    Python floats; the pairs meet them in one (pairs x nodes) numpy pass,
    each normal function is evaluated once per distinct argument, and the
    node sum runs in the scalar rule's order, so no value depends on
    which other pairs share the pass.
    """
    ng = 0 if abs(r) < 0.3 else 1 if abs(r) < 0.75 else 2
    nodes, weights = _GL_NODES[ng], _GL_WEIGHTS[ng]
    h, k = (np.array(v, dtype=float) for v in zip(*pairs))
    hk = h * k
    if abs(r) <= 0.925:
        asr = math.asin(r)
        # the two nodes of each weight, interleaved in summation order
        sn = np.array([math.sin(asr * t / 2.0) for xi in nodes
                       for t in (xi + 1.0, 1.0 - xi)])
        hs = (h * h + k * k) / 2.0
        terms = np.repeat(weights, 2) * np.exp(
            (sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn))
        bvn = _cumulative_sum(terms) * asr / (2.0 * _TWOPI)
        hl, kl = h.tolist(), k.tolist()
        cdf = {t: std_normal_cdf(-t) for t in {*hl, *kl}}
        bvn += [cdf[a] * cdf[b] for a, b in zip(hl, kl)]
        return np.clip(bvn, 0.0, 1.0).tolist()

    if r < 0.0:
        # ascending order: with h > k the expansion cancels away every
        # digit of a small result
        h, k = np.minimum(h, k), -np.maximum(h, k)
        hk = -hk
    a2 = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    bvn = a * np.exp(-(bs / a2 + hk) / 2.0) * (
        1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0
    )
    # Genz's cutoff: the term is negligible below hk = -160, and there
    # exp(-hk/2) would overflow from hk = -1420 on
    live = np.flatnonzero(hk > -160.0)
    if live.size:
        b = np.sqrt(bs[live])
        bl = b.tolist()
        cdf_b = {v: std_normal_cdf(-v / a) for v in set(bl)}
        bsl, cl, dl = bs[live], c[live], d[live]
        bvn[live] -= (
            np.exp(-hk[live] / 2.0)
            * _SQRT_2PI
            * np.array([cdf_b[v] for v in bl])
            * b
            * (1.0 - cl * bsl * (1.0 - dl * bsl / 5.0) / 3.0)
        )
    a /= 2.0
    xs1 = np.array([(a * (xi + 1.0)) ** 2 for xi in nodes])
    xs2 = np.array([a2 * (1.0 - xi) ** 2 / 4.0 for xi in nodes])
    rs1 = np.sqrt(1.0 - xs1)
    rs2 = np.sqrt(1.0 - xs2)
    aw = a * np.array(weights)
    bs, hk, c, d = bs[:, None], hk[:, None], c[:, None], d[:, None]
    columns = np.empty((bvn.size, 1 + 2 * len(nodes)))
    columns[:, 0] = bvn
    columns[:, 1::2] = aw * (
        np.exp(-bs / (2.0 * xs1) - hk / (1.0 + rs1)) / rs1
        - np.exp(-(bs / xs1 + hk) / 2.0) * (1.0 + c * xs1 * (1.0 + d * xs1))
    )
    columns[:, 2::2] = (
        aw
        * np.exp(-(bs / xs2 + hk) / 2.0)
        * (np.exp(-hk * (1.0 - rs2) / (2.0 * (1.0 + rs2))) / rs2
           - (1.0 + c * xs2 * (1.0 + d * xs2)))
    )
    bvn = -_cumulative_sum(columns) / _TWOPI
    if r > 0.0:
        top = np.maximum(h, k).tolist()
        sf = {t: std_normal_survival(t) for t in set(top)}
        return np.clip(bvn + [sf[t] for t in top], 0.0, 1.0).tolist()
    hl, kl = h.tolist(), k.tolist()
    cdf = {t: std_normal_cdf(t) for t in {*hl, *kl}}
    gap = [cdf[b] - cdf[a] if b > a else 0.0 for a, b in zip(hl, kl)]
    return np.clip(gap - bvn, 0.0, 1.0).tolist()


def check_rho(rho: float) -> None:
    """The one check of a correlation: rho in [-1, 1] (NaN fails)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")


def bivariate_normal_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal with correlation
    rho: the survival at (-h, -k), since (-X, -Y) has the same law."""
    return bivariate_normal_survival(-h, -k, rho)


# Gauss-Laguerre rules for int_0^inf e^{-v} f(v) dv with 64 and 48 nodes,
# frozen from scipy's roots_laguerre: numpy's laggauss tables are
# about ten times less accurate at these sizes, and computing the roots
# at import would cost set-up time and memory.
_LAG64_NODES = (
    0.02241587414670528, 0.1181225120967705, 0.2903657440180365,
    0.539286221227979, 0.865037004648114, 1.2678140407752414,
    1.7478596260594363, 2.3054637393075086, 2.9409651567252517,
    3.6547526502072905, 4.447266343313094, 5.31899925449639,
    6.270499046923654, 7.302370002587396, 8.415275239483025,
    9.609939192796109, 10.887150383886372, 12.247764504244302,
    13.692707845547506, 15.22298111152473, 16.83966365264874,
    18.54391817085919, 20.336995948730234, 22.220242665950877,
    24.195104875933254, 26.263137227118484, 28.426010527501028,
    30.685520767525972, 33.04359923643783, 35.50232389114121,
    38.06393216564647, 40.73083544445863, 43.50563546642153,
    46.391142978616195, 49.39039902562469, 52.5066993413463,
    55.74362241327838, 59.10506191901711, 62.59526440015139,
    66.21887325124756, 69.98098037714682, 73.88718723248296,
    77.94367743446313, 82.1573037783193, 86.53569334945652,
    91.08737561313309, 95.82194001552072, 100.75023196951398,
    105.88459946879995, 111.23920752443958, 116.8304450513065,
    122.67746026853858, 128.80287876923768, 135.23378794952583,
    142.00312148993152, 149.15166590004938, 156.73107513267115,
    164.8086026551505, 173.47494683642427, 182.85820469143147,
    193.15113603707292, 204.67202848505946, 218.03185193532852,
    234.80957917132616,
)
_LAG64_WEIGHTS = (
    0.05625284233902819, 0.11902398731242744, 0.15749640386214403,
    0.16754705041577292, 0.1533528557792372, 0.12422105360933024,
    0.09034230098648552, 0.05947775576835513, 0.03562751890403604,
    0.01948041043116638, 0.009743594899382054, 0.0044643103641662735,
    0.0018753595813231253, 0.0007226469815750097, 0.00025548753283349726,
    8.287143534397052e-05, 2.465686396788564e-05, 6.726713878829696e-06,
    1.6817853699640996e-06, 3.8508129815466965e-07, 8.068728040990615e-08,
    1.5457237067576967e-08, 2.7044801476174967e-09, 4.316775475427217e-10,
    6.27775254176158e-11, 8.306317376288957e-12, 9.98403178722015e-13,
    1.0883538871166752e-13, 1.0740174034415791e-14, 9.575737231574517e-16,
    7.697028023648768e-17, 5.5648811374541166e-18, 3.609756409010507e-19,
    2.0950953695489746e-20, 1.0847933010975435e-21, 4.994699486363855e-23,
    2.0378369745989135e-24, 7.339537564278521e-26, 2.3237830821987388e-27,
    6.438234706908896e-29, 1.553121095788202e-30, 3.244250092019466e-32,
    5.8323862678359235e-34, 8.963254833103018e-36, 1.168703989550733e-37,
    1.28205598435991e-39, 1.1720949374050327e-41, 8.835339672329285e-44,
    5.424955590305382e-46, 2.6755426666792817e-48, 1.0429170314113705e-50,
    3.152902351957533e-53, 7.229541910648038e-56, 1.224235301229901e-58,
    1.4821685049019626e-61, 1.2325193488144338e-64, 6.69149900457101e-68,
    2.2204659418503774e-71, 4.1209460947382605e-75, 3.774399061896589e-79,
    1.414115052917724e-83, 1.5918330640415102e-88, 2.9894843488610483e-94,
    2.089063508436363e-101,
)
_LAG48_NODES = (
    0.029811235829960116, 0.1571079906178763, 0.3862650375764556,
    0.7175746941169723, 1.1513938340264347, 1.6881858234190472,
    2.328527006653229, 3.073110861652639, 3.9227524130464806,
    4.878393355921346, 5.941108054624559, 7.112110535890744,
    8.392762599091224, 9.784583184687323, 11.289259168009528,
    12.908657778285532, 14.644840883209707, 16.500081428964585,
    18.476882386874113, 20.577998634022208, 22.806462290521374,
    25.165612156439106, 27.659128044480532, 30.291071001008568,
    33.065930662498744, 35.988681327478936, 39.06484876419777,
    42.300590362903094, 45.70279203851147, 49.27918638283679,
    53.03849808781666, 56.99062481480448, 61.14686478614023,
    65.52020692901861, 70.12570623611319, 74.98097751891132,
    80.10685735032439, 85.52831111603416, 91.27570799366809,
    97.38666771358153, 103.90883335717626, 110.90422088497627,
    118.45642504628363, 126.68342576888583, 135.7625895778643,
    145.98643270946346, 157.915612022978, 172.99632814856324,
)
_LAG48_WEIGHTS = (
    0.0742620058280286, 0.15227194980935374, 0.1904090882639105,
    0.186633059484805, 0.15342420015757793, 0.10877969280748967,
    0.06746073860921936, 0.03688119411582121, 0.01785684426915667,
    0.007677616514497527, 0.0029357859037394585, 0.0009990655378158807,
    0.0003025980169922558, 8.153871180355359e-05, 1.9531587157280668e-05,
    4.154182945052143e-06, 7.833700380277585e-07, 1.3073947749205973e-07,
    1.9270714080170156e-08, 2.5026389371262945e-09, 2.855785508771612e-10,
    2.854622412059143e-11, 2.4910106849372316e-12, 1.8903366069715402e-13,
    1.2421626859491467e-14, 7.034231520212635e-16, 3.41454914859178e-17,
    1.412315414895773e-18, 4.944218008097539e-20, 1.4539524813679322e-21,
    3.5610683650040436e-23, 7.194055996494724e-25, 1.1855372283505853e-26,
    1.573491357075583e-28, 1.657285440919459e-30, 1.361434162716305e-32,
    8.546155813963491e-35, 4.000090532481309e-37, 1.3550199911030598e-39,
    3.201636795354865e-42, 5.035869166060801e-45, 4.962487540702896e-48,
    2.823510716120364e-51, 8.268446069503922e-55, 1.0490648478211722e-58,
    4.346574422738575e-63, 3.434736438396534e-68, 1.3190660883980075e-74,
)


class _Rules(NamedTuple):
    """Both rules in one table: the 64-node rule's nodes first, then the
    48-node rule's, and row i of `weights` picks out rule i."""

    nodes: np.ndarray
    neg_half_sq: np.ndarray
    weights: np.ndarray


def _rules(k64: int, k48: int) -> _Rules:
    """The first k64 and k48 nodes of the two rules."""
    nodes = np.array(_LAG64_NODES[:k64] + _LAG48_NODES[:k48])
    weights = np.zeros((2, nodes.size))
    weights[0, :k64] = _LAG64_WEIGHTS[:k64]
    weights[1, k64:] = _LAG48_WEIGHTS[:k48]
    return _Rules(nodes, -0.5 * nodes * nodes, weights)


_LAG_FULL = _rules(64, 48)
# The nodes of each rule a pass evaluates first.  A multiple of 8, so
# numpy's 8-way unrolled row sum puts every kept term in the same partial
# sum, in the same order, as over the full rules.
_CUT = 32
_LAG_CUT = _rules(_CUT, _CUT)
# For each rule, the first node dropped and the weight of all dropped
# nodes
_CUT_NODE = np.array([_LAG64_NODES[_CUT], _LAG48_NODES[_CUT]])
_CUT_WEIGHT = np.array([math.fsum(_LAG64_WEIGHTS[_CUT:]),
                        math.fsum(_LAG48_WEIGHTS[_CUT:])])
# A pair keeps the cut where the dropped terms of both rules sum to at
# most this share of its kept 64-node sum.
_CUT_SHARE = 2.0 ** -60

# The two rules must agree to this relative tolerance, or both give a
# value below the smallest normal double, before the 64-node value is
# returned.
_TAIL_CERTIFICATE_RTOL = 1e-14

# For rho > 0 the survival factor of the direct pass rises to 1 across
# an edge s*a/rho wide in the Laguerre variable.  An edge narrower than
# the first node (0.0224) can slip between the nodes of both rules, and
# then they agree on a wrong value.  Pairs whose edge is narrower than
# this take the diagonal pass.
_EDGE_WIDTH = 0.1

# erfcx(z) = exp(z^2) erfc(z) for z >= 0 as r q(1 - 2r), r = 3/(z + 3):
# 1 - 2r is t = (z - 3)/(z + 3), which maps [0, inf] onto [-1, 1], and
# q(t) = erfcx(z) (z + 3)/3 is smooth there, from erfcx(0) = 1 at t = -1
# to 1/(3 sqrt(pi)) at t = 1.  q is the degree-24 polynomial that
# interpolates it at the 25 Chebyshev points of the first kind, highest
# degree first; tests/make_erfcx_coefficients.py regenerates it.
_ERFCX_POLY = (
    6.034271894545842e-11, 2.700889541334419e-10, -3.598345759503592e-10,
    -2.8963907655785435e-09, -2.3845837151650604e-10, 1.7056980515505438e-08,
    1.521823345741905e-08, -7.794578660145061e-08, -1.3585628142274327e-07,
    3.329341506078094e-07, 9.217159972005492e-07, -1.5830066026471314e-06,
    -5.823491992514211e-06, 1.0132682786548133e-05, 3.5853822251279296e-05,
    -9.225927107779572e-05, -0.00018276989641738932, 0.0010113539986468072,
    -0.0004041388757936664, -0.008942411541347221, 0.039842587095765526,
    -0.10348908730019453, 0.19674278570136725, -0.29446481772329447,
    0.3580023023627799,
)


def _erfcx(z: np.ndarray) -> np.ndarray:
    """exp(z^2) erfc(z) elementwise for z >= 0, within 1e-15 relative.

    One polynomial covers the whole half-line, so there is no mask or
    branch: each element is the same double whatever array it is in.
    """
    # in place: 5% faster than a new array per step at the 10k-element
    # arrays of a tail pass
    r = z + 3.0
    np.divide(3.0, r, out=r)
    t = r * -2.0
    t += 1.0
    acc = _ERFCX_POLY[0] * t
    for c in _ERFCX_POLY[1:-1]:
        acc += c
        acc *= t
    acc += _ERFCX_POLY[-1]
    acc *= r
    return acc


def _half_square_ratio(c: float, rho: float, a: float) -> tuple[float, float]:
    """(c - rho*a)^2 / (2 (1 - rho^2)) as an unevaluated sum hi + lo.

    This is x0^2/2 for the survival argument x0 = (c - rho*a)/s of the
    joint tail.  Rounding x0 to a double would cost ~x0^2 ulp in
    exp(-x0^2/2), over 1e-13 once x0 passes 30; carried to twice
    working precision it costs about one ulp.
    """
    p, p_err = _two_prod(rho, a)
    d, d_err = _two_diff(c, p)
    d_err -= p_err
    dd, dd_err = _two_prod(d, d)
    dd_err += 2.0 * d * d_err
    r2, r2_err = _two_prod(rho, rho)
    s2, s2_err = _two_diff(1.0, r2)
    s2_err -= r2_err
    hi = dd / (2.0 * s2)
    m, m_err = _two_prod(hi, 2.0 * s2)
    lo = (((dd - m) - m_err) + dd_err - hi * 2.0 * s2_err) / (2.0 * s2)
    return hi, lo


def is_joint_tail(h: float, k: float, rho: float) -> bool:
    """Whether `bivariate_normal_survival(h, k, rho)` takes the
    Gauss-Laguerre branch: both thresholds in [3, 40), and rho strictly
    inside (-1, 1) and nonzero."""
    return (min(h, k) >= 3.0 and max(h, k) < _SATURATED
            and rho not in (0.0, 1.0, -1.0))


def _laguerre_pass(
    a: np.ndarray, c: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """The 64- and 48-node values of P(X > a, Y > c) at correlation rho,
    for a >= 3 and any real c, conditioned on the variable at a.

    P(X > a, Y > c) = int_a^inf survival((c - rho*z)/s) phi(z) dz with
    s = sqrt(1 - rho^2).  Substituting z = a + v/lam gives

        P = phi(a)/lam * int_0^inf e^{-v} g(v) dv,
        g(v) = exp(v (1 - a/lam) - v^2/(2 lam^2))
               * survival(x0 - rho*v/(s*lam)),   x0 = (c - rho*a)/s,

    where every factor is positive, so the result carries relative
    accuracy down to underflow.  lam = a matches e^{-v} to the decay of
    phi; for rho < 0 and x0 > 0 the survival factor decays too, at rate
    ~ -rho*x0/s, and lam adds it so that g stays smooth.

    The weights decay faster than exponentially, so each pair first
    takes only the first nodes of each rule (`_LAG_CUT`).  The survival
    factor is at most 1, and past its peak lam^2 m, m = max(0, 1 - a/lam),
    the exponential factor falls, so the terms a rule drops sum to at
    most its dropped weight times the exponential at the later of the
    first dropped node and the peak (times 2, the largest erfc).  A pair
    where that bound exceeds 2^-60 of its kept 64-node sum, for either
    rule, takes the full rules.

    All pairs go through one (pairs x nodes) numpy pass, and the
    fallback pairs through one more.  Only elementwise IEEE operations
    and per-row sums act across pairs, and the two exponentials whose
    bits reach the result unscaled stay on math.exp, so no value
    depends on which other pairs share the pass.
    """
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    x0 = (c - rho * a) / s
    lam = a if rho >= 0.0 else a - rho * np.maximum(x0, 0.0) / s
    scale = np.array([0.5 * std_normal_pdf(v) for v in a.tolist()]) / lam
    # phi(a) underflows past a ~ 38.6: those pairs are 0
    live = np.flatnonzero(scale != 0.0)
    a, c, x0, lam = a[live], c[live], x0[live], lam[live]
    # exp(-y0^2) of `_node_sums`, formed once from the exact square
    hi, lo = _half_square_ratio(c, rho, a)
    exp_y0 = np.array([math.exp(-p) * math.exp(-q)
                       for p, q in zip(hi.tolist(), lo.tolist())])
    # x0 < 0 puts y <= 0 first at rho < 0, where only absolute accuracy
    # counts, and exp(u (2 y0 - u)) would overflow against an exp(-y0^2)
    # of 0: those pairs take exp(-y^2) itself
    start = x0 < 0.0 if rho < 0.0 else None
    if start is not None:
        exp_y0[start] = 1.0
    decay, lam2 = 1.0 - a / lam, lam * lam
    pairs = (_SQRT1_2_HI * x0, _SQRT1_2_HI * rho / (s * lam), exp_y0,
             start, decay, lam2)
    sums = _node_sums(_LAG_CUT, *pairs)
    m = np.maximum(decay, 0.0)[:, None]
    v = np.maximum(_CUT_NODE, lam2[:, None] * m)
    with np.errstate(over="ignore"):
        dropped = 2.0 * _CUT_WEIGHT * np.exp(
            v * m - v * v / (2.0 * lam2)[:, None])
    full = np.flatnonzero(~(dropped <= _CUT_SHARE * sums[:, :1]).all(axis=1))
    if full.size:
        sums[full] = _node_sums(_LAG_FULL, *(None if p is None else p[full]
                                             for p in pairs))
    out = np.zeros((scale.size, 2))
    out[live] = sums
    return scale * out[:, 0], scale * out[:, 1]


def _node_sums(
    rules: _Rules, y0: np.ndarray, beta: np.ndarray, exp_y0: np.ndarray,
    start: np.ndarray | None, decay: np.ndarray, lam2: np.ndarray
) -> np.ndarray:
    """The sums over the nodes of `rules` of weight times g(v), in units
    where the survival factor is erfc, one row per pair and one column
    per rule (see `_laguerre_pass`).

    In y = x/sqrt(2) units the survival argument is y = y0 - u with
    u = beta*v, and 2 survival(x) = erfc(y) = erfcx(|y|) exp(-y^2) for
    y > 0, two minus that for y <= 0.  exp(-y^2) is exp_y0 = exp(-y0^2)
    times exp(u (2 y0 - u)): ndtr and erfc round y^2 internally and lose
    ~y^2 ulp (6e-14 at x = 20).  Rows where `start` holds take exp(-y^2)
    itself, with exp_y0 = 1.  decay is 1 - a/lam and lam2 is lam^2.
    """
    y0 = y0[:, None]
    u = beta[:, None] * rules.nodes
    y = y0 - u
    arg = u * (2.0 * y0 - u)
    if start is not None:
        arg[start] = -y[start] ** 2
    tail = _erfcx(np.abs(y)) * np.exp(arg) * exp_y0[:, None]
    g = np.exp(rules.nodes * decay[:, None] + rules.neg_half_sq / lam2[:, None])
    g *= np.where(y > 0.0, tail, 2.0 - tail)
    # numpy's own sum rather than a BLAS dot: the same bytes whatever
    # BLAS is linked, and no BLAS work buffer in peak memory
    return (rules.weights * g[:, None, :]).sum(axis=2)


def _certified(v64: np.ndarray, v48: np.ndarray) -> np.ndarray:
    """Where the two rules agree to `_TAIL_CERTIFICATE_RTOL`, or both lie
    below the smallest normal double, where no relative contract
    applies."""
    return ((np.abs(v64 - v48) <= _TAIL_CERTIFICATE_RTOL * v64)
            | (np.maximum(v64, v48) < sys.float_info.min))


def joint_tail_survival(
    pairs: Sequence[tuple[float, float]], rho: float
) -> list[float]:
    """P(X > h, Y > k) for every pair (h, k) of the joint tail at one rho.

    The direct pass conditions on the larger threshold:
    P = L(max(h, k), min(h, k); rho), with L(a, c; r) the Gauss-Laguerre
    value of `_laguerre_pass`.  As rho -> 1 its survival factor grows an
    edge that the nodes cannot resolve.  Pairs whose edge is narrower
    than `_EDGE_WIDTH`, and pairs whose two rules disagree, take the
    diagonal pass instead.  It splits the event at X - Y = h - k, which
    is exact for every rho in (-1, 1): with t = sqrt((1 - rho)/2),

        P = L(h, (k - h)/(2t); -t) + L(k, (h - k)/(2t); -t),

    two positive terms at a correlation in (-1, 0), whose integrands
    have no edge.  A pair that the diagonal pass cannot certify either
    raises QuadratureConvergenceError with the 64-node value attached,
    rather than return an unconverged value.

    Each value is the same double whether its pair comes alone or in a
    batch, and the same for (h, k) as for (k, h): the two diagonal terms
    swap places.  `bivariate_normal_survival` is the one-pair call.
    """
    h, k = np.array(pairs, dtype=float).reshape(-1, 2).T
    a, c = np.maximum(h, k), np.minimum(h, k)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    # the edge s*a/rho is narrower than _EDGE_WIDTH (never for rho <= 0)
    diagonal = s * a < _EDGE_WIDTH * rho
    out = np.zeros(len(pairs))
    direct = np.flatnonzero(~diagonal)
    if direct.size:
        v64, v48 = _laguerre_pass(a[direct], c[direct], rho)
        out[direct] = v64
        diagonal[direct[~_certified(v64, v48)]] = True
    rows = np.flatnonzero(diagonal)
    if rows.size:
        t = math.sqrt((1.0 - rho) / 2.0)
        w = (k[rows] - h[rows]) / (2.0 * t)
        # the terms conditioned on h, then those on k, summed per pair
        v64, v48 = (terms.reshape(2, -1).sum(axis=0) for terms in
                    _laguerre_pass(np.concatenate([h[rows], k[rows]]),
                                   np.concatenate([w, -w]), -t))
        failed = np.flatnonzero(~_certified(v64, v48))
        if failed.size:
            j = failed[0]
            (hj, kj), spread = pairs[rows[j]], float(abs(v64[j] - v48[j]))
            raise QuadratureConvergenceError(
                f"joint tail P(X > {hj!r}, Y > {kj!r}) at rho={rho!r}: its "
                f"64- and 48-node diagonal values differ by {spread:.3g}",
                QuadratureResult(float(v64[j]), spread,
                                 2 * _LAG_FULL.nodes.size))
        out[rows] = v64
    return out.tolist()


def _closed_form(h: float, k: float, rho: float) -> float | None:
    """P(X > h, Y > k) where a closed form settles it: a threshold
    saturated at +-40, or rho = +-1.  None elsewhere."""
    if max(h, k) >= _SATURATED:
        return 0.0
    if h <= -_SATURATED:
        return std_normal_survival(k)
    if k <= -_SATURATED:
        return std_normal_survival(h)
    if rho == 1.0:
        return std_normal_survival(max(h, k))
    if rho == -1.0:
        # P(h < X < -k); zero whenever the interval is empty.
        if h >= -k:
            return 0.0
        return max(std_normal_survival(h) - std_normal_survival(-k), 0.0)
    return None


def bivariate_survival_row(
    pairs: Sequence[tuple[float, float]], rho: float
) -> list[float]:
    """P(X > h, Y > k) for every pair (h, k) at one rho, in order.

    Each distinct pair is evaluated once, (h, k) and (k, h) counting as
    one pair for rho > -1: joint-tail pairs in one `joint_tail_survival`
    pass, pairs a closed form settles by it, and the rest in one numpy
    pass of the Gauss-Legendre or the Genz branch.  Each value is the
    same double whether its pair comes alone or in a row.
    """
    check_rho(rho)
    symmetric = rho > -1.0
    keys = [(k, h) if symmetric and k < h else (h, k) for h, k in pairs]
    value: dict[tuple[float, float], float] = {}
    tail, rest = [], []
    for key in dict.fromkeys(keys):
        if is_joint_tail(*key, rho):
            tail.append(key)
        elif (v := _closed_form(*key, rho)) is None:
            rest.append(key)
        else:
            value[key] = v
    for group, one_pass in ((tail, joint_tail_survival),
                            (rest, _quadrature_row)):
        if group:
            value.update(zip(group, one_pass(group, rho)))
    return [value[key] for key in keys]


def bivariate_normal_survival(h: float, k: float, rho: float) -> float:
    """P(X > h, Y > k): the one-pair row of `bivariate_survival_row`."""
    return bivariate_survival_row(((h, k),), rho)[0]
