"""Univariate and bivariate Gaussian primitives.

Reference literals were frozen from 50-digit arbitrary-precision
evaluations (erfc for the cdf and survival, series/quadrature cross-checks
for the bivariate probabilities) and appear here as plain doubles.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.integrate import quad

from hrx import (
    QuadratureConvergenceError,
    QuadratureResult,
    ThirdOrderHR,
    bivariate_normal_cdf,
    bivariate_normal_survival,
    bivariate_survival_row,
    gauss,
    make_row,
    solve_bn,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_survival,
    threshold,
)

# Frozen reference values, correctly rounded doubles.
PDF_SAMPLES = {
    0.0: 0.39894228040143268,
    1.0: 0.24197072451914335,
    10.0: 7.694598626706419e-23,
    37.0: 2.1200065515246056e-298,
}

CDF_SAMPLES = {
    -8.0: 6.2209605742717841e-16,
    -5.5: 1.8989562465887719e-8,
    -3.0: 0.0013498980316300945,
    -1.25: 0.10564977366685526,
    -0.5: 0.3085375387259869,
    0.5: 0.6914624612740131,
    1.7: 0.95543453724145696,
    3.0: 0.99865010196836991,
    6.0: 0.99999999901341235,
}

SURVIVAL_TAIL = {
    1.0: 0.15865525393145705,
    2.0: 0.022750131948179207,
    4.0: 3.1671241833119921e-05,
    8.0: 6.2209605742717841e-16,
    10.0: 7.6198530241605261e-24,
    12.0: 1.776482112077679e-33,
    15.0: 3.6709661993127509e-51,
    20.0: 2.7536241186062337e-89,
    25.0: 3.0566967063825609e-138,
    30.0: 4.9067139271481871e-198,
    35.0: 1.1249107064724062e-268,
    37.0: 5.7255712225245768e-300,
    37.5: 4.605353009581955e-308,
}

BVN_CDF_SAMPLES = [
    # (h, k, rho, value)
    (1.0, 0.5, 0.6, 0.64182899006387133),
    (-1.0, 2.0, -0.8, 0.13779566999920151),
    (0.5, 0.5, 0.999, 0.68518078623309765),
]
# P(X <= h, Y <= k) where `bivariate_normal_cdf` is the reflected survival
# and the old cdf had a branch of its own: 60-digit mpmath, h, k > -100
# and |rho| < 1 as `joint_tail(-h, -k, rho)` of make_bvn_tail_reference.py
# (the survival at (-h, -k)), the rest as closed forms in mpmath.ncdf.
BVN_CDF_REFLECTED = [
    # (h, k, rho, value), correctly rounded doubles
    # h, k <= -3 with rho not in {0, +-1}: the Gauss-Laguerre rule
    (-3.0, -3.0, 0.5, 8.18896618321921e-05),
    (-3.0, -4.0, -0.5, 6.837053804920115e-14),
    (-4.0, -3.5, 0.9, 2.329809522934476e-05),
    (-5.0, -6.0, -0.9, 4.4496356033851745e-136),
    (-3.0, -3.0, 0.999, 0.0012708810536105266),
    (-6.5, -6.0, 0.3, 5.494778281830767e-16),
    (-10.0, -12.0, 0.7, 2.78646746437162e-35),
    (-3.5, -8.0, -0.2, 5.315722063050926e-23),
    # one threshold <= -8 with rho in {0, 0.5, 1}
    (-8.5, 1.0, 0.0, 7.97555681783456e-18),
    (0.5, -9.0, 0.0, 7.803765169461578e-20),
    (-9.0, 0.5, 0.5, 1.1285884027697266e-19),
    (2.0, -8.25, 0.5, 7.91972631463845e-17),
    (-10.0, 2.0, 1.0, 7.619853024160525e-24),
    (3.0, -8.0, 1.0, 6.220960574271784e-16),
    # rho = -1 with h + k near 0: Phi(h) - Phi(-k)
    (0.3, -0.2999999, -1.0, 3.813878211923078e-08),
    (-2.0, 2.0000001, -1.0, 5.3990961025731216e-09),
    (1.5, -1.5, -1.0, 0.0),
    (0.0, 1e-09, -1.0, 3.989422804014327e-10),
    # thresholds at +-1e300
    (1e+300, 0.5, 0.3, 0.6914624612740131),
    (0.5, -1e+300, 0.3, 0.0),
    (1e+300, 1e+300, -0.7, 1.0),
    (1e+300, -9.0, 0.9, 1.1285884059538405e-19),
    (-1e+300, -1e+300, 0.2, 0.0),
    (-1e+300, 1e+300, -1.0, 0.0),
]
BVN_SURV_SAMPLES = [
    # (h, k, rho, value); references are taken at the double-rounded
    # inputs, e.g. mpf(5.2) and mpf(0.937), not at the decimal ones
    (2.0, 2.0, 0.5, 0.0040529462351629797),
    (5.2, 5.2, 0.937, 3.3096090048106485e-08),
]

# Joint tails for min(h, k) >= 3, from 60-digit mpmath by
# make_bvn_tail_reference.py next to this file (its docstring has the
# method and the cross-check that certifies each value).
BVN_TAIL_REFERENCE = [
    # (h, k, rho, P(X > h, Y > k)), correctly rounded doubles
    (3.0, 3.0, -0.98, 1.3086583129853768e-200),
    (3.0, 3.0, -0.9, 3.2694360168839317e-43),
    (3.0, 4.5, -0.9, 1.6163550565515205e-65),
    (7.25, 9.0, -0.9, 7.321312601086896e-292),
    (4.0, 11.5, -0.9, 5.2546744570072236e-269),
    (11.5, 11.5, -0.77, 1.8989966596051477e-254),
    (9.75, 18.5, -0.7, 1.924436492553855e-298),
    (3.0, 3.0, -0.5, 7.14750218127079e-11),
    (4.0, 6.0, -0.5, 1.7695956153733303e-25),
    (8.0, 8.0, -0.5, 1.8229947991158436e-59),
    (17.0, 17.0, -0.5, 1.5061667940950334e-255),
    (3.5, 3.0, -0.2, 1.530402814061101e-08),
    (10.0, 12.0, -0.2, 7.611730900793818e-70),
    (3.0, 3.0, 0.1, 4.90771937119597e-06),
    (5.0, 9.0, 0.1, 2.2374969116182152e-24),
    (15.0, 15.0, 0.1, 1.250888122927924e-92),
    (4.0, 4.0, 0.3, 6.773600595327295e-08),
    (12.0, 7.0, 0.3, 3.5936290749077384e-37),
    (20.0, 20.0, 0.3, 1.6430962972645522e-137),
    (3.0, 3.0, 0.5, 8.18896618321921e-05),
    (6.0, 6.5, 0.5, 4.185260929314295e-14),
    (16.0, 22.0, 0.5, 6.609884549082387e-116),
    (25.0, 25.0, 0.5, 7.268821024907741e-185),
    (4.5, 4.0, 0.7, 5.618754854700159e-07),
    (10.0, 10.0, 0.7, 1.7119091988290454e-28),
    (30.0, 20.0, 0.7, 4.533545101936443e-198),
    (3.0, 3.0, 0.9, 0.0006104043853037787),
    (6.0, 5.0, 0.9, 8.714297949643347e-10),
    (15.0, 20.0, 0.9, 2.753624118601547e-89),
    (30.0, 30.0, 0.9, 2.739329038647675e-209),
    (5.0, 5.0, 0.95, 1.1650980496795293e-07),
    (8.0, 12.0, 0.95, 1.776482112077679e-33),
    (34.0, 36.0, 0.95, 3.199424651584408e-284),
    (3.0, 3.0, 0.99, 0.0011015199986206224),
    (6.0, 7.0, 0.99, 1.2798125438822566e-12),
    (20.0, 20.0, 0.99, 4.274594498618803e-90),
    (3.0, 4.0, 0.999, 3.1671241833119924e-05),
    (8.0, 8.0, 0.999, 5.324284131429312e-16),
    (25.0, 30.0, 0.999, 4.906713927148187e-198),
    (37.0, 36.0, 0.999, 5.725571222524577e-300),
    (3.0, 3.0, 0.9999, 0.0013248956714195714),
    (3.0, 3.1, 0.9999, 0.000967603213218351),
    (6.2, 6.2, 0.9999, 2.721986185004192e-10),
    (12.0, 11.0, 0.9999, 1.776482112077679e-33),
    (30.0, 30.0, 0.9999, 4.081485228851217e-198),
    (37.0, 37.0, 0.9999, 4.542982617140806e-300),
    (36.5, 37.0, 0.9999, 5.725571222524577e-300),
]

# Pairs with h > k in the Genz branch (-1 < rho < -0.925, min(h, k) < 3),
# from 60-digit mpmath by make_bvn_tail_reference.py: the conditional
# integral in both orders, which must agree to 1e-25.
BVN_GENZ_REFERENCE = [
    # (h, k, rho, P(X > h, Y > k)), correctly rounded doubles
    (8.5744, -8.9823, -0.99367, 4.8476781999264126e-18),
    (8.68, -8.25, -0.93, 1.1445062164263545e-18),
    (8.9, -8.95, -0.999, 1.073768465387506e-19),
    (6.0, -6.5, -0.96, 9.50724554353162e-10),
    (5.27, -7.31, -0.977, 6.821174584066974e-08),
    (5.57, -7.37, -0.948, 1.273688145740742e-08),
    (2.9, -3.2, -0.99, 0.0011819062344681104),
    (2.5, -2.6, -0.98, 0.0021510837775447493),
    (1.3, -6.6, -0.973, 0.09680048456505244),
    (1.08, -0.86, -0.93, 0.01604623444581107),
    (0.51, -8.73, -0.995, 0.3050257308975194),
    (0.21, -5.68, -0.953, 0.4168338297828206),
    (0.14, -0.62, -0.956, 0.17917024599439293),
    (-0.65, -1.07, -0.94, 0.599844243661536),
    (-3.3, -4.9, -0.978, 0.9995160966743396),
    (-4.6, -5.6, -0.997, 0.9999978768277072),
]

# Joint tails at 0.92 <= rho < 1, up to the last double below 1, from
# 60-digit mpmath by make_bvn_tail_reference.py: the conditional integral
# with panels at the edge, and the diagonal sum, which must agree to 1e-25.
BVN_NEAR_ONE_REFERENCE = [
    # (h, k, rho, P(X > h, Y > k)), correctly rounded doubles
    (3.0, 3.0, 0.92, 0.0006795344734859852),
    (3.0, 4.5, 0.92, 3.3953499780870442e-06),
    (12.0, 12.0, 0.92, 2.427661401008684e-35),
    (25.0, 20.0, 0.92, 3.056696706382544e-138),
    (4.2, 4.2, 0.95, 6.401603932934505e-06),
    (3.0, 3.0, 0.975, 0.0009610922407403336),
    (7.5, 7.0, 0.975, 3.0742653208571364e-14),
    (18.0, 18.0, 0.975, 4.112758030146814e-74),
    (33.0, 33.0, 0.975, 8.214316932686574e-243),
    (5.0, 5.3, 0.99, 5.733240001803654e-08),
    (3.0, 3.0, 0.995, 0.0011736813814529966),
    (10.0, 10.0, 0.995, 4.672386845290117e-24),
    (36.0, 36.0, 0.995, 2.9816925965832397e-285),
    (3.0, 3.0, 0.999, 0.0012708810536105266),
    (3.0, 3.05, 0.999, 0.001132052798981378),
    (14.5, 14.5, 0.999, 4.510085752835497e-48),
    (5.0, 5.0, 0.9995, 2.6791436203531435e-07),
    (27.0, 27.0, 0.9995, 4.943433562310752e-161),
    (4.0, 4.02, 0.9999, 2.9034472606862696e-05),
    (9.0, 9.0, 0.9999, 1.0706296371689801e-19),
    (37.0, 36.9, 0.9999, 5.725571222522647e-300),
    (3.0, 3.0, 0.99999, 0.0013419911167122098),
    (3.0, 3.003, 0.99999, 0.0013337011149977332),
    (16.0, 16.0, 0.99999, 6.205713069237243e-58),
    (30.0, 30.01, 0.99999, 3.631097008522592e-198),
    (6.5, 6.5, 0.999998, 3.994700750224864e-11),
    (20.0, 20.0, 0.999999, 2.7224765386942167e-89),
    (20.0, 20.001, 0.999999, 2.688051277600701e-89),
    (35.0, 35.0, 0.999999, 1.1026816685116576e-268),
    (4.753424308822899, 4.753424308822899, 0.9999999620773059, 9.994563323166096e-07),
    (5.5208761402603574, 5.5208761402603574, 0.9999998499958104, 1.684469877849303e-08),
    (5.52, 5.5208761402603574, 0.9999998499958104, 1.6864448583751352e-08),
    (5.0, 5.0, 0.99999999, 2.865676927142737e-07),
    (5.0, 5.0001, 0.99999999, 2.8647326345896324e-07),
    (12.0, 12.0, 0.99999999, 1.775271144872986e-33),
    (3.0, 3.0, 0.9999999999, 0.001349873027601963),
    (8.0, 8.00001, 0.9999999999, 6.220354507236873e-16),
    (4.0, 4.0, 0.999999999999, 3.1671166328335743e-05),
    (25.0, 25.0, 0.999999999999, 3.056653524185898e-138),
    (3.0, 3.0, 0.999999999999999, 0.0013498979525920238),
    (3.0, 3.0000001, 0.999999999999999, 0.001349897587574252),
    (37.0, 37.0, 0.999999999999999, 5.72556744168164e-300),
    (10.0, 10.0, 0.9999999999999997, 7.619852231884022e-24),
    (3.0, 3.0, 0.9999999999999998, 0.0013498979943711907),
    (5.0, 5.0, 0.9999999999999999, 2.866515630410876e-07),
    (20.0, 20.0000001, 0.9999999999999999, 2.753618597663328e-89),
]


def rel_err(got, want):
    return abs(got - want) / abs(want)


def tail_survival_adaptive(h: float, k: float, rho: float) -> float:
    """The joint tail's conditioning integral by adaptive quadrature in z,
    independent of the fixed Gauss-Laguerre rules it checks.  Raises
    QuadratureConvergenceError when QUADPACK misses relative 1e-13.
    (QUADPACK can report convergence and still miss the sharp edge as
    rho -> 1: it is 2.9e-4 off at (5, 5, 0.99999999).)"""
    a, c = max(h, k), min(h, k)
    if std_normal_pdf(a) == 0.0:
        return 0.0
    s = math.sqrt((1.0 - rho) * (1.0 + rho))

    def integrand(t: float) -> float:
        z = a + t
        return std_normal_survival((c - rho * z) / s) * std_normal_pdf(z)

    value, abs_err, info, *message = quad(integrand, 0.0, math.inf, epsabs=0.0,
                                          epsrel=1e-13, limit=200, full_output=1)
    # QUADPACK flags trouble with a message; a flag whose error estimate
    # still meets the tolerance is kept
    if message and not abs_err <= 1e-13 * abs(value):
        raise QuadratureConvergenceError(
            f"joint tail P(X > {h!r}, Y > {k!r}) at rho={rho!r}: {message[0]}",
            QuadratureResult(value, abs_err, info["neval"]))
    return max(value, 0.0)


# The scalar Gauss-Legendre / Genz evaluation that `gauss._quadrature_row`
# replaced, kept verbatim as the reference the array pass is held to.
_GL_NODES, _GL_WEIGHTS = gauss._GL_NODES, gauss._GL_WEIGHTS
_TWOPI = 2.0 * math.pi
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _bvn_upper(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for standard bivariate normal, |r| < 1.

    Gauss-Legendre quadrature on the correlation-parameter representation
    for |r| <= 0.925; for larger |r| the complement is expanded about the
    perfectly-dependent case and the remainder integrated.
    """
    if abs(r) < 0.3:
        ng = 0
    elif abs(r) < 0.75:
        ng = 1
    else:
        ng = 2
    nodes = _GL_NODES[ng]
    weights = _GL_WEIGHTS[ng]

    h = dh
    k = dk
    hk = h * k
    bvn = 0.0
    if abs(r) <= 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r)
        for xi, wi in zip(nodes, weights):
            sn = math.sin(asr * (xi + 1.0) / 2.0)
            bvn += wi * math.exp((sn * hk - hs) / (1.0 - sn * sn))
            sn = math.sin(asr * (1.0 - xi) / 2.0)
            bvn += wi * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / (2.0 * _TWOPI)
        bvn += std_normal_cdf(-h) * std_normal_cdf(-k)
        return bvn

    if r < 0.0:
        # ascending order: with h > k the expansion cancels away every
        # digit of a small result
        h, k = min(h, k), -max(h, k)
        hk = -hk
    a2 = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    bvn = a * math.exp(-(bs / a2 + hk) / 2.0) * (
        1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0
    )
    if hk > -160.0:
        b = math.sqrt(bs)
        bvn -= (
            math.exp(-hk / 2.0)
            * _SQRT_2PI
            * std_normal_cdf(-b / a)
            * b
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        )
    a /= 2.0
    for xi, wi in zip(nodes, weights):
        xs = (a * (xi + 1.0)) ** 2
        rs = math.sqrt(1.0 - xs)
        bvn += a * wi * (
            math.exp(-bs / (2.0 * xs) - hk / (1.0 + rs)) / rs
            - math.exp(-(bs / xs + hk) / 2.0) * (1.0 + c * xs * (1.0 + d * xs))
        )
        xs = a2 * (1.0 - xi) ** 2 / 4.0
        rs = math.sqrt(1.0 - xs)
        bvn += (
            a
            * wi
            * math.exp(-(bs / xs + hk) / 2.0)
            * (math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
               - (1.0 + c * xs * (1.0 + d * xs)))
        )
    bvn = -bvn / _TWOPI
    if r > 0.0:
        return bvn + std_normal_survival(max(h, k))
    bvn = -bvn
    if k > h:
        bvn += std_normal_cdf(k) - std_normal_cdf(h)
    return max(bvn, 0.0)


def scalar_reference(h, k, r):
    """The survival as the scalar routine returned it, clamped to [0, 1]."""
    return min(max(_bvn_upper(h, k, r), 0.0), 1.0)


# rho of the six finite-rho rows of the study-bulk benchmark study
# (third-order lam=1, alpha=2, beta=5 at n = 10^1.25 .. 10^2.5); its
# n = 10 row is clipped to rho = -1, a closed form
STUDY_BULK_ROWS = [make_row(ThirdOrderHR(1.0, 2.0, 5.0), n)
                   for n in (18, 32, 56, 100, 178, 316)]
STUDY_BULK_AXIS = [-3.0 + 0.25 * i for i in range(17)]
# the branch seams: 3 -> 6 -> 10 nodes at |rho| = 0.3 and 0.75, and
# Gauss-Legendre -> Genz past |rho| = 0.925
RHO_SEAMS = [0.3, -0.3, 0.75, -0.75, 0.925, -0.925,
             math.nextafter(0.925, 1.0), math.nextafter(-0.925, -1.0)]
SEAM_VALUES = [-8.0, -3.3, -1.0, 0.0, 0.7, 2.9, 5.0, 8.0]


class TestPdf:
    def test_frozen_values(self):
        for x, want in PDF_SAMPLES.items():
            assert rel_err(std_normal_pdf(x), want) <= 5e-16

    def test_infinities(self):
        assert std_normal_pdf(math.inf) == 0.0
        assert std_normal_pdf(-math.inf) == 0.0

    def test_underflows_to_zero_at_huge_arguments(self):
        # at 262144.02 and 300714.2857242857 the split's cross term alone
        # overflows exp(); at 1e200 the split itself gives inf * 0
        for x in (40.0, 262144.02, 300714.2857242857, 1e200):
            assert std_normal_pdf(x) == 0.0
            assert std_normal_pdf(-x) == 0.0
            assert std_normal_survival(x) == 0.0

    @given(st.floats(-20.0, 20.0))
    def test_even_symmetry(self, x):
        assert std_normal_pdf(-x) == std_normal_pdf(x)

    @given(st.floats(-10.0, 10.0))
    def test_bounded_by_mode(self, x):
        assert 0.0 <= std_normal_pdf(x) <= PDF_SAMPLES[0.0]


class TestCdf:
    def test_frozen_values(self):
        for x, want in CDF_SAMPLES.items():
            assert rel_err(std_normal_cdf(x), want) <= 1e-15

    def test_center_and_infinities(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0

    def test_deep_left_tail(self):
        # cdf(-x) is the survival at x, to the bit
        for x, want in SURVIVAL_TAIL.items():
            if x <= 37.0:
                assert rel_err(std_normal_cdf(-x), want) <= 1e-13

    @given(st.floats(-37.0, 37.0))
    def test_complement_identity(self, x):
        total = std_normal_cdf(x) + std_normal_survival(x)
        assert abs(total - 1.0) <= 1e-15

    def test_monotone(self):
        xs = [-8.0 + 0.25 * i for i in range(65)]
        vals = [std_normal_cdf(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSurvival:
    def test_frozen_tail_values(self):
        for x, want in SURVIVAL_TAIL.items():
            assert rel_err(std_normal_survival(x), want) <= 1e-13

    def test_near_the_subnormal_floor(self):
        # Beyond x ~ 37.7 the value itself leaves the normal double range
        # and quantization alone caps the attainable relative accuracy; the
        # computed value must still be positive and monotone down to there.
        v375 = std_normal_survival(37.5)
        v38 = std_normal_survival(38.0)
        assert 0.0 < v38 < v375
        assert rel_err(v375, SURVIVAL_TAIL[37.5]) <= 1e-13

    def test_symmetry_with_cdf(self):
        # one formula: the survival at x is the cdf at -x, to the bit,
        # across both saturation guards and at every special value
        grid = np.linspace(-41.0, 41.0, 8201).tolist()
        specials = [0.0, -0.0, 40.0, -40.0, math.inf, -math.inf]
        for x in grid + specials:
            got, want = std_normal_survival(x), std_normal_cdf(-x)
            assert got.hex() == want.hex(), x
        assert math.isnan(std_normal_survival(math.nan))
        assert math.isnan(std_normal_cdf(math.nan))

    def test_infinities(self):
        assert std_normal_survival(math.inf) == 0.0
        assert std_normal_survival(-math.inf) == 1.0


class TestNormalArrays:
    """phi and Phi elementwise, as the quadrature integrands take them."""

    # every double of the grid lies in the normal range of both functions
    GRID = np.linspace(-37.0, 37.0, 2961)

    def test_match_mpmath(self):
        import mpmath

        with mpmath.workdps(40):
            pdf = np.array([float(mpmath.npdf(x)) for x in self.GRID])
            cdf = np.array([float(mpmath.ncdf(x)) for x in self.GRID])
            sf = np.array([float(mpmath.ncdf(-x)) for x in self.GRID])
        got_pdf = gauss.std_normal_pdf_array(self.GRID)
        got_cdf = gauss.std_normal_cdf_array(self.GRID)
        assert np.max(np.abs(got_pdf - pdf) / pdf) <= 1e-15
        assert np.max(np.abs(got_cdf - cdf) / cdf) <= 1.5e-15
        # the scalar functions
        grid = self.GRID.tolist()
        for f, want in ((std_normal_pdf, pdf), (std_normal_cdf, cdf),
                        (std_normal_survival, sf)):
            got = np.array([f(x) for x in grid])
            assert np.max(np.abs(got - want) / want) <= 1e-15, f.__name__

    def test_saturation_and_nan(self):
        x = np.array([[40.0, -40.0, 1e200, -1e200],
                      [math.inf, -math.inf, math.nan, 0.0]])
        pdf = gauss.std_normal_pdf_array(x)
        cdf = gauss.std_normal_cdf_array(x)
        assert pdf.shape == cdf.shape == x.shape
        assert pdf[0].tolist() == [0.0] * 4 and pdf[1, :2].tolist() == [0.0] * 2
        assert cdf[0].tolist() == [1.0, 0.0, 1.0, 0.0]
        assert cdf[1, :2].tolist() == [1.0, 0.0]
        assert math.isnan(pdf[1, 2]) and math.isnan(cdf[1, 2])
        assert pdf[1, 3] == std_normal_pdf(0.0) and cdf[1, 3] == 0.5

    def test_element_is_independent_of_its_array(self):
        x = np.random.default_rng(3).normal(0.0, 12.0, 385)
        for f in (gauss.std_normal_pdf_array, gauss.std_normal_cdf_array):
            alone = [f(np.array([v]))[0] for v in x]
            assert f(x).tolist() == alone


class TestBivariateCdf:
    def test_frozen_values(self):
        for h, k, r, want in BVN_CDF_SAMPLES:
            assert abs(bivariate_normal_cdf(h, k, r) - want) <= 5e-16

    def test_reflected_branches(self):
        for h, k, r, want in BVN_CDF_REFLECTED:
            assert abs(bivariate_normal_cdf(h, k, r) - want) <= 5e-16

    def test_reflected_joint_tail_is_relative(self):
        # -40 < h, k <= -3 is the survival's joint tail at (-h, -k)
        for h, k, r, want in BVN_CDF_REFLECTED:
            if -40.0 < min(h, k) and max(h, k) <= -3.0 and r not in (0.0, 1.0, -1.0):
                assert rel_err(bivariate_normal_cdf(h, k, r), want) <= 1e-13

    def test_quadrant_identity(self):
        # P(X <= 0, Y <= 0) = 1/4 + asin(rho) / (2 pi)
        for r in (-0.95, -0.5, -0.1, 0.0, 0.3, 0.75, 0.99):
            want = 0.25 + math.asin(r) / (2.0 * math.pi)
            assert abs(bivariate_normal_cdf(0.0, 0.0, r) - want) <= 1e-15

    def test_independence_reduction(self):
        for h, k in ((0.4, -1.2), (2.0, 2.0), (-3.0, 1.0)):
            want = std_normal_cdf(h) * std_normal_cdf(k)
            assert rel_err(bivariate_normal_cdf(h, k, 0.0), want) <= 1e-15

    def test_comonotone_reduction(self):
        for h, k in ((0.4, -1.2), (2.0, 2.0), (-3.0, 1.0)):
            assert bivariate_normal_cdf(h, k, 1.0) == std_normal_cdf(min(h, k))

    def test_antithetic_reduction(self):
        # P(X <= h, -X <= k) = max(Phi(h) - Phi(-k), 0)
        for h, k in ((0.4, -1.2), (2.0, 2.0), (-0.5, 0.2)):
            want = max(std_normal_cdf(h) - std_normal_cdf(-k), 0.0)
            assert abs(bivariate_normal_cdf(h, k, -1.0) - want) <= 1e-15

    def test_infinities(self):
        assert bivariate_normal_cdf(-math.inf, 1.0, 0.5) == 0.0
        assert bivariate_normal_cdf(1.0, -math.inf, 0.5) == 0.0
        assert bivariate_normal_cdf(math.inf, 1.0, 0.5) == std_normal_cdf(1.0)
        assert bivariate_normal_cdf(1.0, math.inf, 0.5) == std_normal_cdf(1.0)
        assert bivariate_normal_cdf(math.inf, math.inf, -0.3) == 1.0

    @pytest.mark.parametrize("r", [1.5, -1.0000001, math.nan])
    def test_rho_domain(self, r):
        with pytest.raises(ValueError):
            bivariate_normal_cdf(0.0, 0.0, r)

    @given(
        st.floats(-4.0, 4.0),
        st.floats(-4.0, 4.0),
        st.floats(-1.0, 1.0),
    )
    def test_frechet_bounds(self, h, k, r):
        p = bivariate_normal_cdf(h, k, r)
        ph, pk = std_normal_cdf(h), std_normal_cdf(k)
        assert p >= max(ph + pk - 1.0, 0.0) - 1e-15
        assert p <= min(ph, pk) + 1e-15

    @given(
        st.floats(-4.0, 4.0),
        st.floats(-4.0, 4.0),
        st.floats(-0.99, 0.99),
    )
    def test_argument_symmetry(self, h, k, r):
        a = bivariate_normal_cdf(h, k, r)
        b = bivariate_normal_cdf(k, h, r)
        assert abs(a - b) <= 1e-15

    def test_monotone_in_rho(self):
        rhos = [-1.0 + 0.125 * i for i in range(17)]
        vals = [bivariate_normal_cdf(0.3, -0.2, r) for r in rhos]
        assert all(b - a >= -1e-15 for a, b in zip(vals, vals[1:]))


class TestBivariateSurvival:
    def test_frozen_values(self):
        for h, k, r, want in BVN_SURV_SAMPLES:
            assert rel_err(bivariate_normal_survival(h, k, r), want) <= 1e-13

    def test_inclusion_exclusion(self):
        for h, k, r in (
            (0.5, -0.3, 0.6),
            (1.0, 1.0, -0.4),
            (-2.0, 0.7, 0.95),
        ):
            direct = bivariate_normal_survival(h, k, r)
            assembled = (
                1.0
                - std_normal_cdf(h)
                - std_normal_cdf(k)
                + bivariate_normal_cdf(h, k, r)
            )
            assert abs(direct - assembled) <= 1e-14

    def test_deep_tail_positive(self):
        # the conditioned tail integral keeps far joint tails normalized
        v = bivariate_normal_survival(30.0, 30.0, 0.9)
        assert 0.0 < v < SURVIVAL_TAIL[30.0]

    def test_independence_reduction(self):
        want = std_normal_survival(3.5) * std_normal_survival(4.0)
        assert rel_err(bivariate_normal_survival(3.5, 4.0, 0.0), want) <= 1e-13

    def test_comonotone_reduction(self):
        got = bivariate_normal_survival(1.0, 2.0, 1.0)
        assert got == std_normal_survival(2.0)

    def test_antithetic_reduction(self):
        assert bivariate_normal_survival(1.0, 1.0, -1.0) == 0.0
        want = std_normal_survival(-0.5) - std_normal_survival(0.2)
        got = bivariate_normal_survival(-0.5, -0.2, -1.0)
        assert abs(got - want) <= 1e-15

    def test_infinities(self):
        assert bivariate_normal_survival(math.inf, 0.0, 0.5) == 0.0
        assert bivariate_normal_survival(0.0, math.inf, 0.5) == 0.0
        got = bivariate_normal_survival(-math.inf, 1.0, 0.5)
        assert got == std_normal_survival(1.0)

    @pytest.mark.parametrize("r", [0.3, -1.0])
    def test_saturated_lower_threshold(self, r):
        # a threshold at or below -40 is never exceeded, on either side;
        # at rho = -1 the pair is not reordered, so k takes its own branch
        want = std_normal_survival(1.0)
        assert bivariate_normal_survival(1.0, -45.0, r) == want
        assert bivariate_normal_survival(-45.0, 1.0, r) == want

    @pytest.mark.parametrize("r", [2.0, -3.0, math.nan])
    def test_rho_domain(self, r):
        with pytest.raises(ValueError):
            bivariate_normal_survival(0.0, 0.0, r)

    def test_genz_branch_with_h_above_k(self):
        # evaluated in ascending order; the given order cancels every digit
        # at (8.5744, -8.9823, -0.99367).  Worst measured: 1.8e-12 at
        # (8.68, -8.25, -0.93), where a large threshold costs relative
        # accuracy in every branch off the joint tail
        for h, k, r, want in BVN_GENZ_REFERENCE:
            got = bivariate_normal_survival(h, k, r)
            assert rel_err(got, want) <= 1e-11, (h, k, r)

    # A study evaluates each unordered threshold pair once for
    # -1 < rho < 1, so the swap must not move a single bit there: in the
    # Gauss-Legendre branch, in the Genz branch for |rho| > 0.925 (which
    # orders the pair itself when rho < 0) and in the Gauss-Laguerre
    # tail.  The names date from when only rho >= 0 was symmetric.
    @given(
        st.floats(-8.0, 8.0),
        st.floats(-8.0, 8.0),
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(1.5, -2.0, -0.95)
    def test_bitwise_symmetric_for_nonnegative_rho(self, h, k, r):
        assert bivariate_normal_survival(h, k, r) == bivariate_normal_survival(
            k, h, r)

    @given(
        st.floats(3.0, 37.0),
        st.floats(3.0, 37.0),
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_tail_bitwise_symmetric_for_nonnegative_rho(self, h, k, r):
        assert bivariate_normal_survival(h, k, r) == bivariate_normal_survival(
            k, h, r)


class TestBivariateTail:
    """The min(h, k) >= 3 branch: the direct and the diagonal
    Gauss-Laguerre passes, each certified by a second rule."""

    def test_frozen_reference(self):
        for h, k, r, want in BVN_TAIL_REFERENCE:
            got = bivariate_normal_survival(h, k, r)
            assert rel_err(got, want) <= 1e-13, (h, k, r)

    def test_near_one_reference(self):
        # the diagonal pass, up to the last double below rho = 1
        for h, k, r, want in BVN_NEAR_ONE_REFERENCE:
            got = bivariate_normal_survival(h, k, r)
            assert rel_err(got, want) <= 1e-13, (h, k, r)

    def test_certified_but_wrong_pair(self):
        # the direct pass's edge, 0.003 wide, falls between the first
        # nodes, and both rules agree on a value 1.2e-3 too high
        h, r = 5.5208761402603574, 0.9999998499958104
        want = 1.684469877849303e-08
        assert rel_err(bivariate_normal_survival(h, h, r), want) <= 1e-13
        direct = gauss._laguerre_pass(np.array([h]), np.array([h]), r)
        assert gauss._certified(*direct)[0]
        assert rel_err(direct[0][0], want) > 1e-3

    @given(
        st.floats(3.0, 37.0),
        st.floats(3.0, 37.0),
        st.floats(-0.98, 0.9999),
    )
    def test_matches_adaptive_oracle(self, h, k, r):
        want = tail_survival_adaptive(h, k, r)
        assume(want >= 1e-300)
        # The oracle rounds its survival argument x0 = (c - r a)/s, which
        # costs it up to ~x0^2 ulp (1.8e-13 measured near x0 = 34); the
        # 1e-13 contract itself is held by the frozen table above.
        a, c = max(h, k), min(h, k)
        x0 = (c - r * a) / math.sqrt((1.0 - r) * (1.0 + r))
        tolerance = 1e-13 + 2.5e-16 * x0 * x0
        assert rel_err(bivariate_normal_survival(h, k, r), want) <= tolerance

    def test_certificate_decides_the_fallback(self, laguerre_passes):
        # a point of the reference study: the direct pass is certified
        bivariate_normal_survival(6.0, 6.2, 0.94)
        assert laguerre_passes == [([6.2], [6.0], 0.94)]
        # the edge is 0.13 wide, wide enough to see, but the two rules
        # disagree: the diagonal pass decides
        laguerre_passes.clear()
        got = bivariate_normal_survival(3.0, 3.0, 0.999)
        assert [(a, r > 0.0) for a, _, r in laguerre_passes] == [
            ([3.0], True), ([3.0, 3.0], False)]
        assert rel_err(got, 0.0012708810536105266) <= 1e-13
        # an edge 0.042 wide goes to the diagonal pass without a direct one
        laguerre_passes.clear()
        got = bivariate_normal_survival(3.0, 3.0, 0.9999)
        assert [(a, r > 0.0) for a, _, r in laguerre_passes] == [
            ([3.0, 3.0], False)]
        assert rel_err(got, 0.0013248956714195714) <= 1e-13

    def test_underflowing_pairs_skip_the_fallback(self, laguerre_passes):
        # u_1000(x) for x = 4, 8, 12 against 32, 28, 24 at rho = -0.9:
        # the true values, 6e-355 to 4e-351, are below every double and
        # the two rules do not agree to 1e-14; no relative contract
        # applies below the normal range, so no diagonal pass follows
        c = solve_bn(1000)
        pairs = [(threshold(c, x), threshold(c, 36.0 - x))
                 for x in (4.0, 8.0, 12.0, 24.0, 28.0, 32.0)]
        assert gauss.joint_tail_survival(pairs, -0.9) == [0.0] * 6
        assert [r for _, _, r in laguerre_passes] == [-0.9]

    @pytest.mark.parametrize("r", [-0.9, -0.3, 0.4, 0.94, 0.9995])
    def test_batch_equals_one_pair_calls(self, r):
        # the row evaluation batches a row's tail pairs; no value may
        # depend on which other pairs share the numpy passes
        pairs = [(3.0 + 0.37 * i, 3.0 + 0.53 * ((7 * i) % 23)) for i in range(40)]
        pairs.append((45.0, 4.0))  # phi(a) underflows: 0 without a pass
        got = gauss.joint_tail_survival(pairs, r)
        assert got == [bivariate_normal_survival(h, k, r) for h, k in pairs]
        assert got[-1] == 0.0

    def test_batch_falls_back_per_pair(self, laguerre_passes):
        # at rho = 0.9995: (3, 3.1) has an edge 0.098 wide and goes to the
        # diagonal pass at once; (4, 4) fails the certificate and follows
        # it; (8, 10) is certified
        pairs = [(8.0, 10.0), (3.0, 3.1), (4.0, 4.0)]
        got = gauss.joint_tail_survival(pairs, 0.9995)
        (direct, _, _), (diagonal, _, r) = laguerre_passes
        assert direct == [10.0, 4.0]
        assert diagonal == [3.0, 4.0, 3.1, 4.0] and r < 0.0
        assert got == [bivariate_normal_survival(h, k, 0.9995) for h, k in pairs]

    def test_branch_predicate(self):
        assert gauss.is_joint_tail(3.0, 7.0, 0.5)
        assert gauss.is_joint_tail(7.0, 3.0, -0.99)
        assert not gauss.is_joint_tail(2.999, 7.0, 0.5)
        assert not gauss.is_joint_tail(3.0, math.inf, 0.5)
        for r in (0.0, 1.0, -1.0):
            assert not gauss.is_joint_tail(5.0, 5.0, r)

    def test_unconverged_fallback_raises(self, monkeypatch):
        # no pair certifies below a negative tolerance: the diagonal pass
        # raises with its 64-node value, the survival it would return
        want = bivariate_normal_survival(3.0, 3.0, 0.9999)
        monkeypatch.setattr(gauss, "_TAIL_CERTIFICATE_RTOL", -1.0)
        with pytest.raises(QuadratureConvergenceError) as info:
            bivariate_normal_survival(3.0, 3.0, 0.9999)
        assert info.value.partial.value == want
        assert "rho=0.9999" in str(info.value)

    def test_laguerre_tables_match_scipy(self):
        from scipy.special import roots_laguerre

        for n, nodes, weights in (
            (64, gauss._LAG64_NODES, gauss._LAG64_WEIGHTS),
            (48, gauss._LAG48_NODES, gauss._LAG48_WEIGHTS),
        ):
            want_nodes, want_weights = roots_laguerre(n)
            np.testing.assert_array_max_ulp(np.array(nodes), want_nodes, 4)
            np.testing.assert_array_max_ulp(np.array(weights), want_weights, 4)


def _recording(calls):
    """`gauss._node_sums`, appending (whether it takes the full rules, its
    per-pair arguments) to `calls` at each call."""
    one_call = gauss._node_sums

    def recorded(rules, *pairs):
        calls.append((rules is gauss._LAG_FULL, pairs))
        return one_call(rules, *pairs)

    return recorded


@pytest.fixture
def node_sums(monkeypatch):
    """The `_node_sums` calls of the joint tail, in call order."""
    calls = []
    monkeypatch.setattr(gauss, "_node_sums", _recording(calls))
    return calls


def _full_rule_rows(calls) -> tuple[int, int]:
    """(rows that took the full rules, rows of all passes)."""
    return (sum(len(p[0]) for full, p in calls if full),
            sum(len(p[0]) for full, p in calls if not full))


class TestNodeCut:
    """Each pass evaluates the first 32 nodes of each rule, and the full
    rules only for the pairs where the dropped terms may exceed 2^-60 of
    the kept 64-node sum."""

    @pytest.mark.parametrize("n, grid, fallbacks, rows", [
        ("3:8:0.5", "x=-2:4:0.5", 0, 930),
        ("1:2.5:0.25", "x=-3:1:0.25", 0, 3),
    ])
    def test_reference_studies_keep_the_cut(self, node_sums, n, grid,
                                            fallbacks, rows):
        from hrx.cli import build_study_config, run_study

        run_study(build_study_config({
            "spec": "third-order", "lambda": "1", "alpha": "2", "beta": "5",
            "n": n, "grid": grid}))
        assert _full_rule_rows(node_sums) == (fallbacks, rows)

    @pytest.mark.parametrize("table, fallbacks, rows", [
        # pairs at rho < 0 with x0 > 0, whose exp(v (1 - a/lam)) factor
        # peaks past the cut, and pairs with a >= 10, whose Gaussian
        # factor exp(-v^2/(2 a^2)) decays too slowly for the bound
        (BVN_TAIL_REFERENCE, 19, 58),
        (BVN_NEAR_ONE_REFERENCE, 4, 95),
    ])
    def test_frozen_tables(self, node_sums, table, fallbacks, rows):
        for h, k, r, _ in table:
            bivariate_normal_survival(h, k, r)
        assert _full_rule_rows(node_sums) == (fallbacks, rows)

    @pytest.mark.parametrize("h, r, want", [
        (31.25, 0.5, 7.602931139852261e-287),
        (34.25, 0.8, 6.77088343506947e-287),
        (35.25, 0.9, 9.966790761722461e-288),
    ])
    def test_weight_beyond_the_cut(self, node_sums, h, r, want):
        # the kept nodes alone miss the 64-node sum by 1.6e-13 to 7.4e-12:
        # the pair takes the full rules, and its value is theirs, frozen
        # here bit for bit
        assert bivariate_normal_survival(h, h, r) == want
        (cut, pairs), (full, _) = node_sums
        assert (cut, full) == (False, True)
        short = gauss._node_sums(gauss._LAG_CUT, *pairs)[0, 0]
        whole = gauss._node_sums(gauss._LAG_FULL, *pairs)[0, 0]
        assert abs(short / whole - 1.0) > 1e-13

    @given(st.floats(3.0, 38.0), st.floats(-20.0, 40.0),
           st.floats(-0.999, 0.9999))
    def test_bound_covers_the_dropped_terms(self, a, c, r):
        # for c <= a, as the direct and the conditioning pass use, and any
        # real c at rho < 0, as the diagonal pass does: where a pair keeps
        # the cut, the terms of the dropped nodes, evaluated, sum to at
        # most 2^-60 of its kept 64-node sum, in both rules
        assume(c <= a or r < 0.0)
        calls = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(gauss, "_node_sums", _recording(calls))
            gauss._laguerre_pass(np.array([a]), np.array([c]), r)
        # one pass that kept the cut, for a pair whose phi(a) is normal
        assume(len(calls) == 1 and calls[0][1][0].size == 1)
        (_, pairs), = calls
        kept = gauss._node_sums(gauss._LAG_CUT, *pairs)[0]
        cut = gauss._CUT
        nodes = np.array(gauss._LAG64_NODES[cut:] + gauss._LAG48_NODES[cut:])
        weights = np.zeros((2, nodes.size))
        weights[0, :64 - cut] = gauss._LAG64_WEIGHTS[cut:]
        weights[1, 64 - cut:] = gauss._LAG48_WEIGHTS[cut:]
        dropped = gauss._node_sums(
            gauss._Rules(nodes, -0.5 * nodes * nodes, weights), *pairs)[0]
        assert np.all(dropped <= 2.0**-60 * kept[0])


def mp_erfcx(z: float) -> float:
    """exp(z^2) erfc(z) in 40-digit mpmath, rounded to a double."""
    import mpmath

    with mpmath.workdps(40):
        x = mpmath.mpf(z)
        return float(mpmath.erfc(x) * mpmath.exp(x * x))


class TestErfcx:
    """The tail pass's scaled complement exp(z^2) erfc(z), one frozen
    polynomial in t = (z - 3)/(z + 3) over the whole half-line."""

    # a log grid over the range the tail passes reach, and beyond
    GRID = np.concatenate([[0.0], np.logspace(-8.0, 12.0, 801)])

    def test_coefficients_match_generator(self):
        from make_erfcx_coefficients import coefficients

        assert gauss._ERFCX_POLY == coefficients()

    def test_matches_mpmath(self):
        got = gauss._erfcx(self.GRID)
        want = np.array([mp_erfcx(z) for z in self.GRID])
        assert got[0] == want[0] == 1.0
        assert np.max(np.abs(got - want) / want) <= 1e-15

    def test_matches_scipy(self):
        # a second oracle, itself within ~9e-16 of the truth
        from scipy.special import erfcx

        got, want = gauss._erfcx(self.GRID), erfcx(self.GRID)
        assert np.max(np.abs(got - want) / want) <= 2e-15

    def test_infinity_is_zero(self):
        assert gauss._erfcx(np.array([math.inf])).tolist() == [0.0]

    def test_diagonal_pass_arguments(self, monkeypatch):
        # at the last double below rho = 1 the diagonal pass's other
        # threshold w = (k - h)/(2t) reaches ~2e9 (t = 7.5e-9); every
        # argument it meets holds the mpmath contract
        seen = []
        kernel = gauss._erfcx

        def recorded(z):
            seen.append(z.ravel().tolist())
            return kernel(z)

        monkeypatch.setattr(gauss, "_erfcx", recorded)
        r = math.nextafter(1.0, 0.0)
        for h, k in ((3.0, 3.0), (3.0, 37.0), (10.0, 10.5), (20.0, 30.0)):
            bivariate_normal_survival(h, k, r)
        z = sorted({v for args in seen for v in args})
        assert max(z) > 1e9
        got = gauss._erfcx(np.array(z))
        want = np.array([mp_erfcx(v) for v in z])
        assert np.max(np.abs(got - want) / want) <= 1e-15

    def test_element_is_independent_of_its_array(self):
        # as in a tail pass: (pairs x nodes), each element the same
        # double alone as inside the 2-D array
        z = np.random.default_rng(7).lognormal(1.0, 3.0, (30, 112))
        z[0, :8] = [0.0, 1e-8, 2.9999999, 3.0, 3.0000001, 5e9, 1e12, 1e300]
        batch = gauss._erfcx(z)
        alone = [[gauss._erfcx(np.array([v]))[0] for v in row] for row in z]
        assert batch.tolist() == alone


class TestQuadratureRow:
    """The Gauss-Legendre and Genz branches as one numpy pass per row."""

    @given(
        st.floats(-8.0, 8.0),
        st.floats(-8.0, 8.0),
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True).filter(
            lambda r: r != 0.0),
    )
    @example(1.5, -2.0, -0.95)
    @example(-13.0 / 8.0, 1.0, 0.93)
    def test_matches_scalar_reference(self, h, k, r):
        got = gauss._quadrature_row([(h, k)], r)[0]
        assert abs(got - scalar_reference(h, k, r)) <= 5e-16

    @pytest.mark.parametrize("r", RHO_SEAMS)
    def test_seams_match_scalar_reference(self, r):
        pairs = [(h, k) for h in SEAM_VALUES for k in SEAM_VALUES]
        got = gauss._quadrature_row(pairs, r)
        for (h, k), value in zip(pairs, got):
            assert abs(value - scalar_reference(h, k, r)) <= 5e-16, (h, k, r)

    @pytest.mark.parametrize("row", STUDY_BULK_ROWS, ids=lambda row: str(row.n))
    def test_study_rows_match_scalar_reference(self, row):
        u = [threshold(row.b, x) for x in STUDY_BULK_AXIS]
        pairs = [(h, k) for h in u for k in u
                 if not gauss.is_joint_tail(h, k, row.rho)]
        got = gauss._quadrature_row(pairs, row.rho)
        for (h, k), value in zip(pairs, got):
            assert abs(value - scalar_reference(h, k, row.rho)) <= 5e-16

    @pytest.mark.parametrize("r", [0.0, -0.0])
    def test_independence_is_the_survival_product(self, r):
        # asin(+-0) = +-0 makes the node sum +-0, so the pass leaves the
        # product itself, bit for bit: Gauss-Legendre pairs, joint-tail
        # pairs (min(h, k) >= 3) and pairs on both sides of +-40
        inner = [(0.4, -1.2), (2.0, 2.0), (-3.0, 1.0), (-39.5, 12.0),
                 (3.5, 4.0), (4.0, 3.5), (10.0, 30.0), (37.0, 39.9),
                 (39.999, 1.0), (-39.999, 2.0), (39.999, 39.999)]
        outer = [(40.0, 1.0), (-40.0, 2.0), (1.0, -45.0), (45.0, 3.5),
                 (-math.inf, 0.5), (math.inf, 3.5), (-40.0, -40.0)]

        def product(pairs):
            return [(std_normal_survival(h) * std_normal_survival(k)).hex()
                    for h, k in pairs]

        got = bivariate_survival_row(inner + outer, r)
        assert [v.hex() for v in got] == product(inner + outer)
        got = gauss._quadrature_row(inner, r)
        assert [v.hex() for v in got] == product(inner)

    @given(
        st.lists(st.tuples(
            st.one_of(st.floats(-45.0, 45.0),
                      st.sampled_from([-math.inf, -40.0, 3.0, 40.0, math.inf])),
            st.floats(-9.0, 9.0),
        ), min_size=1, max_size=25),
        st.floats(-1.0, 1.0),
    )
    def test_row_equals_one_pair_calls(self, pairs, r):
        # a row evaluates its pairs together; no value may depend on which
        # other pairs share the passes
        assert bivariate_survival_row(pairs, r) == [
            bivariate_normal_survival(h, k, r) for h, k in pairs]

    def test_row_order_and_branches(self):
        # tail, closed-form and quadrature pairs interleaved, in order
        pairs = [(3.5, 4.0), (1.0, 45.0), (0.2, -0.4), (-41.0, 1.0), (5.0, 3.0)]
        got = bivariate_survival_row(pairs, 0.6)
        assert got == [bivariate_normal_survival(h, k, 0.6) for h, k in pairs]
        assert got[1] == 0.0
        assert got[3] == std_normal_survival(1.0)
        assert bivariate_survival_row([], 0.6) == []

    @pytest.mark.parametrize("rho", [0.6, -0.5, -0.95, 0.0, 1.0, -1.0])
    def test_evaluates_each_distinct_pair_once(self, monkeypatch, rho):
        # (h, k), (k, h) and a repeat, for a tail and an off-tail pair:
        # one pair each for rho > -1, two (both orders) at rho = -1
        pairs = [(3.5, 4.0), (4.0, 3.5), (3.5, 4.0),
                 (0.5, -1.0), (-1.0, 0.5), (0.5, -1.0), (1.0, 1.0)]
        evaluated = []
        closed_form = gauss._closed_form

        def closed(h, k, r):
            value = closed_form(h, k, r)
            if value is not None:
                evaluated.append((h, k))
            return value

        def counted(one_pass):
            def run(group, r):
                evaluated.extend(group)
                return one_pass(group, r)
            return run

        monkeypatch.setattr(gauss, "_closed_form", closed)
        for name in ("joint_tail_survival", "_quadrature_row"):
            monkeypatch.setattr(gauss, name, counted(getattr(gauss, name)))
        got = bivariate_survival_row(pairs, rho)
        if rho > -1.0:
            assert sorted(tuple(sorted(p)) for p in evaluated) == [
                (-1.0, 0.5), (1.0, 1.0), (3.5, 4.0)]
            assert got[0] == got[1] == got[2] and got[3] == got[4] == got[5]
        else:
            assert sorted(evaluated) == sorted(set(pairs))
        monkeypatch.undo()
        assert got == [bivariate_normal_survival(h, k, rho) for h, k in pairs]

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            bivariate_survival_row([(0.0, 0.0)], 1.5)

    def test_no_floating_point_warning_escapes(self):
        # hk < -160 in the Genz branch, for rho > 0 at (-13, 13) and for
        # rho < 0 at (-13, -13); exponentials that underflow; saturated
        # and infinite thresholds
        pairs = [(-13.0, 13.0), (13.0, -13.0), (-13.0, -13.0), (-39.9, 39.9),
                 (39.9, -39.9), (-30.0, 2.5), (0.5, 0.5), (45.0, 1.0),
                 (-45.0, 1.0), (1.0, math.inf), (-math.inf, 2.0), (4.0, 38.0)]
        with warnings.catch_warnings(), np.errstate(
                over="warn", invalid="warn", divide="warn"):
            warnings.simplefilter("error")
            for r in (-0.9999999, -0.99, -0.95, -0.5, 0.1, 0.3, 0.8, 0.95,
                      0.99996, 0.9999999):
                got = bivariate_survival_row(pairs, r)
                assert all(0.0 <= v <= 1.0 for v in got), r
