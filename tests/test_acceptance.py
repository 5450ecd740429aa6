"""Acceptance gate: the ten numbered checks behind this package's
correctness story, one terminal-summary line per criterion.

Each criterion pins its tolerance here.  The checks fall into three
groups: exact identities (1, 2, 6ii), finite-n residual-decay statements
for the expansions (3, 4, 5, 6i, 7, 9, 10), and agreement with
independent oracles (8).  Deviation targets for the residual checks are
the closed-form coefficients the scaled residuals converge to; since
convergence is logarithmic in n, the stated bands are wide.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import hrx
from hrx import ApproxOrder, HRParams

LAM, ALPHA, BETA = 1.0, 2.0, 5.0
SPEC = hrx.ThirdOrderHR(LAM, ALPHA, BETA)
PARAMS = HRParams.finite(LAM, ALPHA, BETA)
SWEEP_N = (10**3, 10**4, 10**5, 10**6, 10**7)

MC_SEED = 20260822


def univariate_exact(n: int, x: float) -> float:
    c = hrx.solve_bn(n)
    return math.exp(
        n * math.log1p(-hrx.std_normal_survival(hrx.threshold(c, x)))
    )


def scaled_joint_residual(n: int, x: float) -> tuple[float, float]:
    """(b^2, b^2 Delta / H) along the third-order spec at x = y."""
    b2 = hrx.solve_bn(n).b_squared
    h = hrx.hr_cdf(PARAMS, x, x)
    delta = hrx.delta_error(n, SPEC, x, x)
    return b2, b2 * delta / h


# -- criterion 1: closed forms vs quadrature ------------------------------

@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_criterion_01_tail_moment_identities(lam, criterion):
    worst = 0.0
    for k in range(4):
        for x in (-2.0, 0.0, 2.0):
            for y in (-2.0, 0.0, 2.0):
                closed = hrx.I_closed(k, lam, x, y)
                ref = hrx.I_k_quadrature(k, lam, x, y)
                worst = max(worst, abs(closed - ref) / max(abs(ref), 1e-30))
    criterion(1, f"tail moments lam={lam}", worst <= 1e-9,
              f"worst rel {worst:.3e} tol 1e-9")


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_criterion_01_tau3_integral(lam, criterion):
    worst = 0.0
    for x in (-2.0, 0.0, 2.0):
        for y in (-2.0, 0.0, 2.0):

            def integrand(z, x=x, lam=lam):
                w = lam + (x - z) / (2.0 * lam)
                poly = z**4 / 8.0 - z * z / 2.0 - 2.0
                return hrx.std_normal_cdf_array(w) * np.exp(-z) * poly

            ref = hrx.quad_semi_infinite(integrand, y, 1e-12).value
            closed = hrx.tau3(lam, x, y)
            worst = max(worst, abs(closed - ref) / max(abs(ref), 1e-30))
    criterion(1, f"tau3 integral lam={lam}", worst <= 1e-9,
              f"worst rel {worst:.3e} tol 1e-9")


# -- criterion 2: max-stability -------------------------------------------

@pytest.mark.parametrize(
    "params",
    [HRParams.zero(), HRParams.finite(0.5), HRParams.finite(1.0),
     HRParams.finite(2.0), HRParams.infinity()],
    ids=["zero", "lam0.5", "lam1", "lam2", "infinity"],
)
def test_criterion_02_max_stability(params, criterion):
    worst = 0.0
    for m in (2, 10, 100):
        shift = math.log(m)
        for x in (-1.0, 0.0, 1.0, 3.0):
            for y in (-1.0, 0.0, 1.0, 3.0):
                lhs = hrx.hr_cdf(params, x + shift, y + shift) ** m
                rhs = hrx.hr_cdf(params, x, y)
                worst = max(worst, abs(lhs - rhs))
    label = {0.0: "zero", math.inf: "infinity"}.get(params.lam, "finite")
    criterion(2, f"max-stability {label}",
              worst <= 1e-12, f"worst abs {worst:.3e} tol 1e-12")


# -- criterion 3: univariate third order ----------------------------------

def univariate_third_residual(n: int, x: float) -> tuple[float, float]:
    b2 = hrx.solve_bn(n).b_squared
    lim = hrx.gumbel_cdf(x)
    s = hrx.s_term(x)
    target = (hrx.t_term(x) + 0.5 * s * s) * lim
    resid = b2 * (b2 * (univariate_exact(n, x) - lim) - s * lim) - target
    return resid, target


@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0])
def test_criterion_03_univariate_third_order(x, criterion):
    resid, target = univariate_third_residual(10**8, x)
    bound = 0.15 * abs(target) + 1e-6
    criterion(3, f"n=1e8 x={x}", abs(resid) <= bound,
              f"|resid| {abs(resid):.4e} bound {bound:.4e}")


@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0])
def test_criterion_03_residual_decreases(x, criterion):
    near = abs(univariate_third_residual(10**8, x)[0])
    far = abs(univariate_third_residual(10**4, x)[0])
    criterion(3, f"decrease x={x}", near < far,
              f"{near:.4e} at n=1e8 vs {far:.4e} at n=1e4")


# -- criterion 4: second-order joint coefficient --------------------------

@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0])
def test_criterion_04_kappa_tracks_residual(x, criterion):
    kap = hrx.kappa(ALPHA, LAM, x, x)
    _, scaled = scaled_joint_residual(10**7, x)
    dev = abs(scaled - kap)
    bound = max(0.15 * abs(kap), 1e-4)
    criterion(4, f"n=1e7 x=y={x}", dev <= bound,
              f"dev {dev:.4e} bound {bound:.4e} kappa {kap:.4f}")


@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0])
def test_criterion_04_deviation_decreases(x, criterion):
    kap = hrx.kappa(ALPHA, LAM, x, x)
    far = abs(scaled_joint_residual(10**3, x)[1] - kap)
    near = abs(scaled_joint_residual(10**7, x)[1] - kap)
    criterion(4, f"decrease x=y={x}", near < far,
              f"{near:.4e} at n=1e7 vs {far:.4e} at n=1e3")


# -- criterion 5: third-order joint coefficient ---------------------------

@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0])
def test_criterion_05_tau_tracks_residual(x, criterion):
    kap = hrx.kappa(ALPHA, LAM, x, x)
    target = hrx.tau(ALPHA, BETA, LAM, x, x) + 0.5 * kap * kap
    b2, scaled = scaled_joint_residual(10**7, x)
    dev = abs(b2 * (scaled - kap) - target)
    bound = max(0.25 * abs(target), 1e-3)
    criterion(5, f"n=1e7 x=y={x}", dev <= bound,
              f"dev {dev:.4e} bound {bound:.4e} target {target:.4f}")


@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0])
def test_criterion_05_third_order_error_decreases(x, criterion, third_order_study):
    # b^4-scaled third-order error must come down across the sweep; the
    # approach is not monotone decade to decade, so endpoints are compared
    vals = [
        r.err[2] * (r.b * r.b) ** 2
        for r in third_order_study
        if r.x == x and r.y == x
    ]
    assert len(vals) == len(SWEEP_N)
    criterion(5, f"scaled err3 decrease x=y={x}", vals[-1] < vals[0],
              f"{vals[-1]:.4e} at n=1e7 vs {vals[0]:.4e} at n=1e3")


# -- criterion 6: independence-side and dependence-side reductions --------

@pytest.mark.parametrize("rho", [0.0, -1.0])
@pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
def test_criterion_06_independence_third_order(rho, x, criterion):
    n = 10**8
    b2 = hrx.solve_bn(n).b_squared
    h_inf = hrx.hr_cdf(HRParams.infinity(), x, x)
    s_sum = 2.0 * hrx.s_term(x)
    target = (2.0 * hrx.t_term(x) + 0.5 * s_sum * s_sum) * h_inf
    delta = hrx.exact_joint_max_cdf(n, rho, x, x) - h_inf
    resid = b2 * (b2 * delta - s_sum * h_inf) - target
    bound = max(0.15 * abs(target), 1e-4)
    criterion(6, f"rho={rho} x=y={x}", abs(resid) <= bound,
              f"|resid| {abs(resid):.4e} bound {bound:.4e}")


def test_criterion_06_comonotone_reduction(criterion):
    worst = 0.0
    for n in (10**3, 10**6):
        for x, y in ((0.0, 1.0), (1.0, 0.5), (-1.0, 2.0)):
            m = min(x, y)
            exact_joint = hrx.exact_joint_max_cdf(n, 1.0, x, y)
            exact_uni = univariate_exact(n, m)
            worst = max(worst, abs(exact_joint - exact_uni) / exact_uni)
            for order in ApproxOrder:
                joint = hrx.hr_approx(n, HRParams.zero(), x, y, order)
                uni = hrx.univariate_gumbel_approx(n, m, order)
                worst = max(worst, abs(joint - uni) / uni)
    criterion(6, "comonotone reduction", worst <= 1e-12,
              f"worst rel {worst:.3e} tol 1e-12")


# -- criterion 7: borderline correlation sequences stay bounded -----------

@pytest.mark.parametrize(
    "spec",
    [hrx.CorollaryInfinity(1.0), hrx.CorollaryZero(1.0)],
    ids=["to-infinity", "to-zero"],
)
@pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
def test_criterion_07_scaled_error_bounded(spec, x, criterion):
    vals = []
    for n in (10**3, 10**4, 10**5, 10**6, 10**7, 10**8):
        b2 = hrx.solve_bn(n).b_squared
        vals.append(b2 * abs(hrx.delta_error(n, spec, x, x)))
    ok = vals[-1] <= 2.0 * max(vals[:-1])
    kind = "to-infinity" if isinstance(spec, hrx.CorollaryInfinity) else "to-zero"
    criterion(7, f"{kind} x=y={x}", ok,
              f"last {vals[-1]:.4e} vs 2*max(earlier) {2.0 * max(vals[:-1]):.4e}")


# -- criterion 8: independent oracles -------------------------------------

@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.9])
@pytest.mark.parametrize("point", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                                   (2.0, 2.0)])
def test_criterion_08_monte_carlo_agreement(rho, point, criterion):
    x, y = point
    est, se = hrx.mc_triangular_maxima(50, rho, x, y, 10**6, MC_SEED)
    exact = hrx.exact_joint_max_cdf(50, rho, x, y)
    dev = abs(est - exact)
    criterion(8, f"mc rho={rho} ({x},{y})", dev <= 3.0 * se,
              f"dev {dev:.4e} vs 3se {3.0 * se:.4e}")


def test_criterion_08_tail_approx_deficit_scales(criterion):
    # the two-term tail approximation misses by O(b^{-4}) relative terms,
    # so its deficit should shrink roughly like the b^2 ratio squared
    rho, x, y = 0.5, 1.0, 1.0
    deficits = {}
    for n in (10**4, 10**6):
        c = hrx.solve_bn(n)
        exact_np = n * hrx.bivariate_normal_survival(
            hrx.threshold(c, x), hrx.threshold(c, y), rho
        )
        approx = hrx.lemma31_tail_approx(n, rho, x, y, ApproxOrder.SECOND)
        deficits[n] = abs(approx - exact_np)
    ratio = hrx.solve_bn(10**6).b_squared / hrx.solve_bn(10**4).b_squared
    factor = deficits[10**4] / deficits[10**6]
    lo, hi = ratio**1.5, ratio**2.5
    criterion(8, "tail-approx deficit scaling", lo <= factor <= hi,
              f"factor {factor:.4f} band [{lo:.4f}, {hi:.4f}]")


# -- criterion 9: fitted convergence rates --------------------------------

def test_criterion_09_first_order_rate(third_order_study, criterion):
    records = [r for r in third_order_study if r.x == 1.0 and r.y == 1.0]
    fit = hrx.fit_rate(records, ApproxOrder.FIRST)
    criterion(9, "order-1 slope", -1.35 < fit.slope < -0.75,
              f"slope {fit.slope:.5f} band (-1.35, -0.75) "
              f"r2 {fit.r_squared:.4f}")


def test_criterion_09_second_order_rate(third_order_study, criterion):
    records = [r for r in third_order_study if r.x == 1.0 and r.y == 1.0]
    fit = hrx.fit_rate(records, ApproxOrder.SECOND)
    criterion(9, "order-2 slope", -2.5 < fit.slope < -1.5,
              f"slope {fit.slope:.5f} band (-2.5, -1.5) "
              f"r2 {fit.r_squared:.4f}")


# -- criterion 10: expansion-steering coefficients ------------------------

@pytest.mark.parametrize(
    "name,index,limit",
    [("A1", 0, ALPHA - LAM**3 / 2.0),
     ("A2", 1, -ALPHA / (2.0 * LAM**2) - LAM / 4.0),
     ("A3", 2, LAM)],
)
def test_criterion_10_a_coefficient_limits(name, index, limit, criterion):
    row = hrx.make_row(SPEC, 10**6)
    coeffs = hrx.a_coefficients(row, LAM)
    dev = abs(coeffs[index] - limit)
    bound = 5.0 / row.b.b_squared
    criterion(10, name, dev <= bound,
              f"dev {dev:.4f} bound {bound:.4f} limit {limit:.4f}")
