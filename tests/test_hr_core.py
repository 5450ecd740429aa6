"""Max-stable limit family and expansion coefficients.

Closed-form coefficient literals were frozen from 50-digit evaluations of
the same expressions; limit-consistency checks exercise each coefficient
against the quantity it is defined to approximate.
"""
from __future__ import annotations

import itertools
import math
import sys
import warnings

import pytest
from hypothesis import example, given, strategies as st

import hrx
from hrx import (
    ApproxOrder,
    HRParams,
    I_closed,
    gumbel_cdf,
    hr_approx,
    hr_cdf,
    hr_expansion,
    hr_expansion_grid,
    kappa,
    kappa1,
    s_term,
    t_term,
    tau,
    tau1,
    tau2,
    tau3,
    univariate_gumbel_approx,
)

# hr_cdf(lambda=1) on the diagonal x = y, and one off-diagonal point
H_LAM1_DIAGONAL = {
    -1.0: 0.010316360256977626,
    0.0: 0.1858733981481844,
    1.0: 0.53846818224224966,
    2.0: 0.79634142516175431,
}
H_LAM1_0_2 = 0.35172083174886453

# coefficients along alpha=2, beta=5, lambda=1 at x = y
KAPPA_DIAGONAL = {
    -1.0: -0.31377826426923929,
    0.0: 0.24197072451914335,
    1.0: 0.8395242501327224,
    2.0: 0.81266750645727799,
}
KAPPA1_DIAGONAL = {
    -1.0: 2.3828233984851977,
    0.0: 0.55928123238205745,
    1.0: 0.089016054915951472,
    2.0: -0.01019613091781425,
}
TAU1_DIAGONAL = {
    -1.0: 11.758686006323126,
    0.0: 4.4924097780919831,
    1.0: 1.7693972109880373,
    2.0: 0.7142604264797972,
}
TAU_DIAGONAL = {
    -1.0: 20.75966508699398,
    0.0: 5.6863120261998687,
    1.0: 0.42650924361091564,
    2.0: -1.632690740703107,
}

S_AT_1 = 0.55181916175716348
T_AT_1 = -1.3335629742464784
TAU1_PURE_LAM1_00 = -0.22822789457900461
TAU2_A2_LAM1_00 = -0.075339783343770753
TAU3_LAM1_00 = -1.2692420314516564
I0_LAM1_00 = 0.3173105078629141

GRID = [-1.0, 0.0, 1.0, 2.5]
OFF_DIAGONAL = [(-1.0, 0.5), (0.0, 1.0), (2.0, 0.0), (1.0, 2.5)]


def rel_err(got, want):
    return abs(got - want) / abs(want)


def tau1_mpmath(alpha, beta, lam, x, y):
    """tau1's closed form, term by term as derived, in 50-digit mpmath."""
    import mpmath

    with mpmath.workdps(50):
        a, b, l, x, y = (mpmath.mpf(v) for v in (alpha, beta, lam, x, y))
        q = mpmath.mpf(1) / 4
        w = l + (y - x) / (2 * l)
        c_pb = (2 * l**8 + 8 * l**6 - 4 * l**6 * x + 2 * l**4 * x * x
                - 4 * l**4 * x - 8 * a * l**3 + 4 * a * l * x)
        c_ph = (2 * b + 9 * a * l**2 - 23 * q * l**5 - 3 * q / 2 * l**3 * x * y
                - a * l**2 * x + 3 * q * a * y * y - a * a / (4 * l**3) * y * y
                - a * a / (4 * l**3) * x * x - a * l**2 * y - q * a * x * x
                - 7 * q * l**7 + 14 * q * l**5 * x - q / 4 * l**3 * x * x
                - a * l**4 + a * a * l + 6 * q * l**5 * y
                - 9 * q / 4 * l**3 * y * y - 2 * q * a * x * y
                + a * a / (2 * l**3) * x * y)
        return float(mpmath.exp(-x)
                     * (c_pb * mpmath.ncdf(-w) + c_ph * mpmath.npdf(w)))


class TestParams:
    def test_constructors(self):
        p = HRParams.finite(1.5, 2.0, 3.0)
        assert (p.lam, p.alpha, p.beta) == (1.5, 2.0, 3.0)
        assert HRParams.zero() == HRParams(0.0)
        assert HRParams.infinity() == HRParams(math.inf)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_finite_needs_positive_finite_lambda(self, lam):
        with pytest.raises(ValueError):
            HRParams.finite(lam)

    @pytest.mark.parametrize("lam", [-1.0, -math.inf, math.nan])
    def test_lambda_domain(self, lam):
        with pytest.raises(ValueError):
            HRParams(lam)

    def test_degenerate_regimes_reject_extras(self):
        with pytest.raises(ValueError):
            HRParams(0.0, alpha=1.0)
        with pytest.raises(ValueError):
            HRParams(math.inf, alpha=1.0)
        with pytest.raises(ValueError):
            HRParams(0.0, beta=-2.0)

    def test_order_values(self):
        assert [o.value for o in ApproxOrder] == [1, 2, 3]


class TestHrCdf:
    def test_frozen_values(self):
        p = HRParams.finite(1.0)
        for x, want in H_LAM1_DIAGONAL.items():
            assert rel_err(hr_cdf(p, x, x), want) <= 1e-14
        assert rel_err(hr_cdf(p, 0.0, 2.0), H_LAM1_0_2) <= 1e-14

    def test_degenerate_regimes(self):
        for x, y in OFF_DIAGONAL + [(0.0, 0.0)]:
            zero = hr_cdf(HRParams.zero(), x, y)
            assert zero == math.exp(-math.exp(-min(x, y)))
            indep = hr_cdf(HRParams.infinity(), x, y)
            assert rel_err(indep, gumbel_cdf(x) * gumbel_cdf(y)) <= 1e-15

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(0.1, 5.0),
    )
    def test_symmetry(self, x, y, lam):
        p = HRParams.finite(lam)
        a, b = hr_cdf(p, x, y), hr_cdf(p, y, x)
        assert abs(a - b) <= 1e-15

    def test_margin_recovery(self):
        # y -> inf leaves the Gumbel margin in x
        for lam in (0.5, 1.0, 3.0):
            p = HRParams.finite(lam)
            for x in GRID:
                assert abs(hr_cdf(p, x, 40.0) - gumbel_cdf(x)) <= 1e-12

    def test_continuity_at_small_lambda(self):
        # pointwise limit lambda -> 0 off the diagonal; on the diagonal
        # the gap is O(lambda), so only x != y is checked this tightly
        p = HRParams.finite(1e-4)
        for x, y in OFF_DIAGONAL:
            assert abs(hr_cdf(p, x, y) - hr_cdf(HRParams.zero(), x, y)) <= 1e-8

    def test_continuity_at_large_lambda(self):
        p = HRParams.finite(30.0)
        for x, y in itertools.product(GRID, GRID):
            gap = abs(hr_cdf(p, x, y) - hr_cdf(HRParams.infinity(), x, y))
            assert gap <= 1e-8

    def test_extreme_lambda_takes_the_finite_formula(self):
        # every finite lambda is its own member: on the diagonal
        # H_lam(x, x) = exp(-2 Phi(lam) e^{-x}), within O(lam) of H_0 and
        # O(1/lam) of H_inf, and equal to neither
        for lam, boundary in ((1e-7, HRParams.zero()),
                              (2e6, HRParams.infinity())):
            for x in (-1.0, 0.0, 0.5):
                got = hr_cdf(HRParams.finite(lam), x, x)
                want = math.exp(-2.0 * hrx.std_normal_cdf(lam) * math.exp(-x))
                assert math.isclose(got, want, rel_tol=1e-15)
                assert abs(got - hr_cdf(boundary, x, x)) <= min(lam, 1.0 / lam)
        assert hr_cdf(HRParams.finite(1e-7), 0.0, 0.0) != gumbel_cdf(0.0)

    def test_monotone_in_lambda(self):
        # dependence weakens as lambda grows
        lams = (0.2, 0.5, 1.0, 2.0, 4.0)
        vals = [hr_cdf(HRParams.finite(lam), 0.5, 0.5) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_gumbel_cdf(self):
        for x in GRID:
            assert gumbel_cdf(x) == math.exp(-math.exp(-x))
        assert gumbel_cdf(-math.inf) == 0.0
        assert gumbel_cdf(math.inf) == 1.0


class TestUnivariateCoefficients:
    def test_frozen_values(self):
        assert rel_err(s_term(1.0), S_AT_1) <= 1e-14
        assert rel_err(t_term(1.0), T_AT_1) <= 1e-14

    def test_zeros(self):
        assert s_term(0.0) == 0.0
        assert s_term(-2.0) == 0.0
        assert t_term(0.0) == 0.0

    def test_signs(self):
        assert s_term(1.0) > 0.0
        assert s_term(-1.0) < 0.0

    def test_gumbel_approx_orders_improve(self):
        n, x = 10**6, 1.0
        c = hrx.solve_bn(n)
        exact = math.exp(
            n * math.log1p(-hrx.std_normal_survival(hrx.threshold(c, x)))
        )
        errs = [
            abs(univariate_gumbel_approx(n, x, o) - exact) for o in ApproxOrder
        ]
        assert errs[2] < errs[1] < errs[0]

    def test_gumbel_approx_order_one_is_limit(self):
        assert univariate_gumbel_approx(10, 0.7, ApproxOrder.FIRST) == gumbel_cdf(
            0.7
        )

    def test_gumbel_approx_clamped(self):
        v = univariate_gumbel_approx(3, 5.0, ApproxOrder.THIRD)
        assert 0.0 <= v <= 1.0

    def test_gumbel_approx_domain(self):
        with pytest.raises(ValueError):
            univariate_gumbel_approx(2, 0.0, ApproxOrder.SECOND)

    @pytest.mark.parametrize("order", [ApproxOrder.SECOND, ApproxOrder.THIRD])
    def test_gumbel_approx_where_exp_overflows(self, order):
        # Lambda(-710) is 0 while s and t overflow; 0 * inf gave NaN
        assert univariate_gumbel_approx(100, -710.0, order) == 0.0


class TestKappa:
    def test_frozen_values(self):
        for x, want in KAPPA_DIAGONAL.items():
            assert rel_err(kappa(2.0, 1.0, x, x), want) <= 1e-13

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(0.2, 3.0),
        st.floats(-2.0, 2.0),
    )
    def test_symmetry(self, x, y, lam, alpha):
        a = kappa(alpha, lam, x, y)
        b = kappa(alpha, lam, y, x)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_origin_identity(self):
        # s(0) = 0 leaves only the density term at the origin
        for alpha, lam in ((2.0, 1.0), (0.0, 0.5), (-1.0, 2.0)):
            want = (2.0 * alpha - lam * (lam * lam + 2.0)) * hrx.std_normal_pdf(
                lam
            )
            assert abs(kappa(alpha, lam, 0.0, 0.0) - want) <= 1e-15 * max(
                1.0, abs(want)
            )

    def test_origin_cancellation(self):
        lam = 1.3
        alpha = lam * (lam * lam + 2.0) / 2.0
        assert abs(kappa(alpha, lam, 0.0, 0.0)) <= 1e-15

    def test_large_lambda_limit(self):
        for x, y in itertools.product(GRID, GRID):
            want = s_term(x) + s_term(y)
            assert abs(kappa(0.0, 30.0, x, y) - want) <= 1e-6

    def test_small_lambda_limit(self):
        # off the diagonal; on it the gap is O(lambda)
        for x, y in OFF_DIAGONAL:
            want = s_term(min(x, y))
            assert abs(kappa(0.0, 1e-3, x, y) - want) <= 1e-6

    @pytest.mark.parametrize("lam", [0.0, -2.0, math.nan, math.inf])
    def test_lambda_domain(self, lam):
        with pytest.raises(ValueError):
            kappa(0.0, lam, 0.0, 0.0)


class TestKappa1:
    def test_frozen_values(self):
        for x, want in KAPPA1_DIAGONAL.items():
            assert rel_err(kappa1(2.0, 1.0, x, x), want) <= 1e-13

    def test_density_term_cancellation(self):
        # alpha = 3 lambda^3 / 2 kills the density term at x = 0
        for lam in (0.7, 1.0, 1.8):
            alpha = 1.5 * lam**3
            for y in (-1.0, 0.0, 2.0):
                w = lam + y / (2.0 * lam)
                want = 2.0 * lam**4 * hrx.std_normal_survival(w)
                got = kappa1(alpha, lam, 0.0, y)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_vanishes_as_y_grows(self):
        assert abs(kappa1(2.0, 1.0, 0.0, 100.0)) <= 1e-50

    def test_joint_tail_defining_limit(self):
        # kappa1 + tau1/b^2 tracks b^2 (n P(X > u_n(x), Y > u_n(y)) - L)
        # along the third-order array, L the limiting tail sum
        lam, alpha, beta = 1.0, 2.0, 5.0
        spec = hrx.ThirdOrderHR(lam, alpha, beta)
        x = y = -1.0
        w1 = lam + (y - x) / (2.0 * lam)
        w2 = lam + (x - y) / (2.0 * lam)
        limit_sum = math.exp(-x) * hrx.std_normal_survival(w1) + math.exp(
            -y
        ) * hrx.std_normal_survival(w2)
        k1 = kappa1(alpha, lam, x, y)
        t1 = tau1(alpha, beta, lam, x, y)
        devs_k1 = []
        devs_refined = []
        for n in (10**4, 10**6):
            row = hrx.make_row(spec, n)
            b2 = row.b.b_squared
            c = hrx.solve_bn(n)
            u1, u2 = hrx.threshold(c, x), hrx.threshold(c, y)
            scaled = b2 * (
                n * hrx.bivariate_normal_survival(u1, u2, row.rho) - limit_sum
            )
            devs_k1.append(abs(scaled - k1))
            devs_refined.append(abs(scaled - (k1 + t1 / b2)))
        assert devs_k1[1] < devs_k1[0]
        assert devs_refined[1] < devs_refined[0]
        assert devs_refined[1] <= 0.10 * abs(k1)

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            kappa1(0.0, 0.0, 0.0, 0.0)


class TestTauPieces:
    def test_tau1_frozen_values(self):
        for x, want in TAU1_DIAGONAL.items():
            assert rel_err(tau1(2.0, 5.0, 1.0, x, x), want) <= 1e-13

    @pytest.mark.parametrize("lam", [1e-4, 1e-5])
    def test_tau1_small_lambda_matches_mpmath(self, lam):
        # on the diagonal the alpha^2/lam^3 terms are ~1e15 and cancel
        # exactly; written term by term in doubles they left tau1 66% off
        # at lam = 1e-5
        got = tau1(-2.0, 0.0, lam, 1.0, 1.0)
        assert rel_err(got, tau1_mpmath(-2.0, 0.0, lam, 1.0, 1.0)) <= 1e-13

    def test_tau1_pure_lambda_reduction(self):
        # alpha = beta = 0 at lambda=1, x=y=0 collapses to two monomials
        want = 10.0 * hrx.std_normal_survival(1.0) - 7.5 * hrx.std_normal_pdf(
            1.0
        )
        got = tau1(0.0, 0.0, 1.0, 0.0, 0.0)
        assert rel_err(got, TAU1_PURE_LAM1_00) <= 1e-13
        assert abs(got - want) <= 1e-15

    def test_tau2_frozen_value(self):
        assert rel_err(tau2(2.0, 1.0, 0.0, 0.0), TAU2_A2_LAM1_00) <= 1e-13

    def test_tau2_vanishes_as_y_grows(self):
        assert abs(tau2(2.0, 1.0, 0.0, 100.0)) <= 1e-50

    def test_tau3_frozen_value(self):
        assert rel_err(tau3(1.0, 0.0, 0.0), TAU3_LAM1_00) <= 1e-13

    def test_tau_frozen_values(self):
        for x, want in TAU_DIAGONAL.items():
            assert rel_err(tau(2.0, 5.0, 1.0, x, x), want) <= 1e-12

    def test_tau_symmetry(self):
        for lam in (0.5, 1.0):
            for x, y in OFF_DIAGONAL:
                a = tau(2.0, 5.0, lam, x, y)
                b = tau(2.0, 5.0, lam, y, x)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_tau_large_lambda_origin(self):
        # every dependence term carries a phi(lambda)-scale factor
        assert abs(tau(0.0, 0.0, 30.0, 0.0, 0.0)) <= 1e-12


class TestIClosed:
    def test_frozen_value(self):
        got = I_closed(0, 1.0, 0.0, 0.0)
        assert rel_err(got, I0_LAM1_00) <= 1e-13
        assert rel_err(got, 2.0 * hrx.std_normal_survival(1.0)) <= 1e-14

    def test_vanishes_as_y_grows(self):
        for k in range(4):
            assert abs(I_closed(k, 1.0, 0.0, 60.0)) <= 1e-12

    def test_lower_limit_derivative(self):
        # d/dy I_0 = -phi(lam + (x-y)/(2 lam)) e^{-y}
        lam, x, y = 1.0, 0.0, 0.0
        h = 1e-5
        num = (I_closed(0, lam, x, y + h) - I_closed(0, lam, x, y - h)) / (
            2.0 * h
        )
        want = -hrx.std_normal_pdf(lam + (x - y) / (2.0 * lam)) * math.exp(-y)
        assert rel_err(num, want) <= 1e-6

    @pytest.mark.parametrize("k", [-1, 4, 10])
    def test_k_domain(self, k):
        with pytest.raises(ValueError):
            I_closed(k, 1.0, 0.0, 0.0)

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            I_closed(0, -1.0, 0.0, 0.0)

    def test_finite_where_the_weight_underflows(self):
        # x^3 overflows where e^{-x} is 0; 0 * inf gave NaN
        for k in range(4):
            assert I_closed(k, 1.0, 1e103, 0.0) == 0.0
        assert kappa1(1.0, 1.0, 1e103, 0.0) == 0.0


class TestHrExpansion:
    POINTS = ((0.3, 1.1), (-1.0, -1.0), (2.0, -0.5), (-3.0, 4.0))

    def test_finite_terms_match_scalar_functions(self):
        for lam, alpha, beta in ((1.0, 2.0, 5.0), (0.4, -1.0, 3.0), (3.0, 0.0, 0.0)):
            p = HRParams.finite(lam, alpha, beta)
            for x, y in self.POINTS:
                h, c1, c2 = hr_expansion(p, x, y)
                assert h == hr_cdf(p, x, y)
                assert c1 == kappa(alpha, lam, x, y)
                assert c2 == tau(alpha, beta, lam, x, y) + 0.5 * c1 * c1

    def test_boundary_terms_are_univariate(self):
        for x, y in self.POINTS:
            m = min(x, y)
            sm = s_term(m)
            zero = (gumbel_cdf(m), sm, t_term(m) + 0.5 * sm * sm)
            assert hr_expansion(HRParams.zero(), x, y) == zero
            ssum = s_term(x) + s_term(y)
            infinity = (gumbel_cdf(x) * gumbel_cdf(y), ssum,
                        t_term(x) + t_term(y) + 0.5 * ssum * ssum)
            assert hr_expansion(HRParams.infinity(), x, y) == infinity
            # a finite lam near a boundary takes the finite formulas,
            # within O(lam) of the lam = 0 terms (6.7 lam at most here)
            # and O(1/lam) of the lam = inf terms
            for lam, want, gap in ((1e-7, zero, 10.0 * 1e-7),
                                   (2e6, infinity, 1.0 / 2e6)):
                got = hr_expansion(HRParams.finite(lam), x, y)
                assert all(abs(g - w) <= gap for g, w in zip(got, want))

    def test_small_lambda_keeps_alpha(self):
        # on the diagonal kappa -> 2 alpha phi(0) as lam -> 0+, which no
        # lam = 0 term carries; 40 digits of (2 alpha - lam (lam^2 + 2))
        # phi(lam) at lam = 1e-7, alpha = -2
        c1 = hr_expansion(HRParams.finite(1e-7, -2.0, 0.0), 0.0, 0.0)[1]
        assert math.isclose(c1, -1.5957692013941788, rel_tol=1e-12)

    def test_small_lambda_kappa_tracks_exact_law(self):
        # b^2 (F - H)/H -> kappa along ThirdOrderHR(1e-7, -2, 0) at
        # x = y = 0: the exact law reads -1.5997, -1.6003, -1.5996, and
        # kappa -1.5958 (the lam = 0 member's s(0) = 0 missed by 1.6)
        spec = hrx.ThirdOrderHR(1e-7, -2.0, 0.0)
        h, c1, _ = hr_expansion(spec.params, 0.0, 0.0)
        for n in (10**6, 10**10, 10**14):
            row = hrx.make_row(spec, n)
            assert not row.clipped
            exact = hrx.exact_joint_max_cdf(n, row.rho, 0.0, 0.0)
            assert abs(row.b.b_squared * (exact - h) / h - c1) <= 0.01

    @pytest.mark.parametrize("lam", [1e-300, 5e-324])
    def test_tau_at_tiny_lambda(self, lam):
        # tau1's alpha^2 (x-y)^2 / (4 lam^3), with lam^3 = 0 below
        # lam ~ 1e-108, raised ZeroDivisionError: a finite value or a
        # ValueError is allowed, nothing else
        for alpha, beta in ((0.0, 0.0), (-2.0, 0.0), (2.0, 5.0)):
            for x, y in ((0.0, 0.0), (0.3, 1.1), (1.1, 0.3)):
                for call in (lambda: tau1(alpha, beta, lam, x, y),
                             lambda: tau(alpha, beta, lam, x, y)):
                    try:
                        value = call()
                    except ValueError:
                        continue
                    assert math.isfinite(value)
        # on the diagonal only 2 beta phi(0) e^{-x} survives in tau1
        assert math.isclose(tau1(2.0, 5.0, lam, 0.0, 0.0),
                            10.0 * hrx.std_normal_pdf(0.0), rel_tol=1e-15)

    def test_approximants_are_hr_approx(self):
        p = HRParams.finite(1.0, 2.0, 5.0)
        for n in (3, 10**3, 10**8):
            b2 = hrx.solve_bn(n).b_squared
            for x, y in self.POINTS:
                got = hrx.hr_core.approximants(*hr_expansion(p, x, y), b2)
                assert got == tuple(
                    hr_approx(n, p, x, y, order) for order in ApproxOrder
                )

    def test_pieces_do_not_need_exp_minus_y(self):
        # e^{-y} overflows at y = -710; only H and the pieces built on
        # s(y), t(y) use it
        assert kappa1(1.0, 1.0, 0.0, -710.0) == 2.0
        assert tau1(1.0, 1.0, 1.0, 0.0, -710.0) == 2.0
        assert tau2(1.0, 1.0, 0.0, -710.0) == -10.0
        assert I_closed(2, 1.0, 0.0, -710.0) == 16.0

    def test_huge_w_is_finite(self):
        # w = lam + (y-x)/(2 lam) = 300714.28..., where the normal
        # density's split square overflows exp(); the terms stay finite
        h, c1, c2 = hr_expansion(HRParams.finite(1e-5), 0.0, 6.014285714285714)
        assert h == gumbel_cdf(0.0)
        assert math.isfinite(c1) and math.isfinite(c2)


# lam at both boundaries, at both ends of the double range, where lam^3
# underflows (1e-103), and in the interior
GRID_LAMS = st.one_of(
    st.sampled_from([0.0, math.inf, 5e-324, 1e-300, 1e-103, 1e300, 1.7e308]),
    st.floats(0.05, 7.0),
)
# a few values repeat across a grid; the special ones sit where e^{-v}
# overflows or the polynomials overflow while their weight underflows
GRID_VALUES = st.one_of(
    st.sampled_from([-3.0, -0.5, 0.0, -0.0, 1.25, 4.0]),
    st.sampled_from([709.78, -709.78, 1e78, -1e78, 1e155, -1e155]),
    st.floats(-40.0, 40.0),
)


@st.composite
def grid_params(draw):
    lam = draw(GRID_LAMS)
    if lam in (0.0, math.inf):
        return HRParams(lam)
    return HRParams.finite(lam, draw(st.floats(-5.0, 5.0)),
                           draw(st.floats(-20.0, 20.0)))


def same_double(a: float, b: float) -> bool:
    """a and b are the same double: zeros agree in sign, NaN matches NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestHrExpansionGrid:
    @given(grid_params(),
           st.lists(st.tuples(GRID_VALUES, GRID_VALUES), min_size=1, max_size=25))
    def test_grid_is_pointwise_bit_for_bit(self, params, points):
        with warnings.catch_warnings():
            # numpy's overflow and invalid-value warnings stay inside
            warnings.simplefilter("error", RuntimeWarning)
            grid = hr_expansion_grid(params, points)
        for i, (x, y) in enumerate(points):
            for got, want in zip(grid, hr_expansion(params, x, y)):
                assert same_double(float(got[i]), want), (x, y)

    def test_empty_grid(self):
        for params in (HRParams.finite(1.0, 2.0, 5.0), HRParams.zero()):
            assert [len(a) for a in hr_expansion_grid(params, [])] == [0, 0, 0]

    def test_scalar_functions_return_python_floats(self):
        values = []
        for x, y in ((0.5, 1.0), (-710.0, 1.0), (1e155, 0.0)):
            for p in (HRParams.finite(1.0, 2.0, 5.0), HRParams.zero(),
                      HRParams.infinity()):
                values += [*hr_expansion(p, x, y), hr_cdf(p, x, y)]
                values += [hr_approx(1000, p, x, y, o) for o in ApproxOrder]
                values += hrx.hr_core.approximants(*hr_expansion(p, x, y), 20.0)
            if x > -709.0:
                # kappa, tau, s and t overflow at x = -710 and raise there
                values += [kappa(2.0, 1.0, x, y), tau(2.0, 5.0, 1.0, x, y),
                           s_term(x), t_term(x)]
            values += [kappa1(2.0, 1.0, x, y), tau1(2.0, 5.0, 1.0, x, y),
                       tau2(2.0, 1.0, x, y), tau3(1.0, x, y),
                       *(I_closed(k, 1.0, x, y) for k in range(4)),
                       gumbel_cdf(x),
                       univariate_gumbel_approx(1000, x, ApproxOrder.THIRD)]
        assert {type(v) for v in values} == {float}


# lam over the whole double range: both ends, where lam^3 underflows
# (1e-108) or lam^2 overflows (1e154), and the interior
MP_LAMS = [5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-108, 1e-103, 1e-50,
           1e-20, 1e-10, 1e-7, 1e-6, 1e-4, 1e-2, 0.5, 1.0, 2.0, 10.0, 1e3,
           1e6, 1e7, 1e10, 1e20, 1e50, 1e103, 1e154, 1e155, 1e200, 1e300,
           1.7e308]
MP_POINTS = [(0.0, 0.0), (1.0, 1.0), (-1.0, -1.0), (4.0, 4.0), (0.3, 1.1),
             (1.1, 0.3), (-2.0, 3.0), (3.0, -2.0), (-1.0, 0.5)]


class TestFiniteLamAgainstMpmath:
    """`hr_expansion` and `hr_expansion_grid` against the shipped kernels
    run on 60-digit mpmath points: the same closed forms, without
    rounding.  Measured worst error 4.5e-15 max(1, |value|), at lam = 2;
    5.1e-16 outside [1, 2]."""

    @staticmethod
    def reference(monkeypatch, params, x, y):
        """(H, c1, c2) from `_kappa` and `_tau` on a 60-digit `_Point`.
        Past |w| = 1e4 Phi and phi are 0 or 1 in double precision, and
        mpmath's erfc overflows near w = 1e323."""
        import mpmath

        def ncdf(w):
            return mpmath.mpf(w > 0) if abs(w) > 1e4 else mpmath.ncdf(w)

        def npdf(w):
            return mpmath.mpf(0) if abs(w) > 1e4 else mpmath.npdf(w)

        with monkeypatch.context() as m, mpmath.workdps(60):
            m.setattr(hrx.hr_core, "_exp_neg", lambda v: mpmath.exp(-v))
            m.setattr(hrx.hr_core, "std_normal_cdf", ncdf)
            m.setattr(hrx.hr_core, "std_normal_pdf", npdf)
            m.setattr(hrx.hr_core, "std_normal_survival", lambda w: ncdf(-w))
            p = hrx.hr_core._point(*map(mpmath.mpf, (params.lam, x, y)))
            c1 = hrx.hr_core._kappa(params.alpha, p)
            c2 = hrx.hr_core._tau(params.alpha, params.beta, p) + c1 * c1 / 2
            return mpmath.exp(-p.cdf_w * p.ex - p.cdf_v * p.ey), c1, c2

    @pytest.mark.parametrize("lam", MP_LAMS)
    def test_double_path_matches(self, monkeypatch, lam):
        points = list(MP_POINTS)
        if lam < 1e-6:
            # (y-x)/(2 lam) of order one, where alpha^2 (x-y)^2/(4 lam^3)
            # is as large as 1/lam
            points += [(x, x + 2.0 * lam * c)
                       for x in (0.0, -1.5) for c in (0.5, -1.0, 3.0)]
        for alpha, beta in ((0.0, 0.0), (-2.0, 0.0), (2.0, 5.0)):
            params = HRParams.finite(lam, alpha, beta)
            grid = hr_expansion_grid(params, points)
            for i, (x, y) in enumerate(points):
                want = self.reference(monkeypatch, params, x, y)
                got = hr_expansion(params, x, y)
                for g, gg, w in zip(got, (a[i] for a in grid), want):
                    assert same_double(float(gg), g)
                    if abs(w) > sys.float_info.max:
                        # the value itself is beyond the double range
                        assert g == math.copysign(math.inf, w)
                    else:
                        assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (x, y)


def closed_forms(alpha: float, beta: float, lam: float, x: float, y: float):
    """Each public closed form at one point, as a thunk."""
    return (
        lambda: kappa(alpha, lam, x, y), lambda: kappa1(alpha, lam, x, y),
        lambda: tau(alpha, beta, lam, x, y), lambda: tau1(alpha, beta, lam, x, y),
        lambda: tau2(alpha, lam, x, y), lambda: tau3(lam, x, y),
        *(lambda k=k: I_closed(k, lam, x, y) for k in range(4)),
        lambda: s_term(x), lambda: t_term(x),
    )


class TestClosedFormsFinite:
    # x near the overflow of e^{-x}, where the closed forms stop fitting
    FAR_VALUES = st.one_of(st.floats(-800.0, 800.0),
                           st.sampled_from([-709.78, -709.0, -700.0, -690.0]))

    @given(GRID_LAMS.filter(lambda lam: 0.0 < lam < math.inf),
           st.floats(-5.0, 5.0), st.floats(-20.0, 20.0),
           FAR_VALUES, FAR_VALUES)
    @example(1.0, 2.0, 5.0, -709.0, -709.0)
    @example(1.0, 2.0, 5.0, -685.79, -79.68)
    def test_finite_or_raises(self, lam, alpha, beta, x, y):
        for call in closed_forms(alpha, beta, lam, x, y):
            try:
                value = call()
            except ValueError as exc:
                assert "overflowed" in str(exc)
            else:
                assert type(value) is float and math.isfinite(value)

    @pytest.mark.parametrize("call", [
        lambda: kappa1(2.0, 1.0, -709.0, -709.0),
        lambda: I_closed(1, 1.0, -709.0, -709.0),
        lambda: tau(2.0, 5.0, 1.0, -685.79, -79.68),
        lambda: kappa(alpha=2.0, lam=1.0, x=-710.0, y=1.0),
        lambda: tau(1e160, 0.0, 1.0, 0.0, 0.0),
        lambda: s_term(-710.0),
        lambda: t_term(-700.0),
    ], ids=["kappa1", "I_1", "tau", "kappa-by-keyword", "tau-huge-alpha",
            "s", "t"])
    def test_overflow_raises(self, call):
        with pytest.raises(ValueError, match="overflowed"):
            call()

    def test_nan_argument_is_named(self):
        with pytest.raises(ValueError, match=r"kappa\(2.0, 1.0, nan, 0.0\) "
                                             r"has a NaN argument"):
            kappa(2.0, 1.0, math.nan, 0.0)
        with pytest.raises(ValueError, match="NaN argument"):
            s_term(math.nan)
        with pytest.raises(ValueError, match="NaN argument"):
            tau(math.nan, 5.0, 1.0, 0.0, 0.0)


class TestHrApprox:
    def test_first_order_is_limit(self):
        p = HRParams.finite(1.0, 2.0, 5.0)
        assert hr_approx(100, p, 0.3, 1.1, ApproxOrder.FIRST) == hr_cdf(
            p, 0.3, 1.1
        )

    def test_zero_regime_matches_univariate(self):
        p = HRParams.zero()
        for n in (10, 10**4):
            for order in ApproxOrder:
                got = hr_approx(n, p, 0.25, 1.5, order)
                want = univariate_gumbel_approx(n, 0.25, order)
                assert math.isclose(got, want, rel_tol=1e-15)

    def test_infinity_second_order_identity(self):
        n, x, y = 10**4, 0.5, -0.5
        b2 = hrx.solve_bn(n).b_squared
        want = gumbel_cdf(x) * gumbel_cdf(y) * (
            1.0 + (s_term(x) + s_term(y)) / b2
        )
        got = hr_approx(n, HRParams.infinity(), x, y, ApproxOrder.SECOND)
        assert math.isclose(got, want, rel_tol=1e-14)

    def test_finite_origin_first_order(self):
        for lam in (0.5, 1.0, 2.0):
            got = hr_approx(10**3, HRParams.finite(lam), 0.0, 0.0,
                            ApproxOrder.FIRST)
            want = math.exp(-2.0 * hrx.std_normal_cdf(lam))
            assert math.isclose(got, want, rel_tol=1e-14)

    def test_small_lambda_approximant_keeps_alpha(self):
        # H (1 + kappa/b^2) with kappa = -1.5957692013941788 (40 digits)
        # at lam = 1e-7, alpha = -2; the lam = 0 member's kappa is 0
        n = 10**4
        b2 = hrx.solve_bn(n).b_squared
        p = HRParams.finite(1e-7, -2.0, 0.0)
        h = hr_approx(n, p, 0.0, 0.0, ApproxOrder.FIRST)
        got = hr_approx(n, p, 0.0, 0.0, ApproxOrder.SECOND)
        assert math.isclose(got, h * (1.0 - 1.5957692013941788 / b2),
                            rel_tol=1e-14)

    @given(
        st.sampled_from([3, 10, 100]),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.sampled_from(list(ApproxOrder)),
    )
    def test_clamped_to_unit_interval(self, n, x, y, order):
        v = hr_approx(n, HRParams.infinity(), x, y, order)
        assert 0.0 <= v <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            hr_approx(2, HRParams.zero(), 0.0, 0.0, ApproxOrder.FIRST)

    @pytest.mark.parametrize("params", [
        HRParams.zero(), HRParams.finite(1.0, 2.0, 5.0), HRParams.infinity(),
    ])
    @pytest.mark.parametrize("y", [-710.0, 1.0])
    def test_zero_where_exp_overflows(self, params, y):
        # H is 0 below x = -709.78 while kappa and tau are inf or NaN
        for order in ApproxOrder:
            assert hr_approx(100, params, -710.0, y, order) == 0.0

    @pytest.mark.parametrize("params", [
        HRParams.zero(), HRParams.finite(1.0, 2.0, 5.0), HRParams.infinity(),
    ])
    @pytest.mark.parametrize("x, y", [(1e78, 0.0), (0.0, 1e78), (1e155, 0.0)])
    def test_huge_grid_value(self, params, x, y):
        # x^2 and x^4 overflow where e^{-x} underflows; 0 * inf gave NaN.
        # H = Lambda(0) and kappa = tau = 0 at the finite coordinate
        for order in ApproxOrder:
            assert hr_approx(100, params, x, y, order) == math.exp(-1.0)

    def test_overflowed_coefficient_raises(self):
        # alpha^2 overflows inside tau, which becomes inf - inf at the origin
        p = HRParams.finite(1.0, 1e160, 0.0)
        assert hr_approx(1000, p, 0.0, 0.0, ApproxOrder.FIRST) == hr_cdf(p, 0.0, 0.0)
        with pytest.raises(ValueError, match="overflowed"):
            hr_approx(1000, p, 0.0, 0.0, ApproxOrder.THIRD)

    def test_univariate_terms_at_huge_x(self):
        assert s_term(1e155) == 0.0
        assert t_term(1e78) == 0.0
        assert math.isfinite(kappa(2.0, 1.0, 0.0, 1e155))
        assert math.isfinite(tau(2.0, 5.0, 1.0, 1e78, 0.0))
