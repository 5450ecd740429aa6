"""Triangular-array construction, exact distributions, and diagnostics.

Exact-distribution literals were frozen from 50-digit evaluations of
n log(1 - S) with S assembled from arbitrary-precision Gaussian tails.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import example, given, strategies as st

import hrx
from hrx import (
    ApproxOrder,
    ConstantRho,
    CorollaryInfinity,
    CorollaryZero,
    HRParams,
    QuadratureConvergenceError,
    ThirdOrderHR,
    a_coefficients,
    delta_error,
    exact_joint_max_cdf,
    exact_row_cdf,
    h_n_diagnostic,
    lemma31_tail_approx,
    make_row,
    solve_bn,
    threshold,
)

EXACT_SAMPLES = [
    # (n, rho, x, y, value)
    (1000, 0.5, 1.0, 1.0, 0.53294386239692006),
    (50, 0.5, 1.0, 1.0, 0.59010662237764034),
    (10**4, 0.9, 0.0, 1.0, 0.31715393367216808),
]

# n = 10^4, rho = 0.5, x = y = 1
LEM31_EXACT_NP = 0.0052207736195536855
LEM31_SECOND = 0.010114326557501204
LEM31_THIRD = 0.0038278858225606374

# ThirdOrderHR(1, 2, 5) at n = 10^6
A1_AT_1E6 = 1.8445297580270595
A2_AT_1E6 = -1.4634286110645156
A3_AT_1E6 = 0.91836573243934475

SPEC = ThirdOrderHR(1.0, 2.0, 5.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestSpecs:
    @pytest.mark.parametrize("rho", [1.5, -1.01, math.nan])
    def test_constant_rho_domain(self, rho):
        with pytest.raises(ValueError):
            ConstantRho(rho)

    def test_constant_rho_endpoints(self):
        assert ConstantRho(1.0).rho == 1.0
        assert ConstantRho(-1.0).rho == -1.0

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_third_order_domain(self, lam):
        with pytest.raises(ValueError):
            ThirdOrderHR(lam)

    def test_corollary_zero_domain(self):
        with pytest.raises(ValueError):
            CorollaryZero(-0.5)
        assert CorollaryZero(0.0).tau_rate == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, name", [
        (lambda v: ThirdOrderHR(1.0, alpha=v), "alpha"),
        (lambda v: ThirdOrderHR(1.0, beta=v), "beta"),
        (CorollaryInfinity, "gamma"),
    ], ids=["alpha", "beta", "gamma"])
    def test_non_finite_parameter_is_named(self, make, name, value):
        with pytest.raises(ValueError, match=f"finite {name}"):
            make(value)

    @pytest.mark.parametrize("spec, params", [
        (ConstantRho(0.5), HRParams.infinity()),
        (ConstantRho(-1.0), HRParams.infinity()),
        (ConstantRho(1.0), HRParams.zero()),
        (ThirdOrderHR(1.5, 2.0, -3.0), HRParams.finite(1.5, 2.0, -3.0)),
        (ThirdOrderHR(1e-7), HRParams.finite(1e-7)),
        (CorollaryInfinity(1.0), HRParams.infinity()),
        (CorollaryZero(2.0), HRParams.zero()),
    ])
    def test_params_is_the_limit_the_sequence_fixes(self, spec, params):
        assert spec.params == params
        with pytest.raises(AttributeError):
            spec.params = params


class TestMakeRow:
    def test_third_order_construction_identity(self):
        # lam_n = lam - alpha/b^2 - beta/b^4 exactly when not clipped
        for n in (10**3, 10**5, 10**8):
            row = make_row(SPEC, n)
            b2 = row.b.b_squared
            resid = b2 * (SPEC.lam - row.lambda_n) - SPEC.alpha - SPEC.beta / b2
            assert abs(resid) <= 1e-12
            assert row.delta_n == b2 * (SPEC.lam - row.lambda_n) - SPEC.alpha
            assert not row.clipped

    def test_third_order_unperturbed(self):
        row = make_row(ThirdOrderHR(1.0), 10**4)
        assert row.lambda_n == 1.0
        assert row.delta_n == 0.0

    def test_third_order_clips_at_tiny_n(self):
        # at n = 3 the correction terms overwhelm lam and push the raw
        # correlation far below -1
        row = make_row(SPEC, 3)
        assert row.clipped
        assert row.rho == -1.0
        assert row.lambda_n == row.b.b

    def test_corollary_infinity_identity(self):
        spec = CorollaryInfinity(1.0)
        for n in (10**3, 10**5, 10**8):
            row = make_row(spec, n)
            ln_n = math.log(n)
            lnln_n = math.log(ln_n)
            resid = (1.0 - row.rho) * ln_n - (2.0 + row.rho) * lnln_n - 2.0
            assert abs(resid) <= 1e-12

    def test_corollary_infinity_lambda_grows(self):
        spec = CorollaryInfinity(0.5)
        lams = [make_row(spec, n).lambda_n for n in (10**3, 10**5, 10**8)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_corollary_zero_identity(self):
        spec = CorollaryZero(1.5)
        for n in (10**3, 10**5, 10**8):
            row = make_row(spec, n)
            got = (1.0 - row.rho) * math.log(n) ** 3
            assert abs(got - 2.25) <= 1e-12

    def test_corollary_zero_lambda_shrinks(self):
        spec = CorollaryZero(1.5)
        lams = [make_row(spec, n).lambda_n for n in (10**3, 10**5, 10**8)]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_corollary_zero_degenerate_rate(self):
        assert make_row(CorollaryZero(0.0), 10**4).rho == 1.0

    def test_constant_rho_passthrough(self):
        row = make_row(ConstantRho(0.3), 1000)
        assert row.rho == 0.3
        assert row.delta_n is None
        want = math.sqrt(row.b.b_squared * 0.35)
        assert math.isclose(row.lambda_n, want, rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            make_row(SPEC, 2)
        with pytest.raises(TypeError):
            make_row(SPEC, 3.5)

    @given(st.one_of(
        st.builds(ConstantRho, st.floats(-1.0, 1.0)),
        st.builds(ThirdOrderHR, st.floats(1e-3, 1e3), FINITE, FINITE),
        st.builds(CorollaryInfinity, FINITE),
        st.builds(CorollaryZero, st.floats(0.0, 1e150)),
    ), st.sampled_from([3, 4, 10, 1000, 10**8]))
    @example(ThirdOrderHR(1.0, -1e308, 1e308), 3)
    def test_rho_is_never_nan(self, spec, n):
        # alpha/b^2 and beta/b^4 can overflow to opposite infinities
        try:
            row = make_row(spec, n)
        except ValueError as exc:
            assert "overflow" in str(exc)
        else:
            assert -1.0 <= row.rho <= 1.0


class TestExactJointMaxCdf:
    def test_frozen_values(self):
        for n, rho, x, y, want in EXACT_SAMPLES:
            assert rel_err(exact_joint_max_cdf(n, rho, x, y), want) <= 1e-13

    def test_independence_product(self):
        n = 100
        c = solve_bn(n)
        for x, y in ((0.3, -0.2), (1.0, 2.0)):
            lhs = exact_joint_max_cdf(n, 0.0, x, y)
            rhs = math.exp(
                n * math.log1p(-hrx.std_normal_survival(threshold(c, x)))
            ) * math.exp(
                n * math.log1p(-hrx.std_normal_survival(threshold(c, y)))
            )
            assert rel_err(lhs, rhs) <= 1e-14

    def test_comonotone_reduction(self):
        for n in (10**3, 10**6):
            c = solve_bn(n)
            for x, y in ((0.0, 1.0), (1.0, 0.5), (-1.0, 2.0)):
                m = min(x, y)
                lhs = exact_joint_max_cdf(n, 1.0, x, y)
                rhs = math.exp(
                    n * math.log1p(-hrx.std_normal_survival(threshold(c, m)))
                )
                assert rel_err(lhs, rhs) <= 1e-15

    def test_monotone_in_rho(self):
        # larger correlation concentrates the maxima together
        rhos = [-1.0 + 0.25 * i for i in range(9)]
        vals = [exact_joint_max_cdf(100, r, 0.3, -0.2) for r in rhos]
        assert all(b - a >= -1e-13 for a, b in zip(vals, vals[1:]))

    def test_symmetry(self):
        a = exact_joint_max_cdf(1000, 0.6, 0.2, 1.4)
        b = exact_joint_max_cdf(1000, 0.6, 1.4, 0.2)
        assert abs(a - b) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_joint_max_cdf(2, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            exact_joint_max_cdf(100, 1.5, 0.0, 0.0)


def one_point_exact(n, rho, x, y):
    """F^n at one point, written out from the public primitives the way
    the exact law was evaluated before rows were batched."""
    c = solve_bn(n)
    u1, u2 = threshold(c, x), threshold(c, y)
    if rho == 1.0:
        s = hrx.std_normal_survival(min(u1, u2))
    else:
        s = (hrx.std_normal_survival(u1) + hrx.std_normal_survival(u2)
             - hrx.bivariate_normal_survival(u1, u2, rho))
    return math.exp(-math.inf if s >= 1.0 else n * math.log1p(-s))


SQUARE_GRID = [(-2.0 + 0.5 * i, -2.0 + 0.5 * j)
               for i in range(13) for j in range(13)]
RECTANGULAR_GRID = [(-2.0 + 0.5 * i, -1.0 + j) for i in range(13) for j in range(5)]
# u_500(X3) is exactly 3.0
X3 = 0.3506702208933126


class TestExactRowCdf:
    """One row at a time, deduplicated, must equal the point formula."""

    def check_row(self, n, rho, points):
        got = exact_row_cdf(n, rho, points)
        assert got == [one_point_exact(n, rho, x, y) for x, y in points]
        assert got == [exact_joint_max_cdf(n, rho, x, y) for x, y in points]

    @pytest.mark.parametrize("rho", [-1.0, -0.97, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [10, 10**3, 10**6])
    def test_square_grid(self, n, rho):
        self.check_row(n, rho, SQUARE_GRID)

    @pytest.mark.parametrize("rho", [-0.97, -0.5, 0.5, 0.94])
    def test_rectangular_grid(self, rho):
        self.check_row(10**5, rho, RECTANGULAR_GRID)

    def test_clipped_row(self):
        row = make_row(SPEC, 3)
        assert row.clipped
        self.check_row(row.n, row.rho, SQUARE_GRID)

    def test_fallback_pair(self, laguerre_passes):
        # (3, 3) at rho = 0.9999 takes the diagonal pass
        assert threshold(solve_bn(500), X3) == 3.0
        points = [(X3, X3), (X3, 1.0), (1.0, X3), (0.0, 0.0), (2.0, 2.5)]
        got = exact_row_cdf(500, 0.9999, points)
        # a diagonal pass conditions on every h, then on every k
        (a,) = [a for a, _, r in laguerre_passes if r < 0.0]
        assert (3.0, 3.0) in zip(a[:len(a) // 2], a[len(a) // 2:])
        assert got == [one_point_exact(500, 0.9999, x, y) for x, y in points]

    @pytest.mark.parametrize("rho, joint_pairs", [(0.5, 15), (-0.5, 15)])
    def test_evaluates_each_piece_once(self, monkeypatch, rho, joint_pairs):
        # joint pairs are counted where they reach the two passes
        calls = {"marginal": 0, "joint": 0, "tail passes": 0,
                 "off-tail passes": 0}
        tri, gauss = hrx.triangular, hrx.gauss
        sf = tri.std_normal_survival
        tail_pass = gauss.joint_tail_survival
        off_tail_pass = gauss._quadrature_row

        def marginal(t):
            calls["marginal"] += 1
            return sf(t)

        def tail(pairs, r):
            calls["tail passes"] += 1
            calls["joint"] += len(pairs)
            return tail_pass(pairs, r)

        def off_tail(pairs, r):
            calls["off-tail passes"] += 1
            calls["joint"] += len(pairs)
            return off_tail_pass(pairs, r)

        monkeypatch.setattr(tri, "std_normal_survival", marginal)
        monkeypatch.setattr(gauss, "joint_tail_survival", tail)
        monkeypatch.setattr(gauss, "_quadrature_row", off_tail)
        # u_n of the first two values lies below 3, of the rest above
        values = (-4.0, -3.0, 0.0, 2.0, 4.0)
        exact_row_cdf(10**4, rho, [(x, y) for x in values for y in values])
        assert calls == {"marginal": 5, "joint": joint_pairs, "tail passes": 1,
                         "off-tail passes": 1}

    def test_empty_row(self):
        assert exact_row_cdf(100, 0.5, []) == []

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_row_cdf(2, 0.5, [(0.0, 0.0)])
        with pytest.raises(ValueError):
            exact_row_cdf(100, 1.5, [(0.0, 0.0)])


class TestDeltaError:
    def test_shrinks_along_third_order_sequence(self):
        d3 = abs(delta_error(10**3, SPEC, 1.0, 1.0))
        d6 = abs(delta_error(10**6, SPEC, 1.0, 1.0))
        assert d6 < d3

    def test_far_upper_tail_vanishes(self):
        assert abs(delta_error(10**4, SPEC, 40.0, 40.0)) <= 1e-12

    def test_compares_with_the_spec_limit(self):
        n, x, y = 10**4, 0.5, 1.5
        for spec in (SPEC, ConstantRho(0.5), CorollaryZero(2.0)):
            row = make_row(spec, n)
            assert delta_error(n, spec, x, y) == (
                exact_joint_max_cdf(n, row.rho, x, y)
                - hrx.hr_cdf(spec.params, x, y)
            )

    def test_comonotone_reduction(self):
        n, x, y = 10**4, 0.3, 1.2
        c = solve_bn(n)
        got = delta_error(n, ConstantRho(1.0), x, y)
        exact = math.exp(
            n * math.log1p(-hrx.std_normal_survival(threshold(c, x)))
        )
        want = exact - math.exp(-math.exp(-x))
        assert abs(got - want) <= 1e-15


class TestACoefficients:
    def test_frozen_values(self):
        row = make_row(SPEC, 10**6)
        a1, a2, a3 = a_coefficients(row, SPEC.lam)
        assert rel_err(a1, A1_AT_1E6) <= 1e-12
        assert rel_err(a2, A2_AT_1E6) <= 1e-12
        assert rel_err(a3, A3_AT_1E6) <= 1e-12

    def test_converge_to_limits(self):
        lam, alpha = SPEC.lam, SPEC.alpha
        limits = (alpha - lam**3 / 2.0, -alpha / (2.0 * lam**2) - lam / 4.0, lam)
        rows = [make_row(SPEC, n) for n in (10**4, 10**8)]
        devs = [
            tuple(abs(a - l) for a, l in zip(a_coefficients(r, lam), limits))
            for r in rows
        ]
        for far, near in zip(devs[0], devs[1]):
            assert near < far

    def test_domain(self):
        row = make_row(SPEC, 10**4)
        with pytest.raises(ValueError):
            a_coefficients(row, 0.0)
        # antithetic row puts lambda_n^2 exactly at b^2
        with pytest.raises(ValueError):
            a_coefficients(make_row(ConstantRho(-1.0), 100), 1.0)
        with pytest.raises(ValueError):
            a_coefficients(make_row(ConstantRho(1.0), 100), 1.0)


class TestHnDiagnostic:
    def test_exponentiates_to_ratio(self):
        # exp(h_n) = F^n / H by construction
        limit = hrx.hr_cdf(HRParams.finite(1.0), 1.0, 1.0)
        for n in (10**3, 10**4):
            row = make_row(SPEC, n)
            h = h_n_diagnostic(n, row.rho, 1.0, 1.0, 1.0)
            ratio = exact_joint_max_cdf(n, row.rho, 1.0, 1.0) / limit
            assert abs(math.exp(h) - ratio) <= 1e-10

    def test_vanishes_along_sequence(self):
        hs = [
            abs(h_n_diagnostic(n, make_row(SPEC, n).rho, 1.0, 1.0, 1.0))
            for n in (10**3, 10**6)
        ]
        assert hs[1] < hs[0]

    def test_scaled_tracks_kappa(self):
        n = 10**6
        row = make_row(SPEC, n)
        h = h_n_diagnostic(n, row.rho, 1.0, 1.0, 1.0)
        kap = hrx.kappa(SPEC.alpha, SPEC.lam, 1.0, 1.0)
        assert abs(row.b.b_squared * h - kap) <= 0.10 * abs(kap)

    def test_domain(self):
        with pytest.raises(ValueError):
            h_n_diagnostic(10**4, 0.5, -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            h_n_diagnostic(2, 0.5, 1.0, 0.0, 0.0)


class TestLemma31TailApprox:
    def test_frozen_values(self):
        n, rho, x, y = 10**4, 0.5, 1.0, 1.0
        got2 = lemma31_tail_approx(n, rho, x, y, ApproxOrder.SECOND)
        got3 = lemma31_tail_approx(n, rho, x, y, ApproxOrder.THIRD)
        assert rel_err(got2, LEM31_SECOND) <= 1e-10
        assert rel_err(got3, LEM31_THIRD) <= 1e-10

    def test_third_order_closer(self):
        n, rho, x, y = 10**4, 0.5, 1.0, 1.0
        exact = n * hrx.bivariate_normal_survival(
            threshold(solve_bn(n), x), threshold(solve_bn(n), y), rho
        )
        assert rel_err(exact, LEM31_EXACT_NP) <= 1e-12
        err2 = abs(lemma31_tail_approx(n, rho, x, y, ApproxOrder.SECOND) - exact)
        err3 = abs(lemma31_tail_approx(n, rho, x, y, ApproxOrder.THIRD) - exact)
        assert err3 < err2

    def test_independence_identity(self):
        # at rho = 0 the correction weights integrate to exactly zero and
        # both orders collapse to Phibar(b) * (n Phibar(b)) = Phibar(b)
        n = 10**4
        want = n * hrx.std_normal_survival(solve_bn(n).b) ** 2
        for order in (ApproxOrder.SECOND, ApproxOrder.THIRD):
            got = lemma31_tail_approx(n, 0.0, 0.0, 0.0, order)
            assert abs(got - want) <= 1e-10

    def test_unconverged_integral_raises(self, unconverged_quad):
        with pytest.raises(QuadratureConvergenceError) as info:
            lemma31_tail_approx(10**4, 0.5, 1.0, 1.0, ApproxOrder.SECOND)
        assert info.value.partial == unconverged_quad
        assert "lemma 3.1" in str(info.value)

    def test_domain(self):
        with pytest.raises(ValueError):
            lemma31_tail_approx(10**4, 1.0, 0.0, 0.0, ApproxOrder.SECOND)
        with pytest.raises(ValueError):
            lemma31_tail_approx(10**4, 0.5, 0.0, 0.0, ApproxOrder.FIRST)
        with pytest.raises(ValueError):
            lemma31_tail_approx(2, 0.5, 0.0, 0.0, ApproxOrder.SECOND)


class TestOneCheckPerInput:
    # n, rho and lam are each checked in one place, so every entry point
    # rejects the same inputs with the same message
    N_CALLS = {
        "make_row": lambda n: make_row(ConstantRho(0.5), n),
        "exact_row_cdf": lambda n: exact_row_cdf(n, 0.5, ((0.0, 0.0),)),
        "h_n_diagnostic": lambda n: h_n_diagnostic(n, 0.5, 1.0, 0.0, 0.0),
        "lemma31": lambda n: lemma31_tail_approx(n, 0.5, 0.0, 0.0,
                                                 ApproxOrder.SECOND),
        "hr_approx": lambda n: hrx.hr_approx(n, HRParams.zero(), 0.0, 0.0,
                                             ApproxOrder.FIRST),
        "gumbel_approx": lambda n: hrx.univariate_gumbel_approx(
            n, 0.0, ApproxOrder.SECOND),
        "mc": lambda n: hrx.mc_triangular_maxima(n, 0.5, 0.0, 0.0, 1, 0),
        "threshold": lambda n: threshold(hrx.NormingConstant(n, 1.0), 0.0),
        "StudyConfig": lambda n: hrx.StudyConfig(ConstantRho(0.5), (n, 10),
                                                 ((0.0, 0.0),)),
    }
    RHO_CALLS = {
        "ConstantRho": ConstantRho,
        "exact_row_cdf": lambda rho: exact_row_cdf(10, rho, ((0.0, 0.0),)),
        "h_n_diagnostic": lambda rho: h_n_diagnostic(10, rho, 1.0, 0.0, 0.0),
        "bvn_survival": lambda rho: hrx.bivariate_normal_survival(0.0, 0.0,
                                                                  rho),
        "bvn_cdf": lambda rho: hrx.bivariate_normal_cdf(0.0, 0.0, rho),
        "mc": lambda rho: hrx.mc_triangular_maxima(10, rho, 0.0, 0.0, 1, 0),
    }
    LAM_CALLS = {
        "ThirdOrderHR": ThirdOrderHR,
        "a_coefficients": lambda lam: a_coefficients(
            make_row(ThirdOrderHR(1.0), 100), lam),
        "h_n_diagnostic": lambda lam: h_n_diagnostic(10, 0.5, lam, 0.0, 0.0),
        "kappa": lambda lam: hrx.kappa(0.0, lam, 0.0, 0.0),
        "tau": lambda lam: hrx.tau(0.0, 0.0, lam, 0.0, 0.0),
        "I_closed": lambda lam: hrx.I_closed(0, lam, 0.0, 0.0),
        "HRParams": HRParams.finite,
    }

    # a NaN grid value is caught where it becomes a threshold; +-inf
    # stays a legal limit
    GRID_CALLS = {
        "threshold": lambda v, w: [threshold(hrx.solve_bn(10), t)
                                   for t in (v, w)],
        "exact_row_cdf": lambda v, w: exact_row_cdf(10, 0.5, ((v, w),)),
        "exact_joint_max_cdf": lambda v, w: hrx.exact_joint_max_cdf(
            10, 0.5, v, w),
        "h_n_diagnostic": lambda v, w: h_n_diagnostic(10, 0.5, 1.0, v, w),
        "lemma31": lambda v, w: lemma31_tail_approx(10**4, 0.5, v, w,
                                                    ApproxOrder.SECOND),
        "mc": lambda v, w: hrx.mc_triangular_maxima(10, 0.5, v, w, 1, 0),
    }

    @pytest.mark.parametrize("call", list(N_CALLS.values()), ids=list(N_CALLS))
    def test_n(self, call):
        with pytest.raises(ValueError, match=r"^requires n >= 3, got 2$"):
            call(2)

    @pytest.mark.parametrize("call", list(RHO_CALLS.values()),
                             ids=list(RHO_CALLS))
    @pytest.mark.parametrize("rho", [1.5, math.nan])
    def test_rho(self, call, rho):
        with pytest.raises(ValueError, match=r"^correlation must lie in "):
            call(rho)

    @pytest.mark.parametrize("call", list(LAM_CALLS.values()),
                             ids=list(LAM_CALLS))
    @pytest.mark.parametrize("lam", [0.0, math.inf, math.nan])
    def test_lam(self, call, lam):
        with pytest.raises(ValueError, match=r"^requires finite lam > 0, "):
            call(lam)

    @pytest.mark.parametrize("call", list(GRID_CALLS.values()),
                             ids=list(GRID_CALLS))
    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_grid_value(self, call, point):
        with pytest.raises(ValueError,
                           match=r"^requires a grid value that is not NaN, "):
            call(*point)

    def test_infinite_grid_value_is_a_limit(self):
        assert hrx.exact_joint_max_cdf(10, 0.5, math.inf, math.inf) == 1.0
        # F <= Phi(u_n(-inf)) = 0, although 1 - F assembled from survival
        # pieces would read 1 - eps
        assert hrx.exact_joint_max_cdf(10, 0.5, -math.inf, 1.0) == 0.0
        # likewise at u_10(-40) = -29.9 and u_10(-30) = -22.1, where the
        # bound Phi(u)^10 is far below the smallest double
        assert hrx.exact_joint_max_cdf(10, 0.5, -40.0, 1.0) == 0.0
        assert hrx.exact_joint_max_cdf(10, 0.5, -30.0, 1.0) == 0.0
        # h_n there is n log F + ~e^{40}, with |n log F| < 5000: finite
        h = hrx.h_n_diagnostic(10, 0.5, 1.0, -40.0, 1.0)
        assert math.isclose(h, math.exp(40.0), rel_tol=1e-12)
        # at n = 1e6, u_n(-9) = 2.86: 1 - s resolves F ~ 0.997, and its
        # n log F = -3097 lies below the bound n log Phi(u) = -2120 (both
        # below exp's underflow point); h_n keeps n log F, where the bound
        # would give 7502.9
        h = hrx.h_n_diagnostic(10**6, 0.5, 1.0, -9.0, -8.0)
        assert math.isclose(h, 6525.59569190832, rel_tol=1e-12)
        assert hrx.mc_triangular_maxima(10, 0.5, math.inf, math.inf, 9, 0) \
            == (1.0, 0.0)
        assert hrx.mc_triangular_maxima(10, 0.5, -math.inf, 1.0, 9, 0) \
            == (0.0, 0.0)
