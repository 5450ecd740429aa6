"""Independent cross-check machinery: quadrature and Monte Carlo."""
from __future__ import annotations

import math
import operator
import random
import tracemalloc

import numpy as np
import pytest

import hrx
from hrx import (
    I_k_quadrature,
    QuadratureConvergenceError,
    QuadratureResult,
    mc_triangular_maxima,
    quad_semi_infinite,
)
from hrx.gauss import check_rho
from hrx.norming import check_n, solve_bn, threshold

# The I_k and tau3 integrals of `hrx verify` at its (lam, x, y) points,
# in 40-digit mpmath, as correctly rounded doubles; regenerated by
# `PYTHONPATH=src python tests/make_quadrature_reference.py`.
IK_REFERENCE = {
    # (lam, x, y): (I_0, I_1, I_2, I_3)
    (0.5, -2.0, -2.0): (2.279801182272305, -3.0980725057310035,
                        4.822121546700296, -7.8457270784137085),
    (0.5, -2.0, 0.0): (0.045883565447744336, 0.01480868204653089,
                       0.008861860331417106, 0.007462713264519015),
    (0.5, -2.0, 2.0): (2.5105597324459414e-05, 5.5340766398559906e-05,
                       0.00012296320074747653, 0.00027569256976726225),
    (0.5, 0.0, -2.0): (0.9331927987311419, -0.33707880369967924,
                       0.8426970092491981, -0.5774357293603907),
    (0.5, 0.0, 0.0): (0.3085375387259869, 0.19779655740130603,
                      0.20963926002533387, 0.29077348478994514),
    (0.5, 0.0, 2.0): (0.006209665325776135, 0.01442346783068047,
                      0.03405453239757297, 0.0819328714368486),
    (0.5, 2.0, -2.0): (0.13530380031431236, 0.20307380523117824,
                       0.43967829864166025, 1.0661374774636856),
    (0.5, 2.0, 0.0): (0.12629391173064639, 0.20696916808953814,
                      0.43674766386495356, 1.0690598319765066),
    (0.5, 2.0, 2.0): (0.04175601519260879, 0.11028088350435027,
                      0.30247106188000833, 0.8648558026904613),
    (1.0, -2.0, -2.0): (2.3446251433792473, -2.226759542433612,
                        3.9820566810846842, -5.135338939474127),
    (1.0, -2.0, 0.0): (0.3362040024463412, 0.25095311182036584,
                       0.3410035625039014, 0.6436106445473212),
    (1.0, -2.0, 2.0): (0.01994894456710166, 0.05119292788265996,
                       0.1370014790399, 0.38549233150594603),
    (1.0, 0.0, -2.0): (1.0, -0.4042308783942693,
                       1.6169235135770772, -0.08461756788538577),
    (1.0, 0.0, 0.0): (0.3173105078629141, 0.3332618823507452,
                      0.602718266750166, 1.4606585253056295),
    (1.0, 0.0, 2.0): (0.04550026389635842, 0.12496333826003538,
                      0.36400211117086734, 1.1355579479495572),
    (1.0, 2.0, -2.0): (0.22772725901764448, 0.1309887061510666,
                       0.6489316237684447, 1.5718644738127991),
    (1.0, 2.0, 0.0): (0.1353352832366127, 0.2159638660527522,
                      0.5413411329464508, 1.7277109284220176),
    (1.0, 2.0, 2.0): (0.0429433074555809, 0.1309887061510666,
                      0.4337506421244568, 1.5718644738127991),
    (2.0, -2.0, -2.0): (0.6724080048926824, -0.3410035625039014,
                        1.402410730476087, 0.5960846408059741),
    (2.0, -2.0, 0.0): (0.18353426179097734, 0.23693891274449425,
                       0.5671590612106948, 1.910454595716868),
    (2.0, -2.0, 2.0): (0.03989788913420332, 0.12497593326223319,
                       0.43651654273345397, 1.7298837354739878),
    (2.0, 0.0, -2.0): (0.2672288050754323, -0.06554890994919046,
                       0.6554890994919047, 0.9476482083077379),
    (2.0, 0.0, 0.0): (0.09100052779271683, 0.1358512418692742,
                      0.36919850972927565, 1.3936516619825692),
    (2.0, 0.0, 2.0): (0.02483866130310454, 0.08174351747226027,
                      0.3043760568657837, 1.3025953357744458),
    (2.0, 2.0, -2.0): (0.0858866149111618, 0.008635135137295594,
                       0.27446537854628245, 0.7253513515328298),
    (2.0, 2.0, 0.0): (0.03616548602386519, 0.06345989175390547,
                      0.19788842585841024, 0.8433859809745136),
    (2.0, 2.0, 2.0): (0.012315582203508577, 0.04301663070344096,
                      0.17276977888447634, 0.8075540049012222),
}
TAU3_REFERENCE = {
    # (lam, x, y): tau3's defining integral
    (0.5, -2.0, -2.0): -6.580277671415259,
    (0.5, -2.0, 0.0): -0.04320168078585762,
    (0.5, -2.0, 2.0): -8.792138161138176e-06,
    (0.5, 0.0, -2.0): -14.788750120023039,
    (0.5, 0.0, 0.0): -0.8110604969330472,
    (0.5, 0.0, 2.0): -0.0024666483716854204,
    (0.5, 2.0, -2.0): -16.521618668757863,
    (0.5, 2.0, 0.0): -1.7494450084772357,
    (0.5, 2.0, 2.0): 0.03141505045721342,
    (1.0, -2.0, -2.0): -11.608427847862608,
    (1.0, -2.0, 0.0): -0.6772075649502426,
    (1.0, -2.0, 2.0): 0.012664022430998036,
    (1.0, 0.0, -2.0): -15.250369952203497,
    (1.0, 0.0, 0.0): -1.2692420314516564,
    (1.0, 0.0, 2.0): 0.11745432891259856,
    (1.0, 2.0, -2.0): -16.027788254533487,
    (1.0, 2.0, 0.0): -1.32456801434132,
    (1.0, 2.0, 2.0): 0.4624533327881407,
    (2.0, -2.0, -2.0): -15.01809020073931,
    (2.0, -2.0, 0.0): -0.7527875767940503,
    (2.0, -2.0, 2.0): 0.9610633909591565,
    (2.0, 0.0, -2.0): -15.164150127400015,
    (2.0, 0.0, 0.0): -0.5398165552130484,
    (2.0, 0.0, 2.0): 1.2872961209753295,
    (2.0, 2.0, -2.0): -15.066472067696973,
    (2.0, 2.0, 0.0): -0.32532306731826355,
    (2.0, 2.0, 2.0): 1.5489785935259468,
}


def rel_err(got, want):
    return abs(got - want) / abs(want)


def _chunked_reference(
    n: int, rho: float, x: float, y: float, trials: int, seed: int
) -> tuple[float, float]:
    """The sampler before streaming, kept verbatim: each chunk draws Z1
    and Z2 whole and forms rho Z1 + spread Z2 out of place."""
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


class TestQuadSemiInfinite:
    def test_exponential_integral(self):
        r = quad_semi_infinite(lambda z: np.exp(-z), 0.0, 1e-12)
        assert abs(r.value - 1.0) <= 1e-12
        assert r.abs_error_estimate >= 0.0
        assert r.evaluations > 0

    def test_gamma_two(self):
        r = quad_semi_infinite(lambda z: z * np.exp(-z), 0.0, 1e-12)
        assert abs(r.value - 1.0) <= 1e-12

    def test_shifted_lower_limit(self):
        r = quad_semi_infinite(lambda z: np.exp(-z), 2.5, 1e-12)
        assert abs(r.value - math.exp(-2.5)) <= 1e-12

    def test_deterministic(self):
        f = lambda z: np.exp(-z) * np.cos(z)
        assert quad_semi_infinite(f, 0.0, 1e-10) == quad_semi_infinite(
            f, 0.0, 1e-10
        )

    def test_result_is_frozen(self):
        r = quad_semi_infinite(lambda z: np.exp(-z), 0.0, 1e-10)
        assert isinstance(r, QuadratureResult)
        with pytest.raises(AttributeError):
            r.value = 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_tolerance_domain(self, tol):
        with pytest.raises(ValueError):
            quad_semi_infinite(lambda z: np.exp(-z), 0.0, tol)

    def test_nan_lower_limit_is_a_value_error(self):
        # an invalid input, not a numerical failure (exit 2)
        with pytest.raises(ValueError, match="lower limit that is not NaN"):
            quad_semi_infinite(lambda z: np.exp(-z), math.nan, 1e-10)

    def test_nonconvergence_raises_with_partial(self):
        # a non-decaying oscillation defeats the decay-based rule
        with pytest.raises(QuadratureConvergenceError) as info:
            quad_semi_infinite(lambda z: np.sin(200.0 * z), 0.0, 1e-10)
        partial = info.value.partial
        assert isinstance(partial, QuadratureResult)
        assert partial.abs_error_estimate > 1e-10

    def test_missed_tolerance_raises(self, unconverged_quad):
        with pytest.raises(QuadratureConvergenceError) as info:
            quad_semi_infinite(lambda z: np.exp(-z), 0.0, 1e-10)
        assert isinstance(info.value.partial, QuadratureResult)
        assert info.value.partial.evaluations == 385


class TestExpSinh:
    def test_nodes(self):
        # t = -6 + i/32, z = lower + exp(t - e^{-t}); the step-1/16 rule
        # takes the even nodes, from both ends of [-6, 6]
        seen = []
        hrx.quadrature.exp_sinh(lambda z: seen.append(z) or np.zeros_like(z),
                                1.0, 0.0, 1e-12, "f")
        [nodes] = seen
        assert nodes.shape == (385,) and nodes.dtype == np.float64
        for i in (0, 192, 384):
            t = -6.0 + i / 32.0
            assert nodes[i] == 1.0 + math.exp(t - math.exp(-t))
        assert np.all(np.diff(nodes) >= 0.0) and nodes[-1] < 1.0 + 403.0
        assert len(hrx.quadrature._COARSE_WEIGHTS) == 193

    def test_one_integrand_call_per_integral(self):
        calls = []

        def integrand(z):
            calls.append(z.shape)
            return np.exp(-z)

        for lower in (0.0, 1.5):
            hrx.quadrature.exp_sinh(integrand, lower, 0.0, 1e-12, "f")
        assert calls == [(385,), (385,)]

    @pytest.mark.parametrize("k", range(9))
    def test_gamma_integrals(self, k):
        # int_0^inf z^k e^{-z} dz = k!, both steps to a few ulp
        got = hrx.quadrature.exp_sinh(lambda z: z**k * np.exp(-z), 0.0,
                                      0.0, 1e-14, "f")
        assert abs(got.value - math.factorial(k)) <= 4e-16 * math.factorial(k)
        assert got.abs_error_estimate <= 1e-14 * got.value

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_raises(self, bad):
        def integrand(z):
            return np.where(z > 100.0, bad, np.exp(-z))

        with pytest.raises(QuadratureConvergenceError) as info:
            hrx.quadrature.exp_sinh(integrand, 0.0, 1.0, 1.0, "f")
        assert math.isnan(info.value.partial.abs_error_estimate)
        assert info.value.partial.evaluations == 385

    def test_infinities_of_both_signs_raise(self):
        def integrand(z):
            return np.copysign(math.inf, z - 200.0)

        with pytest.raises(QuadratureConvergenceError) as info:
            hrx.quadrature.exp_sinh(integrand, 0.0, 1.0, 1.0, "f")
        assert info.value.partial.evaluations == 385

    @pytest.mark.parametrize("integrand, got", [
        (lambda z: 0.0, "got float"),
        (lambda z: np.float64(0.0), "got float64"),
        (lambda z: [0.0] * z.size, "got list"),
        (lambda z: np.exp(-z[:-1]), "shape (384,)"),
        (lambda z: np.exp(-z)[:, None], "shape (385, 1)"),
        (lambda z: np.zeros(z.shape, dtype=np.int64), "int64 array"),
        (lambda z: np.exp(-z).astype(np.float32), "float32 array"),
    ])
    def test_integrand_not_a_node_array_is_a_value_error(self, integrand, got):
        # a scalar would broadcast and integrate a constant, silently
        with pytest.raises(ValueError, match="f: the integrand must return"
                           ) as info:
            hrx.quadrature.exp_sinh(integrand, 0.0, 0.0, 1e-12, "f")
        assert got in str(info.value)

    def test_missed_tolerance_raises(self, unconverged_quad):
        with pytest.raises(QuadratureConvergenceError) as info:
            hrx.quadrature.exp_sinh(lambda z: np.exp(-z), 0.0, 0.0,
                                    1e-13, "f")
        partial = info.value.partial
        assert isinstance(partial, QuadratureResult)
        assert partial.evaluations == 385
        assert str(info.value).startswith("f: the step-1/16 and step-1/32 rules")


class TestIkQuadrature:
    def test_matches_simple_closed_form(self):
        # I_0(1; 0, 0) = 2 (1 - Phi(1))
        got = I_k_quadrature(0, 1.0, 0.0, 0.0)
        want = 2.0 * hrx.std_normal_survival(1.0)
        assert abs(got - want) <= 1e-10

    def test_vanishes_as_y_grows(self):
        for k in range(4):
            assert abs(I_k_quadrature(k, 1.0, 0.0, 60.0)) <= 1e-12

    @pytest.mark.parametrize("lam, x, y", [
        (1.0, 0.0, -800.0), (1.0, -2.0, -30.0), (0.3, 1.0, -30.0),
        (5.0, 3.0, -160.0), (12.0, 300.0, -200.0),
    ])
    def test_lower_limit_far_below_the_peak(self, lam, x, y):
        # the integrand peaks at x - 2 lam^2, more than 8 widths 2 lam
        # above y; from y the rule's nodes missed it, and e^{-z} times a
        # vanished density gave 0 * inf = NaN below z = -709.78
        for k in range(4):
            want = hrx.I_closed(k, lam, x, y)
            assert rel_err(I_k_quadrature(k, lam, x, y), want) <= 1e-9

    @pytest.mark.parametrize("lam, x, y", [
        (1.0, 0.0, 15.0), (0.3, 3.0, 14.82), (5.0, -3.0, 317.0),
    ])
    def test_lower_limit_far_above_the_peak(self, lam, x, y):
        # u_y = 8.5, 20 and 37: phi(u_y) is factored out of the integral
        for k in range(4):
            want = hrx.I_closed(k, lam, x, y)
            assert rel_err(I_k_quadrature(k, lam, x, y), want) <= 1e-12

    @pytest.mark.parametrize("lam, x, y", [
        (0.05, 0.0, -0.795), (0.05, 1.0, 0.2), (0.03, 0.0, -0.3),
        (20.0, 0.0, -1300.0), (20.0, 5.0, -900.0),
    ])
    def test_narrow_peak_or_overflowing_exponential(self, lam, x, y):
        # a narrow peak 4 to 8 widths above y, which the rule from y missed
        # and the whole line left no room for, or nodes past z = -709.78,
        # where e^{-z} overflows: each raised QuadratureConvergenceError
        for k in range(4):
            want = hrx.I_closed(k, lam, x, y)
            assert rel_err(I_k_quadrature(k, lam, x, y), want) <= 1e-9

    @pytest.mark.parametrize("lam, x, y", [
        (1e-3, 0.0, 0.0), (1e-3, -3.0, -3.08), (5e-3, 3.0, 2.96),
        (20.0, 0.0, -950.0),
    ])
    def test_narrow_peak_at_any_y(self, lam, x, y):
        # a peak 2 lam wide, 0 to 40 widths above y.  Integrated in z,
        # I_0 raised QuadratureConvergenceError at every y for lam <= 0.0034,
        # and all four raised at the last three points: the step-1/16 rule
        # missed the peak, or (at lam = 20) the rule's reach ended 6.5
        # widths past it
        for k in range(4):
            want = hrx.I_closed(k, lam, x, y)
            assert rel_err(I_k_quadrature(k, lam, x, y), want) <= 1e-12

    def test_seeded_scan_sample(self):
        # 400 points of the scan k = 0..3, 25 lam from 1e-3 to 20,
        # x in {-3, 0, 3, 300} and y from 3 widths 2 lam above to 40 below
        # the peak x - 2 lam^2, in steps of half a width.  Integrated in z,
        # the oracle raised on 1,759 of the scan's 34,800 points (16 of
        # these 400), and nowhere missed I_closed by more than both 1e-9
        # relative and 1e-10 absolute
        rng = random.Random(26)
        lams = np.geomspace(1e-3, 20.0, 25).tolist()
        for _ in range(400):
            k, lam = rng.randrange(4), rng.choice(lams)
            x = rng.choice((-3.0, 0.0, 3.0, 300.0))
            y = x - 2.0 * lam * lam + 2.0 * lam * (3.0 - 0.5 * rng.randrange(87))
            want = hrx.I_closed(k, lam, x, y)
            got = I_k_quadrature(k, lam, x, y)
            assert abs(got - want) <= max(1e-9 * abs(want), 1e-10), (k, lam, x, y)

    @pytest.mark.parametrize("k, lam, x, y, want", [
        (0, 1.0, -710.0, -700.0, 4.408063270748051e+299),
        (3, 1.0, -710.0, -700.0, -1.5099136313387887e+308),
        (0, 0.01, -712.0, -713.0, 3.301422530377269e+307),
        (2, 0.01, -712.0, -711.9, 4.553477292016474e+306),
        (1, 0.5, -720.0, -730.0, -math.inf),
        # u_y = 51 and 41, past the u = 40 where phi is exactly 0: the
        # integral in u vanished, and 0 was returned for these
        (0, 1.0, -800.0, -700.0, 6.757948547186951e-220),
        (0, 1.0, -700.0, -620.0, 1.8643331659886652e-63),
    ])
    def test_exponential_overflows_outside_the_integral(self, k, lam, x, y,
                                                        want):
        # e^{-x} overflows below x = -709.78, and phi(u_y) underflows past
        # u_y = 38.6, where I need not: 40-digit mpmath values, correctly
        # rounded, and -inf past the double range
        got = I_k_quadrature(k, lam, x, y)
        if math.isinf(want):
            assert got == want
        else:
            assert rel_err(got, want) <= 1e-12

    def test_weight_underflow_is_zero(self):
        # 2 lam e^{-x} is 0 from x = 745.2 on, and so is I
        assert I_k_quadrature(0, 1.0, 800.0, 0.0) == 0.0
        # above the peak: an empty range (y = inf), a density that
        # vanishes everywhere (x = -inf), and u_y^2 past the double range
        assert I_k_quadrature(0, 1.0, 0.0, math.inf) == 0.0
        assert I_k_quadrature(3, 1.0, -math.inf, 0.0) == 0.0
        assert I_k_quadrature(1, 1e-300, 0.0, 1.0) == 0.0
        # a zero integral stays 0 under a weight past the double range
        assert hrx.oracle._times_exp(0.0, 800.0) == 0.0
        assert hrx.oracle._times_exp(-2.0, 800.0) == -math.inf

    def test_infinite_lower_limit_is_the_whole_line(self):
        # I_0 over the whole line is 2 lam e^{-x}
        assert I_k_quadrature(0, 1.0, 0.0, -math.inf) == pytest.approx(2.0, rel=1e-14)
        assert I_k_quadrature(0, 0.5, 1.0, -math.inf) == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_k_domain(self, k):
        with pytest.raises(ValueError):
            I_k_quadrature(k, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf])
    def test_lambda_domain(self, lam):
        with pytest.raises(ValueError):
            I_k_quadrature(0, lam, 0.0, 0.0)

    @pytest.mark.parametrize("name, x, y", [("x", math.nan, 0.0),
                                            ("y", 0.0, math.nan)])
    def test_nan_point_is_a_value_error(self, name, x, y):
        # as for the closed form it checks, not a numerical failure
        with pytest.raises(ValueError, match="NaN"):
            hrx.I_closed(1, 1.0, x, y)
        with pytest.raises(ValueError, match=f"requires {name} that is not NaN"):
            I_k_quadrature(1, 1.0, x, y)


class TestVerifyIntegrals:
    """The 135 integrals of `hrx verify` against 40-digit mpmath, and
    scipy's adaptive `quad` as a second oracle on the same integrands."""

    def test_tables_cover_verify(self):
        assert list(IK_REFERENCE) == list(TAU3_REFERENCE) == hrx.cli._LAM_XY

    def test_I_k_matches_mpmath(self):
        for (lam, x, y), wants in IK_REFERENCE.items():
            for k, want in enumerate(wants):
                got = I_k_quadrature(k, lam, x, y)
                assert rel_err(got, want) <= 1e-14, (k, lam, x, y)

    def test_tau3_matches_mpmath(self):
        for (lam, x, y), want in TAU3_REFERENCE.items():
            integrand = hrx.cli._tau3_integrand(lam, x)
            got = quad_semi_infinite(integrand, y, 1e-12).value
            assert rel_err(got, want) <= 1e-14, (lam, x, y)

    def test_scipy_quad_agrees(self, exp_sinh_calls):
        # QUADPACK itself is up to 2.3e-11 off on these integrals
        from scipy.integrate import quad

        hrx.cli._verify_identities()
        assert len(exp_sinh_calls) == 135
        for call in exp_sinh_calls:
            want = quad(call.scalar, call.lower, math.inf, epsabs=0.0,
                        epsrel=1e-12, limit=200)[0]
            assert rel_err(call.value, want) <= 1e-10, call.lower

    def test_sums_match_fsum(self, exp_sinh_calls):
        # the rule's split sum equals math.fsum of every term, bit for
        # bit, at both steps; most integrals leave terms to numpy's sum
        hrx.cli._verify_identities()
        assert len(exp_sinh_calls) == 135
        assert [c.lower for c in exp_sinh_calls if not c.sums_match_fsum()] == []
        sizes = [np.abs(call.terms()[0]) for call in exp_sinh_calls]
        assert sum(np.any(s < 2.0**-60 * s.max()) for s in sizes) >= 100


class TestMonteCarlo:
    def test_comonotone_within_three_se(self):
        est, se = mc_triangular_maxima(50, 1.0, 0.5, 1.0, 200_000, 7)
        ref = hrx.exact_joint_max_cdf(50, 1.0, 0.5, 1.0)
        assert abs(est - ref) <= 3.0 * se

    def test_independent_within_three_se(self):
        est, se = mc_triangular_maxima(50, 0.0, 0.5, 1.0, 200_000, 11)
        ref = hrx.exact_joint_max_cdf(50, 0.0, 0.5, 1.0)
        assert abs(est - ref) <= 3.0 * se

    def test_reproducible(self):
        a = mc_triangular_maxima(50, 0.5, 1.0, 1.0, 50_000, 123)
        b = mc_triangular_maxima(50, 0.5, 1.0, 1.0, 50_000, 123)
        assert a == b

    def test_seed_sensitivity(self):
        a, _ = mc_triangular_maxima(50, 0.5, 1.0, 1.0, 50_000, 123)
        b, _ = mc_triangular_maxima(50, 0.5, 1.0, 1.0, 50_000, 124)
        assert a != b

    def test_standard_error_formula(self):
        est, se = mc_triangular_maxima(50, 0.5, 1.0, 1.0, 50_000, 123)
        assert se == math.sqrt(est * (1.0 - est) / 50_000)

    @pytest.mark.parametrize("n, rho, x, y, trials, seed", [
        (50, 0.5, 1.0, 1.0, 100_000, 5),  # 3 chunks, the last one partial
        (100_000, 0.5, 0.5, 1.0, 25, 6),  # 20-row chunks, 1-row blocks
        (2_000_001, 0.5, 1.0, 2.0, 2, 7),  # a row longer than a chunk
        (3, 0.5, 0.0, 0.0, 1, 8),
        (50, -1.0, 1.0, 0.5, 41_317, 9),
        (50, 0.0, 1.0, 0.5, 41_317, 10),
        (50, 1.0, 1.0, 0.5, 41_317, 11),
        (7, 0.3, -1.0, 2.0, 300_001, 12),  # no multiple of chunk or block
    ])
    def test_streaming_draws_as_chunked(self, n, rho, x, y, trials, seed):
        # the streamed sampler sees the same doubles as the sampler that
        # drew each chunk's Z1 and Z2 whole, so its estimates are equal
        got = mc_triangular_maxima(n, rho, x, y, trials, seed)
        assert got == _chunked_reference(n, rho, x, y, trials, seed)

    @pytest.mark.parametrize("trials", [100_000, 1_000_000])
    def test_memory_independent_of_trials(self, trials):
        # numpy reports its buffers to tracemalloc; the buffers hold
        # about 2e6 + 65536 doubles (16.1 MiB) whatever the trial count
        tracemalloc.start()
        try:
            mc_triangular_maxima(50, 0.5, 1.0, 1.0, trials, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20

    def test_unbiased_across_seeds(self):
        # the mean over many independent seeds must sit within four
        # pooled standard errors of the exact probability
        n, rho, x, y = 50, 0.5, 1.0, 1.0
        trials, seeds = 20_000, 60
        total_hits_rate = sum(
            mc_triangular_maxima(n, rho, x, y, trials, s)[0] for s in range(seeds)
        ) / seeds
        exact = hrx.exact_joint_max_cdf(n, rho, x, y)
        pooled_se = math.sqrt(exact * (1.0 - exact) / (seeds * trials))
        assert abs(total_hits_rate - exact) <= 4.0 * pooled_se

    def test_domain(self):
        with pytest.raises(ValueError):
            mc_triangular_maxima(2, 0.5, 0.0, 0.0, 100, 0)
        with pytest.raises(ValueError):
            mc_triangular_maxima(50, 0.5, 0.0, 0.0, 0, 0)
        with pytest.raises(ValueError):
            mc_triangular_maxima(50, 1.5, 0.0, 0.0, 100, 0)
        with pytest.raises(TypeError):
            mc_triangular_maxima(50, 0.5, 0.0, 0.0, 100.5, 0)
