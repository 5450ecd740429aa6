"""Independent cross-check machinery: quadrature and Monte Carlo."""
from __future__ import annotations

import math
import operator
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
        r = quad_semi_infinite(lambda z: math.exp(-z), 0.0, 1e-12)
        assert abs(r.value - 1.0) <= 1e-12
        assert r.abs_error_estimate >= 0.0
        assert r.evaluations > 0

    def test_gamma_two(self):
        r = quad_semi_infinite(lambda z: z * math.exp(-z), 0.0, 1e-12)
        assert abs(r.value - 1.0) <= 1e-12

    def test_shifted_lower_limit(self):
        r = quad_semi_infinite(lambda z: math.exp(-z), 2.5, 1e-12)
        assert abs(r.value - math.exp(-2.5)) <= 1e-12

    def test_deterministic(self):
        f = lambda z: math.exp(-z) * math.cos(z)
        assert quad_semi_infinite(f, 0.0, 1e-10) == quad_semi_infinite(
            f, 0.0, 1e-10
        )

    def test_result_is_frozen(self):
        r = quad_semi_infinite(lambda z: math.exp(-z), 0.0, 1e-10)
        assert isinstance(r, QuadratureResult)
        with pytest.raises(AttributeError):
            r.value = 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_tolerance_domain(self, tol):
        with pytest.raises(ValueError):
            quad_semi_infinite(lambda z: math.exp(-z), 0.0, tol)

    def test_nonconvergence_raises_with_partial(self):
        # a non-decaying oscillation defeats the decay-based transform
        with pytest.raises(QuadratureConvergenceError) as info:
            quad_semi_infinite(lambda z: math.sin(200.0 * z), 0.0, 1e-10)
        partial = info.value.partial
        assert isinstance(partial, QuadratureResult)
        assert partial.abs_error_estimate > 1e-10

    def test_missed_tolerance_raises(self, unconverged_quad):
        with pytest.raises(QuadratureConvergenceError) as info:
            quad_semi_infinite(lambda z: math.exp(-z), 0.0, 1e-10)
        assert info.value.partial == unconverged_quad


class TestCheckedQuad:
    def test_flag_with_estimate_in_tolerance_is_kept(self, monkeypatch):
        # QUADPACK may flag roundoff after it has met the tolerance anyway
        monkeypatch.setattr(
            hrx.quadrature, "quad",
            lambda *a, **kw: (2.0, 1e-14, {"neval": 63}, "roundoff"),
        )
        got = hrx.quadrature.checked_quad(math.exp, 0.0, 1.0, 0.0, 1e-13, "f")
        assert got == QuadratureResult(2.0, 1e-14, 63)

    def test_missed_tolerance_raises(self, unconverged_quad):
        with pytest.raises(QuadratureConvergenceError) as info:
            hrx.quadrature.checked_quad(math.exp, 0.0, 1.0, 0.0, 1e-13, "f")
        assert info.value.partial == unconverged_quad
        assert str(info.value) == "f: forced non-convergence"


class TestIkQuadrature:
    def test_matches_simple_closed_form(self):
        # I_0(1; 0, 0) = 2 (1 - Phi(1))
        got = I_k_quadrature(0, 1.0, 0.0, 0.0)
        want = 2.0 * hrx.std_normal_survival(1.0)
        assert abs(got - want) <= 1e-10

    def test_vanishes_as_y_grows(self):
        for k in range(4):
            assert abs(I_k_quadrature(k, 1.0, 0.0, 60.0)) <= 1e-12

    @pytest.mark.parametrize("k", [-1, 4])
    def test_k_domain(self, k):
        with pytest.raises(ValueError):
            I_k_quadrature(k, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf])
    def test_lambda_domain(self, lam):
        with pytest.raises(ValueError):
            I_k_quadrature(0, lam, 0.0, 0.0)


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
