"""Norming constants b_n and the threshold map u_n.

Frozen b_n literals come from 50-digit root solves of n(1 - Phi(b)) = 1;
the expansion-residual literals come from the same solves pushed through
the asymptotic series for 1/n.
"""
from __future__ import annotations

import math

import pytest

from hrx import (
    NormingConstant,
    bn_expansion_residual,
    solve_bn,
    std_normal_survival,
    threshold,
)

BN_SAMPLES = {
    100: 2.3263478740408411,
    1000: 3.0902323061678135,
    10000: 3.7190164854556806,
    1000000: 4.7534243088228989,
    100000000: 5.6120012441747887,
}

RESIDUAL_SAMPLES = {
    1000: 9.0608660207124924,
    10000: 10.252953864417094,
    1000000: 11.620774097220643,
}


class TestSolve:
    def test_frozen_values(self):
        for n, want in BN_SAMPLES.items():
            got = solve_bn(n)
            assert isinstance(got, NormingConstant)
            assert got.n == n
            assert abs(got.b - want) <= 1e-14 * want

    def test_defining_equation(self):
        for n in (3, 10, 100, 10**4, 10**6, 10**9, 10**12, 10**15):
            b = solve_bn(n).b
            assert abs(n * std_normal_survival(b) - 1.0) <= 1e-14

    def test_n_equals_two(self):
        # b_2 = 0 would give no threshold u_n(x) = b + x/b: rows start at 3
        with pytest.raises(ValueError, match=r"^requires n >= 3, got 2$"):
            solve_bn(2)

    def test_monotone_in_n(self):
        bs = [solve_bn(n).b for n in (3, 5, 10, 50, 10**3, 10**6, 10**9)]
        assert all(a < b for a, b in zip(bs, bs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_bn(1)
        with pytest.raises(ValueError):
            solve_bn(0)
        with pytest.raises(TypeError):
            solve_bn(2.5)

    def test_b_squared(self):
        c = solve_bn(1000)
        assert c.b_squared == c.b * c.b


class TestThreshold:
    def test_shape(self):
        c = solve_bn(1000)
        assert threshold(c, 0.0) == c.b
        assert threshold(c, 1.0) == c.b + 1.0 / c.b
        assert threshold(c, -2.0) == c.b - 2.0 / c.b

    def test_rejects_degenerate_constant(self):
        with pytest.raises(ValueError):
            threshold(NormingConstant(2, 0.0), 1.0)

    def test_monotone_in_x(self):
        c = solve_bn(10**4)
        us = [threshold(c, x) for x in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        assert all(a < b for a, b in zip(us, us[1:]))


class TestExpansionResidual:
    def test_frozen_values(self):
        for n, want in RESIDUAL_SAMPLES.items():
            assert abs(bn_expansion_residual(n) - want) <= 1e-9 * want

    def test_degenerate(self):
        with pytest.raises(ValueError, match=r"^requires n >= 3, got 2$"):
            bn_expansion_residual(2)

    def test_slow_growth(self):
        # the next series term is O(b^{-6}) with a modest coefficient, so
        # the scaled residual grows but stays far below b^2
        for n in (10**3, 10**6, 10**9, 10**12):
            r = bn_expansion_residual(n)
            assert 0.0 < r < solve_bn(n).b_squared
