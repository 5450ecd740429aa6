"""Symbolic checks of the shipped closed forms.

The kernels of `hr_core` run unchanged on sympy expressions: a `_Point`
whose normal terms Phi(w), Phi(2 lam - w), Phi-bar(w) and phi(w) are
symbols, and whose e^{-x} weight is 1, so that `_weighted` returns
poly * w2 and each polynomial coefficient can be read off.  The float
literals of the kernels are dyadic, so `nsimplify` makes them exact.
"""
from __future__ import annotations

import sympy as sp

from hrx import hr_core

lam, x, y, alpha, beta = sp.symbols("lam x y alpha beta", real=True)
cdf_w, cdf_v, sf_w, pdf_w, s_x, s_y, t_x, t_y = sp.symbols(
    "Phi_w Phi_v Phibar_w phi_w s_x s_y t_x t_y")


def symbolic_point() -> hr_core._Point:
    return hr_core._Point(
        lam, x, y, (y - x) / (2 * lam), sp.Integer(1), s_x, t_x,
        sp.Integer(1), s_y, t_y, cdf_w, cdf_v, sf_w, pdf_w,
        tuple(lam**k for k in range(2, 9)))


def exact(expr) -> sp.Expr:
    return sp.expand(sp.nsimplify(expr, rational=True))


def test_tau_survival_terms_sum_to_minus_t(monkeypatch):
    # The Phi-bar(w) coefficients of tau1 + tau2 - tau3 cancel in every
    # term with lam or alpha (lam^8, lam^6, lam^6 x, lam^4 x^2, alpha
    # lam^3, alpha lam x, ...) and leave -t(x) e^x; the Phi(2 lam - w)
    # term is tau3's boundary term t(y).  So tau = t(x) Phi(w) +
    # t(y) Phi(2 lam - w) + Q e^{-x} phi(w), the shape of kappa.
    p = symbolic_point()
    tau = exact(hr_core._tau1(alpha, beta, p) + hr_core._tau2(alpha, p)
                - hr_core._tau3(p))
    minus_t = x**4 / 8 + x**3 / 2 + x**2 + 2 * x
    assert sp.expand(tau.coeff(sf_w) - minus_t) == 0
    assert tau.coeff(cdf_v) == t_y
    assert sp.expand(tau - tau.coeff(sf_w) * sf_w - t_y * cdf_v
                     - tau.coeff(pdf_w) * pdf_w) == 0
    # and minus_t is -t(x) e^x of the shipped t(x)
    monkeypatch.setattr(hr_core, "_exp_neg", lambda v: sp.Integer(1))
    assert sp.expand(exact(hr_core._t_term(x)) + minus_t) == 0
