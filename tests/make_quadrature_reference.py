"""Regenerate the frozen integral tables `IK_REFERENCE` and
`TAU3_REFERENCE` in test_oracle.py and `LEMMA31_INTEGRALS` in
test_triangular.py.

    PYTHONPATH=src python tests/make_quadrature_reference.py > tables.txt

They hold the integrals that `hrx.quadrature.exp_sinh` computes in
doubles, evaluated in 40-digit mpmath and printed as correctly rounded
doubles:

- the 108 `I_k` and the 27 tau3 integrals of `hrx verify`, at its
  (lam, x, y) points,

      I_k  = int_y^inf phi(lam + (x-z)/(2 lam)) e^{-z} z^k dz,  k = 0..3,
      tau3 = int_y^inf Phi(lam + (x-z)/(2 lam)) e^{-z}
                       (z^4/8 - z^2/2 - 2) dz;

- the lemma 3.1 tail integrals of `lemma31_tail_approx`, over
  n in {1e3, 1e4, 1e6, 1e9}, rho in {-0.9, 0, 0.5, 0.9, 0.99}, four
  points and both orders,

      int_y^inf Phi((u_x - rho (b + z/b))/s) e^{-z} w(z) dz,

  with w = 1 + (1 - z^2/2)/b^2 (second order) plus
  (z^4/8 - z^2/2 - 2)/b^4 (third order), s = sqrt((1-rho)(1+rho)), and
  b, b^2, u_x and s the doubles the program forms from n, rho and x.

Each integral is tanh-sinh `mp.quad` over panels of [y, inf) with edges
at y + 0, 1, 2, 4, ..., 128, and again with every panel halved.  The two
must agree to 1e-25 relative: mpmath's own error estimate is not
trusted (see make_bvn_tail_reference.py).
"""
from __future__ import annotations

import math

from mpmath import mp, mpf

from hrx import solve_bn, threshold
from hrx.cli import _LAM_XY

mp.dps = 40

LEMMA31_N = (10**3, 10**4, 10**6, 10**9)
LEMMA31_RHO = (-0.9, 0.0, 0.5, 0.9, 0.99)
LEMMA31_POINTS = ((0.0, 0.0), (1.0, 1.0), (-1.0, 2.0), (2.0, -1.0))


# panel edges above the lower limit: doubling widths, then each panel
# halved; the last panel runs to infinity
CUTS = (0, 1, 2, 4, 8, 16, 32, 64, 128)
HALVED_CUTS = sorted({*CUTS, *((a + b) / 2 for a, b in zip(CUTS, CUTS[1:]))})


def certified(g, lower: float) -> mpf:
    """int_lower^inf g on two panel sets that must agree."""
    coarse, fine = (mp.quad(g, [lower + mpf(c) for c in cuts] + [mp.inf])
                    for cuts in (CUTS, HALVED_CUTS))
    assert abs(coarse - fine) <= mpf("1e-25") * abs(fine), (coarse, fine)
    return fine


def i_k(k: int, lam: float, x: float, y: float) -> mpf:
    lam, x = mpf(lam), mpf(x)
    return certified(
        lambda z: mp.npdf(lam + (x - z) / (2 * lam)) * mp.exp(-z) * z**k, y)


def tau3_integral(lam: float, x: float, y: float) -> mpf:
    lam, x = mpf(lam), mpf(x)
    return certified(
        lambda z: (mp.ncdf(lam + (x - z) / (2 * lam)) * mp.exp(-z)
                   * (z**4 / 8 - z * z / 2 - 2)), y)


def lemma31_integral(n: int, rho: float, x: float, y: float,
                     third: bool) -> mpf:
    constant = solve_bn(n)
    spread = math.sqrt((1.0 - rho) * (1.0 + rho))
    b, b2, u_x, rho, s = (mpf(v) for v in (
        constant.b, constant.b_squared, threshold(constant, x), rho, spread))
    b4 = mpf(constant.b_squared * constant.b_squared)

    def g(z):
        w = 1 + (1 - z * z / 2) / b2
        if third:
            w += (z**4 / 8 - z * z / 2 - 2) / b4
        return mp.ncdf((u_x - rho * (b + z / b)) / s) * mp.exp(-z) * w

    return certified(g, y)


def main() -> None:
    print("IK_REFERENCE = {")
    print("    # (lam, x, y): (I_0, I_1, I_2, I_3)")
    for lam, x, y in _LAM_XY:
        i0, i1, i2, i3 = (repr(float(i_k(k, lam, x, y))) for k in range(4))
        key = f"    ({lam!r}, {x!r}, {y!r}): ("
        print(f"{key}{i0}, {i1},\n{' ' * len(key)}{i2}, {i3}),")
    print("}")
    print("TAU3_REFERENCE = {")
    print("    # (lam, x, y): tau3's defining integral")
    for lam, x, y in _LAM_XY:
        print(f"    ({lam!r}, {x!r}, {y!r}): "
              f"{float(tau3_integral(lam, x, y))!r},")
    print("}")
    print("LEMMA31_INTEGRALS = {")
    print("    # (n, rho, x, y): (second-order, third-order) tail integral")
    for n in LEMMA31_N:
        for rho in LEMMA31_RHO:
            for x, y in LEMMA31_POINTS:
                second, third = (float(lemma31_integral(n, rho, x, y, t))
                                 for t in (False, True))
                print(f"    ({n}, {rho!r}, {x!r}, {y!r}): "
                      f"({second!r}, {third!r}),")
    print("}")


if __name__ == "__main__":
    main()
