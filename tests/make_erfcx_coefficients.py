"""Regenerate the frozen erfcx polynomial `_ERFCX_POLY` in gauss.py.

    python tests/make_erfcx_coefficients.py

The joint-tail pass needs erfcx(z) = exp(z^2) erfc(z) for z >= 0.  With
K = 3 and the map t = (z - K)/(z + K), which takes [0, inf) onto [-1, 1),

    q(t) = erfcx(z) (z + K)/K

is smooth on [-1, 1], equal to erfcx(0) = 1 at t = -1, and tends to
1/(K sqrt(pi)) as z -> inf, t -> 1, since erfcx(z) ~ 1/(z sqrt(pi)).  So
one polynomial in t covers the whole half-line (Weideman 1994, SIAM J.
Numer. Anal. 31, expands erfcx in the same variable), and
erfcx(z) = K/(z + K) q(t).

q is interpolated at the 25 Chebyshev points of the first kind in
50-digit mpmath.  The Chebyshev series is converted to the monomial basis
in mpmath too, and each coefficient is rounded to a double once.  The
largest coefficient is about 0.36 in magnitude, so Horner's rule in
doubles is well conditioned on [-1, 1].  The tuple is printed highest
degree first, the order in which Horner's rule consumes it.
"""
from __future__ import annotations

import mpmath
from mpmath import mp, mpf

mp.dps = 50

K = 3
DEGREE = 24


def q(t: mpf) -> mpf:
    """erfcx(z) (z + K)/K at z = K (1 + t)/(1 - t), for -1 <= t < 1."""
    z = K * (1 + t) / (1 - t)
    return mpmath.erfc(z) * mpmath.exp(z * z) * (z + K) / K


def coefficients() -> tuple[float, ...]:
    """The monomial coefficients of the degree-24 interpolant of q,
    highest degree first, each the correctly rounded double."""
    n = DEGREE + 1
    angles = [mp.pi * (2 * j + 1) / (2 * n) for j in range(n)]
    values = [q(mpmath.cos(theta)) for theta in angles]
    # Chebyshev coefficients c_m = (2/n) sum_j q(t_j) T_m(t_j), halved
    # at m = 0
    cheb = [2 * mpmath.fsum(v * mpmath.cos(m * theta)
                            for v, theta in zip(values, angles)) / n
            for m in range(n)]
    cheb[0] /= 2
    # T_m in the monomial basis, lowest power first, by
    # T_{m+1} = 2t T_m - T_{m-1}
    basis = [[mpf(1)], [mpf(0), mpf(1)]]
    while len(basis) < n:
        step = [2 * x for x in [mpf(0), *basis[-1]]]
        for p, x in enumerate(basis[-2]):
            step[p] -= x
        basis.append(step)
    monomial = [mpmath.fsum(c * b[p] for c, b in zip(cheb, basis)
                            if p < len(b))
                for p in range(n)]
    return tuple(float(c) for c in reversed(monomial))


def main() -> None:
    print("_ERFCX_POLY = (")
    for c in coefficients():
        print(f"    {c!r},")
    print(")")


if __name__ == "__main__":
    main()
