"""Regenerate the frozen bivariate tables `BVN_TAIL_REFERENCE`,
`BVN_GENZ_REFERENCE` and `BVN_NEAR_ONE_REFERENCE` in test_gauss.py.

    python tests/make_bvn_tail_reference.py > table.txt

Each entry is P(X > h, Y > k) for a standard bivariate normal pair with
correlation rho, evaluated in 60-digit mpmath arithmetic and printed as
the correctly rounded double.  With a = max(h, k), c = min(h, k) and
s = sqrt(1 - rho^2),

    P = phi(a)/a * int_0^inf e^{-v} exp(-v^2/(2 a^2))
                   * survival((c - rho*a - rho*v/a)/s) dv,

integrated by composite 24-point Gauss-Legendre on [0, 80] at two
subdivision levels: panels of 1/10 on [0, 4] and 1/2 on [4, 80], then
1/25 and 1/4.  The two levels must agree to 1e-25 relative, which the
script checks instead of trusting mpmath's own error estimate: tanh-sinh
`mp.quad` on coarse breakpoints returned (20, 20, 0.3) wrong by 2.5e-11
while reporting an error of 1e-53.  The neglected tail beyond v = 80 is
below e^{-80} of the integral.  Cases whose value is below 1e-300 are
dropped, because subnormal doubles carry no relative accuracy.

`BVN_GENZ_REFERENCE` holds pairs with h > k at -1 < rho < -0.925, the
Genz branch of `bivariate_normal_survival` (min(h, k) < 3).  Each value
is the conditional integral

    P = int_h^inf phi(z) survival((k - rho*z)/s) dz

by tanh-sinh `mp.quad`, with breakpoints at the scale of phi near h and
around the edge z = k/rho of the survival factor, whose width is
s/|rho|.  The same integral with h and k exchanged conditions on the
other variable; the two orders must agree to 1e-25 relative, which
guards against the misreported errors of tanh-sinh noted above.

`BVN_NEAR_ONE_REFERENCE` holds joint-tail pairs at 0.92 <= rho < 1,
up to the last double below 1.  There the survival factor rises to 1
across an edge at z = c/rho only s/rho wide, far narrower than the
panels above.  Each value is computed two ways, which must agree to
1e-25 relative:

  * the conditional integral on a = max(h, k) in the variable v above,
    on panels refined to the edge's width within 16 widths of it;
  * the diagonal sum L(h, (k - h)/(2t); -t) + L(k, (h - k)/(2t); -t),
    t = sqrt((1 - rho)/2), which splits the event at X - Y = h - k.
    L(a, w; r) = P(X > a, Y > w) at correlation r, conditioned on X, and
    at r = -t its survival factor has no narrow edge.

Both use composite 24-point Gauss-Legendre, not tanh-sinh on coarse
breakpoints, for the misreported errors noted above.
"""
from __future__ import annotations

import mpmath
from mpmath import mp, mpf
from mpmath.calculus.quadrature import GaussLegendre

mp.dps = 60

RHOS_AND_POINTS = [
    (-0.98, [(3.0, 3.0)]),
    (-0.9, [(3.0, 3.0), (3.0, 4.5), (7.25, 9.0), (4.0, 11.5)]),
    (-0.77, [(11.5, 11.5)]),
    (-0.7, [(9.75, 18.5)]),
    (-0.5, [(3.0, 3.0), (4.0, 6.0), (8.0, 8.0), (17.0, 17.0)]),
    (-0.2, [(3.5, 3.0), (10.0, 12.0)]),
    (0.1, [(3.0, 3.0), (5.0, 9.0), (15.0, 15.0)]),
    (0.3, [(4.0, 4.0), (12.0, 7.0), (20.0, 20.0)]),
    (0.5, [(3.0, 3.0), (6.0, 6.5), (16.0, 22.0), (25.0, 25.0)]),
    (0.7, [(4.5, 4.0), (10.0, 10.0), (30.0, 20.0)]),
    (0.9, [(3.0, 3.0), (6.0, 5.0), (15.0, 20.0), (30.0, 30.0)]),
    (0.95, [(5.0, 5.0), (8.0, 12.0), (34.0, 36.0)]),
    (0.99, [(3.0, 3.0), (6.0, 7.0), (20.0, 20.0), (37.0, 37.0)]),
    (0.999, [(3.0, 4.0), (8.0, 8.0), (25.0, 30.0), (37.0, 36.0)]),
    (0.9999, [(3.0, 3.0), (3.0, 3.1), (6.2, 6.2), (12.0, 11.0),
              (30.0, 30.0), (37.0, 37.0), (36.5, 37.0)]),
]

# (h, k, rho) with h > k and -1 < rho < -0.925
GENZ_POINTS = [
    (8.5744, -8.9823, -0.99367), (8.68, -8.25, -0.93), (8.9, -8.95, -0.999),
    (6.0, -6.5, -0.96), (5.27, -7.31, -0.977), (5.57, -7.37, -0.948),
    (2.9, -3.2, -0.99), (2.5, -2.6, -0.98), (1.3, -6.6, -0.973),
    (1.08, -0.86, -0.93), (0.51, -8.73, -0.995), (0.21, -5.68, -0.953),
    (0.14, -0.62, -0.956), (-0.65, -1.07, -0.94), (-3.3, -4.9, -0.978),
    (-4.6, -5.6, -0.997),
]

_NODES = GaussLegendre(mp).calc_nodes(4, mp.prec)  # 24 points on [-1, 1]


def _panels(width_head: mpf, width_tail: mpf, top: mpf = mpf(80)):
    edges = [mpf(0)]
    while edges[-1] < 4:
        edges.append(edges[-1] + width_head)
    while edges[-1] < top:
        edges.append(edges[-1] + width_tail)
    return list(zip(edges, edges[1:]))


def _survival(x):
    return mpmath.erfc(x / mpmath.sqrt(2)) / 2


def _integral(g, panels):
    total = mpf(0)
    for lo, hi in panels:
        half = (hi - lo) / 2
        mid = (hi + lo) / 2
        total += half * mp.fsum(w * g(mid + half * x) for x, w in _NODES)
    return total


def joint_tail(h: float, k: float, rho: float) -> mpf:
    a, c, r = mpf(max(h, k)), mpf(min(h, k)), mpf(rho)
    s = mpmath.sqrt((1 - r) * (1 + r))

    def g(v):
        return (mpmath.exp(-v * v / (2 * a * a)) * mpmath.exp(-v)
                * _survival((c - r * a - r * v / a) / s))

    coarse = _integral(g, _panels(mpf(1) / 10, mpf(1) / 2))
    fine = _integral(g, _panels(mpf(1) / 25, mpf(1) / 4))
    if abs(coarse - fine) > mpf("1e-25") * fine:
        raise RuntimeError(f"levels disagree at {(h, k, rho)}: {coarse} vs {fine}")
    return mpmath.npdf(a) / a * fine


def _conditional(h: float, k: float, rho: float) -> mpf:
    h, k, r = mpf(h), mpf(k), mpf(rho)
    s = mpmath.sqrt((1 - r) * (1 + r))
    step = 1 / max(abs(h), mpf(1))
    edge, width = k / r, s / abs(r)
    breaks = {h, *(h + j * step for j in range(1, 41)),
              *(edge + j * width for j in range(-12, 13))}
    breaks = sorted(b for b in breaks if b >= h)

    def f(z):
        return mpmath.npdf(z) * _survival((k - r * z) / s)

    return mp.quad(f, breaks + [mp.inf])


def genz_survival(h: float, k: float, rho: float) -> mpf:
    by_x = _conditional(h, k, rho)
    by_y = _conditional(k, h, rho)
    if abs(by_x - by_y) > mpf("1e-25") * by_x:
        raise RuntimeError(f"orders disagree at {(h, k, rho)}: {by_x} vs {by_y}")
    return by_x


# (h, k, rho) with rho in [0.92, 1), up to the last double below 1, where
# `joint_tail_survival` takes its diagonal pass.  (4.7534243088228987, ...)
# is the corollary-zero row at n = 1e6 with tau-rate 0.01, grid point
# (0, 0); the direct pass certifies (5.5208761402603574, ...) 1.2e-3 high.
NEAR_ONE_POINTS = [
    (3.0, 3.0, 0.92), (3.0, 4.5, 0.92), (12.0, 12.0, 0.92),
    (25.0, 20.0, 0.92), (4.2, 4.2, 0.95), (3.0, 3.0, 0.975),
    (7.5, 7.0, 0.975), (18.0, 18.0, 0.975), (33.0, 33.0, 0.975),
    (5.0, 5.3, 0.99), (3.0, 3.0, 0.995), (10.0, 10.0, 0.995),
    (36.0, 36.0, 0.995), (3.0, 3.0, 0.999), (3.0, 3.05, 0.999),
    (14.5, 14.5, 0.999), (5.0, 5.0, 0.9995), (27.0, 27.0, 0.9995),
    (4.0, 4.02, 0.9999), (9.0, 9.0, 0.9999), (37.0, 36.9, 0.9999),
    (3.0, 3.0, 0.99999), (3.0, 3.003, 0.99999), (16.0, 16.0, 0.99999),
    (30.0, 30.01, 0.99999), (6.5, 6.5, 0.999998), (20.0, 20.0, 0.999999),
    (20.0, 20.001, 0.999999), (35.0, 35.0, 0.999999),
    (4.7534243088228987, 4.7534243088228987, 0.9999999620773059),
    (5.5208761402603574, 5.5208761402603574, 0.9999998499958104),
    (5.52, 5.5208761402603574, 0.9999998499958104),
    (5.0, 5.0, 0.99999999), (5.0, 5.0001, 0.99999999),
    (12.0, 12.0, 0.99999999), (3.0, 3.0, 1.0 - 1e-10),
    (8.0, 8.00001, 1.0 - 1e-10), (4.0, 4.0, 1.0 - 1e-12),
    (25.0, 25.0, 1.0 - 1e-12), (3.0, 3.0, 1.0 - 1e-15),
    (3.0, 3.0000001, 1.0 - 1e-15), (37.0, 37.0, 1.0 - 1e-15),
    (10.0, 10.0, 1.0 - 3e-16), (3.0, 3.0, 1.0 - 2.2e-16),
    (5.0, 5.0, 0.9999999999999999), (20.0, 20.0000001, 0.9999999999999999),
]


def _edge_panels(edge, width, top):
    """`_panels` up to `top`, refined to steps of `width` within 16 widths
    of `edge`: the survival factor rises across the edge, and panels of
    its width resolve it at any rho."""
    breaks = {mpf(0), top}
    for lo, hi in _panels(mpf(1) / 10, mpf(1) / 2, top):
        breaks.add(hi)
    breaks.update(edge + j * width for j in range(-16, 17))
    breaks = sorted(b for b in breaks if 0 <= b <= top)
    return list(zip(breaks, breaks[1:]))


def _laguerre_integral(a, c, r, lam):
    """P(X > a, Y > c) at correlation r by conditioning on X, z = a + v/lam:
    phi(a)/lam * int_0^inf e^{-v a/lam - v^2/(2 lam^2)}
                         * survival(x0 - r v/(s lam)) dv,  x0 = (c - r a)/s,
    on panels that follow the edge of the survival factor, at v = x0 s lam/r
    and s lam/|r| wide.  For r > 0 the factor rises across the edge, and
    the panels run to 80 past it; for r < 0 it falls, the integrand is at
    most its value at 0 times e^{-v}, and they run to 80."""
    s = mpmath.sqrt((1 - r) * (1 + r))
    x0 = (c - r * a) / s
    edge, width = x0 * s * lam / r, s * lam / abs(r)

    def g(v):
        return (mpmath.exp(-v * a / lam - v * v / (2 * lam * lam))
                * _survival(x0 - r * v / (s * lam)))

    top = 80 + (max(edge, mpf(0)) if r > 0 else 0)
    return mpmath.npdf(a) / lam * _integral(g, _edge_panels(edge, width, top))


def near_one_survival(h: float, k: float, rho: float) -> mpf:
    """P(X > h, Y > k) two ways, which must agree to 1e-25 relative: the
    conditional integral on the larger threshold, and the diagonal sum
    L(h, (k - h)/(2t); -t) + L(k, (h - k)/(2t); -t), t = sqrt((1 - rho)/2),
    that splits the event at X - Y = h - k."""
    h, k, r = mpf(h), mpf(k), mpf(rho)
    a, c = max(h, k), min(h, k)
    direct = _laguerre_integral(a, c, r, a)
    t = mpmath.sqrt((1 - r) / 2)
    sp = mpmath.sqrt((1 + r) / 2)  # sqrt(1 - t^2)
    diagonal = mpf(0)
    for first, other in ((h, k), (k, h)):
        w = (other - first) / (2 * t)
        lam = first + t * max((w + t * first) / sp, mpf(0)) / sp
        diagonal += _laguerre_integral(first, w, -t, lam)
    if abs(direct - diagonal) > mpf("1e-25") * diagonal:
        raise RuntimeError(f"ways disagree at {(h, k, rho)}: {direct} vs {diagonal}")
    return diagonal


def main() -> None:
    print("BVN_TAIL_REFERENCE = [")
    print("    # (h, k, rho, P(X > h, Y > k)), correctly rounded doubles")
    for rho, points in RHOS_AND_POINTS:
        for h, k in points:
            value = float(joint_tail(h, k, rho))
            if value < 1e-300:
                continue
            print(f"    ({h!r}, {k!r}, {rho!r}, {value!r}),")
    print("]")
    print("BVN_GENZ_REFERENCE = [")
    print("    # (h, k, rho, P(X > h, Y > k)), correctly rounded doubles")
    for h, k, rho in GENZ_POINTS:
        print(f"    ({h!r}, {k!r}, {rho!r}, {float(genz_survival(h, k, rho))!r}),")
    print("]")
    print("BVN_NEAR_ONE_REFERENCE = [")
    print("    # (h, k, rho, P(X > h, Y > k)), correctly rounded doubles")
    for h, k, rho in NEAR_ONE_POINTS:
        value = float(near_one_survival(h, k, rho))
        if value >= 1e-300:
            print(f"    ({h!r}, {k!r}, {rho!r}, {value!r}),")
    print("]")


if __name__ == "__main__":
    main()
