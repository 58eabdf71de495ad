"""``quadrature_v`` between turning points against 20-digit references.

The reference integrates the same profile in mpmath between the exact roots
of rho = c, found from the float turning points: tanh-sinh quadrature on the
two end pieces, where the integrand has an inverse square root, and
Gauss-Legendre on the knot pieces between them, where it is smooth.
"""

import bisect
import math

import pytest

from catenary import catalog_surface, critical_parallels, quadrature_v, tabulated_profile, \
    turning_points

mp = pytest.importorskip("mpmath")

REL = 1e-10


def _reference(a, alpha, c, turning, knots=()):
    with mp.workdps(20):
        alpha, c = mp.mpf(alpha), mp.mpf(c)

        def gap(t):
            return t ** alpha * a(t) - c

        def q(t):
            rad = ((t ** alpha * a(t)) / c) ** 2 - 1
            return 1 / (a(t) * mp.sqrt(rad)) if rad > 0 else mp.mpf(0)

        lo, hi = (mp.findroot(gap, mp.mpf(u), tol=mp.mpf(10) ** -18) for u in turning)
        cuts = [lo, *(mp.mpf(k) for k in knots if lo < k < hi), hi]
        if len(cuts) == 2:
            return float(mp.quad(q, cuts))
        return float(mp.quad(q, cuts[:2]) + mp.quad(q, cuts[1:-1], method="gauss-legendre")
                     + mp.quad(q, cuts[-2:]))


def _pchip_in_mpmath(us, ys):
    # the interpolant the library evaluates in floats, with exact arithmetic
    from scipy.interpolate import PchipInterpolator

    # per piece: the knot and the coefficients of s^3, s^2, s and 1
    pieces = [(mp.mpf(u), *map(mp.mpf, row))
              for u, row in zip(us, PchipInterpolator(us, ys).c.T.tolist())]

    def a(t):
        x, c3, c2, c1, c0 = pieces[min(max(bisect.bisect_right(us, float(t)) - 1, 0), len(us) - 2)]
        s = t - x
        return ((c3 * s + c2) * s + c1) * s + c0

    return a


@pytest.mark.parametrize("n, alpha, k, rip, w, ph, share", [
    (40, 1.0, 1.0, 0.03, 5.0, 1.0, 0.5),
    (40, 2.0, 0.97, 0.045, 7.3, 4.1, 0.8),
    (400, 0.5, 1.02, 0.02, 3.6, 2.5, 0.3),
    (400, 1.0, 0.99, 0.04, 6.2, 0.4, 0.6),
])
def test_tabulated_quadrature_matches_mpmath(n, alpha, k, rip, w, ph, share):
    us = [0.1 + 1.3 * j / (n - 1) for j in range(n)]
    ys = [math.cos(k * u) + 0.08 + rip * math.sin(w * u + ph) for u in us]
    spec = tabulated_profile(list(zip(us, ys)))
    rho = [u ** alpha * y for u, y in zip(us, ys)]
    c = max(rho[0], rho[-1]) + share * (max(rho) - max(rho[0], rho[-1]))
    tp = turning_points(spec, alpha, c)
    assert len(tp) == 2
    want = _reference(_pchip_in_mpmath(us, ys), alpha, c, tp, us)
    assert quadrature_v(spec, alpha, c, *tp) == pytest.approx(want, rel=REL, abs=0.0)


@pytest.mark.parametrize("below_top", [None, 1e-3, 1e-4])
def test_sphere_quadrature_matches_mpmath(below_top):
    # rho = u cos u; c = 0.5, or c just below the stable parallel's rho
    sphere = catalog_surface("sphere")
    [top] = critical_parallels(sphere, 1.0)
    c = 0.5 if below_top is None else top.u * math.cos(top.u) - below_top
    tp = turning_points(sphere, 1.0, c)
    assert len(tp) == 2
    want = _reference(mp.cos, 1.0, c, tp)
    assert quadrature_v(sphere, 1.0, c, *tp) == pytest.approx(want, rel=REL, abs=0.0)
