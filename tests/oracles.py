"""Independent reference computations shared by the tests.

Everything here deliberately avoids the library's own code paths: plain
bisection, central differences, scipy quadrature on raw integrands, and
scipy's RK45 on the conformal-metric geodesic equations.
"""

import math

from scipy.integrate import quad, solve_ivp

# Root of cos(u) = u*sin(u) on (0, pi/2), correctly rounded (test_validation checks it).
USTAR = 0.8603335890193797
# rho(USTAR) with rho(u) = u*cos(u)
RHO_STAR = 0.5610963381910451
# Solutions of u*cos(u) = 0.5 bracketing USTAR
UM_HALF = 0.610031284464176
UM_BIG = 1.0980088767961534
# int_1^inf 0.5 dt / (sqrt(1+t^2) * sqrt(t^2 (1+t^2) - 0.25))
CATENOID_IMPROPER_HALF = 0.17705472353033189


def bisect(fn, a, b, xtol=1e-14):
    fa, fb = fn(a), fn(b)
    assert fa * fb < 0.0, "oracle bracket must straddle a root"
    while (b - a) > xtol:
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def fd1(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd2(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def conformal_geodesic_oracle(spec, alpha, u0, v0, phi0, s_span):
    """Geodesics of u^(2*alpha) * (du^2 + G^2 dv^2) via scipy's RK45.

    Returns a callable mapping unweighted arc length s to (u, v).
    """
    metric = spec.patch.metric

    def rhs(t, y):
        u, v, du, dv, _ = y
        g, gu, gv = metric(u, v)
        e = u ** (2.0 * alpha)
        e_u = 2.0 * alpha * u ** (2.0 * alpha - 1.0)
        g22 = e * g * g
        g22_u = e_u * g * g + 2.0 * e * g * gu
        g22_v = 2.0 * e * g * gv
        ddu = -(e_u / (2.0 * e)) * du * du + (g22_u / (2.0 * e)) * dv * dv
        ddv = -(g22_u / g22) * du * dv - (g22_v / (2.0 * g22)) * dv * dv
        return [du, dv, ddu, ddv, (u0 / u) ** alpha]

    g0 = metric(u0, v0)[0]
    y0 = [u0, v0, math.cos(phi0), math.sin(phi0) / g0, 0.0]
    sol = solve_ivp(rhs, (0.0, 2.5 * s_span), y0, rtol=1e-11, atol=1e-12,
                    dense_output=True, max_step=max(s_span / 50.0, 1e-3))

    def at_s(s):
        a, b = 0.0, sol.t[-1]
        assert sol.sol(b)[4] >= s, "oracle geodesic too short"
        while (b - a) > 1e-13 * max(1.0, abs(b)):
            mid = 0.5 * (a + b)
            if sol.sol(mid)[4] < s:
                a = mid
            else:
                b = mid
        y = sol.sol(0.5 * (a + b))
        return float(y[0]), float(y[1])

    return at_s


def raw_quadrature(a_fn, alpha, c, u0, u1):
    """First-integral quadrature on the raw integrand (scipy handles limits)."""

    def integrand(t):
        rad = (t ** alpha * a_fn(t) / c) ** 2 - 1.0
        return 1.0 / (a_fn(t) * math.sqrt(rad)) if rad > 0.0 else 0.0

    value, _ = quad(integrand, u0, u1, epsabs=1e-13, epsrel=1e-12, limit=300)
    return value
