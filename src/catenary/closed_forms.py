"""Exact solution families used as residual oracles.

Each family exposes its value together with analytic first and second
derivatives, so residual checks against the governing equations isolate
formula errors from numerical noise.  Families: the Euclidean hanging
curve cosh(mu t + nu)/mu, the cone solution mu/sqrt(cos(sqrt(2) v + nu)),
the Grusin square-root catenary mu*sqrt(2 v + nu) and the non-vertical
Grusin geodesics.  ``hyperbolic_quadrature`` gives the v-advance of a
curve on the hyperbolic plane, which has no closed-form parametrization.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from . import _MODULES
from .curvature import CurveJet2, catenary_residual
from .errors import (ConfigError, DomainError, _instance, _positive, _read_params, _sequence,
                     check_finite)
from .revolution import quadrature_v
from .surfaces import SurfaceSpec, catalog_surface, eval_metric

__all__ = _MODULES["closed_forms"].split()


class ClosedFormFamily(NamedTuple):
    """A parametrized exact solution with analytic derivatives.

    ``value``, ``d1`` and ``d2`` map the curve parameter to floats for the
    graph families (u as a function of v or t) and to (u, v) pairs for the
    geodesic family.  ``domain`` is the open parameter interval.
    """

    family: str
    params: dict
    domain: tuple[float, float]
    value: Callable
    d1: Callable
    d2: Callable


def _family(family: str, params: dict, domain: tuple[float, float], value: Callable,
            d1: Callable, d2: Callable) -> ClosedFormFamily:
    """A ClosedFormFamily whose value, d1 and d2 check their argument and result alike:
    ConfigError unless t is finite, DomainError outside the open ``domain``, and ConfigError
    ("euclidean.value(1000.0) leaves the float range") where the result overflows, is not
    finite or is a math error."""
    def checked(fn: Callable, name: str) -> Callable:
        def call(t):
            check_finite(t=t)
            if not domain[0] < t < domain[1]:
                raise DomainError(f"{name}: t={t!r} outside {domain!r}")
            try:
                result = fn(t)
            except (OverflowError, ValueError):  # ValueError: a math domain error, as cos(inf)
                result = math.inf
            if not all(map(math.isfinite, result if isinstance(result, tuple) else (result,))):
                raise ConfigError(f"{name}({t!r}) leaves the float range")
            return result
        return call

    return ClosedFormFamily(family, params, domain, checked(value, f"{family}.value"),
                            checked(d1, f"{family}.d1"), checked(d2, f"{family}.d2"))


def euclidean_catenary(mu: float, nu: float, t: float) -> float:
    """u(t) = cosh(mu t + nu)/mu, the plane solution for alpha = 1: a family value."""
    check_finite(mu=mu, nu=nu, t=t)
    return closed_form_family("euclidean", mu=mu, nu=nu).value(t)


def cone_catenary(mu: float, nu: float, v: float) -> float:
    """u(v) = mu/sqrt(cos(sqrt(2) v + nu)) on the 45-degree cone, alpha = 1: a family value."""
    check_finite(mu=mu, nu=nu, v=v)
    return closed_form_family("cone", mu=mu, nu=nu).value(v)


def grusin_catenary(mu: float, nu: float, v: float) -> float:
    """u(v) = mu*sqrt(2 v + nu) in the Grusin half-plane, alpha = 1: a family value."""
    check_finite(mu=mu, nu=nu, v=v)
    return closed_form_family("grusin_catenary", mu=mu, nu=nu).value(v)


def grusin_geodesic(u0: float, v0: float, s: float) -> tuple[float, float]:
    """Non-vertical unit-speed Grusin geodesic through (u0, v0), one arch: a family value."""
    check_finite(u0=u0, v0=v0, s=s)
    return closed_form_family("grusin_geodesic", u0=u0, v0=v0).value(s)


def hyperbolic_quadrature(r: float, alpha: float, c: float,
                          u0: float, u1: float) -> float:
    """v-advance on the hyperbolic plane of curvature -1/r^2.

    Computes c * int du / (cosh(u/r) * sqrt(u^(2 alpha) cosh(u/r)^2 - c^2))
    by delegating to ``quadrature_v`` on ``catalog_surface("hyperbolic",
    r=r)`` with Clairaut constant |c|, signed by c.  The integrand must be
    real on (u0, u1) except at integrable turning-point endpoints.
    """
    check_finite(c=c)
    dv = quadrature_v(catalog_surface("hyperbolic", r=r), alpha, abs(c), u0, u1)
    return dv if c > 0.0 else -dv


# --------------------------------------------------------------------------
# family objects
# --------------------------------------------------------------------------

_MU_NU = {"mu": 1.0, "nu": 0.0}
_FAMILY_PARAMS = {"euclidean": _MU_NU, "cone": _MU_NU, "grusin_catenary": _MU_NU,
                  "grusin_geodesic": {"u0": None, "v0": 0.0}}


def closed_form_family(family: str, **params) -> ClosedFormFamily:
    """Build a ClosedFormFamily by name.

    Families and parameters: euclidean, cone and grusin_catenary take mu
    (default 1) and nu (default 0); grusin_geodesic takes u0 and v0
    (default 0).  Any other name or parameter raises ConfigError.
    """
    if not isinstance(family, str) or family not in _FAMILY_PARAMS:
        raise ConfigError(f"unknown closed-form family: {family!r}")
    params = _read_params(params, _FAMILY_PARAMS[family], f"family {family!r}")
    if family == "grusin_geodesic":
        u0, v0 = _positive("u0", params["u0"]), params["v0"]
        half = math.pi * u0 / 2.0

        def d1(s):
            return (-math.sin(s / u0), -0.5 * u0 * (1.0 + math.cos(2.0 * s / u0)))

        def d2(s):
            return (-math.cos(s / u0) / u0, math.sin(2.0 * s / u0))

        return _family(
            family, params, (-half, half),
            value=lambda s: (u0 * math.cos(s / u0),
                             v0 - 0.5 * u0 * u0 * (s / u0 + 0.5 * math.sin(2.0 * s / u0))),
            d1=d1, d2=d2,
        )
    mu, nu = _positive("mu", params["mu"]), params["nu"]
    if family == "euclidean":
        return _family(
            family, params, (-math.inf, math.inf),
            value=lambda t: math.cosh(mu * t + nu) / mu,
            d1=lambda t: math.sinh(mu * t + nu),
            d2=lambda t: mu * math.cosh(mu * t + nu),
        )
    if family == "cone":
        rt2 = math.sqrt(2.0)

        def d1(v):
            w = rt2 * v + nu
            return 0.5 * rt2 * mu * math.sin(w) * math.cos(w) ** -1.5

        def d2(v):
            w = rt2 * v + nu
            return mu * (math.cos(w) ** -0.5
                         + 1.5 * math.sin(w) ** 2 * math.cos(w) ** -2.5)

        lo, hi = (-math.pi / 2 - nu) / rt2, (math.pi / 2 - nu) / rt2
        # rt2 * v + nu can round past +-pi/2 next to the edges: move each inward to the
        # last float where cos(rt2 * v + nu) > 0, so cos is positive on the whole domain
        while not math.cos(rt2 * hi + nu) > 0.0:
            hi = math.nextafter(hi, -math.inf)
        while not math.cos(rt2 * lo + nu) > 0.0:
            lo = math.nextafter(lo, math.inf)
        return _family(family, params, (lo, hi),
                       value=lambda v: mu / math.sqrt(math.cos(rt2 * v + nu)), d1=d1, d2=d2)
    return _family(  # grusin_catenary
        family, params, (-nu / 2.0, math.inf),
        value=lambda v: mu * math.sqrt(2.0 * v + nu),
        d1=lambda v: mu / math.sqrt(2.0 * v + nu),
        d2=lambda v: -mu * (2.0 * v + nu) ** -1.5,
    )


def validate_closed_form(family: ClosedFormFamily, spec: SurfaceSpec,
                         alpha: float, grid: Sequence[float]) -> float:
    """Max residual of the family against its governing equation on ``spec`` over the grid.

    Graph families are checked through ``catenary_residual`` on their exact 2-jets.  The
    geodesic family, critical for length (alpha = 0; any other alpha raises ConfigError),
    is checked against the geodesic equations of ``spec``'s metric du^2 + G^2 dv^2:
    u'' - G G_u v'^2 = 0 and v'' + (2 G_u u' v' + G_v v'^2)/G = 0.
    """
    grid = _sequence("grid", grid)
    if not grid:
        raise ConfigError("empty validation grid")
    worst = 0.0
    if _instance("family", family, ClosedFormFamily).family == "grusin_geodesic":
        if alpha != 0.0:
            raise ConfigError(f"alpha={alpha!r}: geodesics are critical for alpha = 0")
        for s in grid:
            u, v = family.value(s)
            du, dv = family.d1(s)
            ddu, ddv = family.d2(s)
            g, g_u, g_v = eval_metric(spec, u, v)
            r1 = ddu - g * g_u * dv * dv
            r2 = ddv + (2.0 * g_u * du * dv + g_v * dv * dv) / g
            worst = max(worst, abs(r1), abs(r2))
        return worst
    for t in grid:
        jet = CurveJet2(u=family.value(t), v=t, du=family.d1(t), dv=1.0,
                        ddu=family.d2(t), ddv=0.0)
        worst = max(worst, abs(catenary_residual(spec, alpha, jet)))
    return worst
