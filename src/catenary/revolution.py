"""Analysis on rotationally symmetric metrics G = a(u).

Because the metric does not depend on v, every traced curve conserves the
Clairaut-type quantity c = u^alpha * a(u) * sin(phi) = rho(u) * cos(theta),
where rho(u) = a(u) * u^alpha and theta is the angle with the parallels.
This module finds critical parallels (roots of rho'), classifies their
linear stability, solves for v by quadrature, builds the conformal
coordinate z with dz = du/a(u), and exports the Euclidean embedding when
|a'| <= 1.

The quadrature integrand q(t) = 1/(a(t)*sqrt(rho(t)^2/c^2 - 1)) blows up
like an inverse square root at turning points rho(t) = c.  The substitution
t = endpoint +/- xi^2 removes these integrable singularities; improper
upper limits are delegated to the tail transformation built into QUADPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InaccessibleRegionError,
    KindError,
    NotCriticalError,
    NotRealizableError,
    check_finite,
)
from .surfaces import RevolutionProfile, SurfaceSpec
from .tracing import CatenaryState

__all__ = [
    "CriticalParallel",
    "ClairautProfile",
    "clairaut_constant",
    "clairaut_profile",
    "critical_parallels",
    "turning_points",
    "quadrature_v",
    "conformal_coordinate",
    "stability_exponent",
    "embed_revolution",
    "export_embedding_csv",
]

SCAN_POINTS_PER_DECADE = 1000
ROOT_XTOL = 1e-12
DEGENERATE_TOL = 1e-9


class CriticalParallel(NamedTuple):
    u: float
    lam: float
    classification: str  # "stable" | "unstable" | "degenerate"


@dataclass(frozen=True)
class ClairautProfile:
    """rho(u) = a(u) * u^alpha with its derivatives and critical parallels."""

    alpha: float
    a: Callable[[float], float]
    rho: Callable[[float], float]
    rho_u: Callable[[float], float]
    rho_uu: Callable[[float], float]
    critical_parallels: tuple[CriticalParallel, ...]


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call: importing catenary loads no scipy."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _require_profile(spec: SurfaceSpec) -> RevolutionProfile:
    if spec.profile is None:
        raise KindError(f"{spec.identifier} is not rotationally symmetric (G depends on v)")
    return spec.profile


def _rho_funcs(spec: SurfaceSpec, alpha: float):
    a, a_u, a_uu, metric = spec.profile.a, spec.profile.a_u, spec.profile.a_uu, spec.patch.metric

    def rho(u):
        return u ** alpha * a(u)

    def rho_u(u):
        a_val, a_slope, _ = metric(u, 0.0)  # (a, a') in one kernel call
        return alpha * u ** (alpha - 1.0) * a_val + u ** alpha * a_slope

    def rho_uu(u):
        return (alpha * (alpha - 1.0) * u ** (alpha - 2.0) * a(u)
                + 2.0 * alpha * u ** (alpha - 1.0) * a_u(u)
                + u ** alpha * a_uu(u))

    return rho, rho_u, rho_uu


def clairaut_constant(spec: SurfaceSpec, alpha: float, state: CatenaryState) -> float:
    """Conserved quantity u^alpha * a(u) * sin(phi) of a unit-speed state."""
    profile = _require_profile(spec)
    check_finite(alpha=alpha, u=state.u, phi=state.phi)
    if state.u <= spec.domain.u_min:
        raise DomainError(f"u={state.u!r} at or below u_min={spec.domain.u_min!r}")
    return state.u ** alpha * profile.a(state.u) * math.sin(state.phi)


def _scan_range(spec: SurfaceSpec, u_range) -> tuple[float, float]:
    """The given u_range, checked finite, or the domain's default scan range."""
    if u_range is not None:
        check_finite(**{"u_range[0]": u_range[0], "u_range[1]": u_range[1]})
        return u_range
    dom = spec.domain
    lo = dom.u_min + (1e-6 if dom.u_min == 0.0 else 1e-9 * (1.0 + dom.u_min))
    hi = dom.u_max - 1e-9 if math.isfinite(dom.u_max) else 100.0
    return lo, hi


def _scan_grid(lo: float, hi: float) -> np.ndarray:
    if not (hi > lo > 0.0):
        raise ConfigError(f"bad scan range ({lo!r}, {hi!r})")
    decades = math.log10(hi / lo)
    n = int(min(max(SCAN_POINTS_PER_DECADE * decades, 1000), 200_000))
    return np.geomspace(lo, hi, n)


def _bisect_root(fn, a, b, fa, fb):
    # plain bisection; brackets come from the scan so 60 halvings reach xtol
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (b - a) <= ROOT_XTOL:
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _scan_roots(fn, lo, hi) -> list[float]:
    grid = _scan_grid(lo, hi)
    vals = [fn(float(t)) for t in grid]
    roots = []
    for i in range(len(grid) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(grid[i]))
        elif (fa < 0.0) != (fb < 0.0):
            roots.append(_bisect_root(fn, float(grid[i]), float(grid[i + 1]), fa, fb))
    if vals and vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    # collapse duplicates from exact-zero grid hits
    dedup: list[float] = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 10 * ROOT_XTOL:
            dedup.append(r)
    return dedup


def critical_parallels(spec: SurfaceSpec, alpha: float,
                       u_range: tuple[float, float] | None = None
                       ) -> list[CriticalParallel]:
    """All roots of rho'(u) in the range, with stability exponent and class.

    Roots are bracketed on a log-spaced scan grid and refined by bisection;
    an empty list means no parallel of the surface is a critical curve.
    """
    _require_profile(spec)
    check_finite(alpha=alpha)
    lo, hi = _scan_range(spec, u_range)
    _, rho_u, _ = _rho_funcs(spec, alpha)
    out = []
    for r in _scan_roots(rho_u, lo, hi):
        lam = stability_exponent(spec, alpha, r, root_tol=math.inf)
        out.append(CriticalParallel(u=r, lam=lam, classification=_classify(lam)))
    return out


def _classify(lam: float) -> str:
    if abs(lam) < DEGENERATE_TOL:
        return "degenerate"
    return "stable" if lam > 0.0 else "unstable"


def clairaut_profile(spec: SurfaceSpec, alpha: float,
                     u_range: tuple[float, float] | None = None) -> ClairautProfile:
    """Bundle rho and its derivatives with the critical parallels found in range."""
    profile = _require_profile(spec)
    rho, rho_u, rho_uu = _rho_funcs(spec, alpha)
    criticals = tuple(critical_parallels(spec, alpha, u_range))
    return ClairautProfile(alpha=alpha, a=profile.a, rho=rho, rho_u=rho_u,
                           rho_uu=rho_uu, critical_parallels=criticals)


def turning_points(spec: SurfaceSpec, alpha: float, c: float,
                   u_range: tuple[float, float] | None = None) -> list[float]:
    """Sorted solutions of rho(u) = c in the range (extrema of u along traces).

    The critical parallels split the range into pieces on which rho is
    monotone.  One with |rho - c| <= 1e-10 * max(1, c) is a tangential root,
    reported once, and the pieces beside it add none.  Every other piece on
    which rho - c changes sign holds one root, found by bisection.  An exact
    zero at an end of the range is a root too.
    """
    check_finite(alpha=alpha, c=c)
    if not c > 0.0:
        raise ConfigError(f"Clairaut constant c={c!r} must be positive")
    _require_profile(spec)
    lo, hi = _scan_range(spec, u_range)
    rho, rho_u, _ = _rho_funcs(spec, alpha)
    knots = [lo, *_scan_roots(rho_u, lo, hi), hi]
    gaps = [rho(u) - c for u in knots]
    hits = [g == 0.0 or (0 < i < len(knots) - 1 and abs(g) <= 1e-10 * max(1.0, c))
            for i, g in enumerate(gaps)]
    roots: list[float] = []
    for i, u in enumerate(knots):
        if i and not (hits[i - 1] or hits[i]) and (gaps[i - 1] < 0.0) != (gaps[i] < 0.0):
            roots.append(_bisect_root(lambda t: rho(t) - c, knots[i - 1], u,
                                      gaps[i - 1], gaps[i]))
        if hits[i] and (not roots or u > roots[-1]):  # a parallel at lo or hi comes twice
            roots.append(u)
    return roots


def quadrature_v(spec: SurfaceSpec, alpha: float, c: float,
                 u0: float, u1: float) -> float:
    """v-advance of a trace with Clairaut constant c between u0 and u1.

    Computes the first-integral quadrature

        dv = int_{u0}^{u1} dt / (a(t) * sqrt(t^(2*alpha) a(t)^2 / c^2 - 1)),

    allowing integrable square-root singularities at the endpoints (turning
    points) and an improper upper limit when the tail integrand decays
    faster than 1/t.
    """
    profile = _require_profile(spec)
    # u1 = +inf is the improper upper limit
    check_finite(alpha=alpha, c=c, u0=u0, **({} if u1 == math.inf else {"u1": u1}))
    if not c > 0.0:
        raise ConfigError(f"Clairaut constant c={c!r} must be positive")
    if u0 == u1:
        return 0.0
    sign = 1.0
    if u0 > u1:
        u0, u1, sign = u1, u0, -1.0
    rho, _, _ = _rho_funcs(spec, alpha)
    a = profile.a

    def q(t):
        at = a(t)  # rho(t) = t ** alpha * a(t), with a read once
        rad = (t ** alpha * at / c) ** 2 - 1.0
        if rad <= 0.0:
            return 0.0
        return 1.0 / (at * math.sqrt(rad))

    finite = math.isfinite(u1)
    hi_scan = u1 if finite else max(10.0 * u0, u0 + 10.0)
    interior = np.linspace(u0, hi_scan, 513)[1:-1]
    margin = 1e-6 * (hi_scan - u0)
    for t in interior:
        t = float(t)
        if u0 + margin < t < u1 - margin and rho(t) <= c * (1.0 - 1e-13):
            raise InaccessibleRegionError(
                f"rho({t:.6g}) = {rho(t):.6g} <= c = {c:.6g} inside ({u0:.6g}, {u1:.6g})"
            )
    if not finite:
        # o(1/t) decay needed for the improper tail
        t1 = hi_scan
        q1, q2 = q(t1), q(10.0 * t1)
        if not (q1 > 0.0) or not (q2 < q1 / 15.0):
            raise ConfigError(
                "improper upper limit needs an integrand decaying faster than 1/t"
            )
    # t = endpoint +/- xi^2 on a stretch of width w at each finite endpoint
    w = min((u1 - u0) / 3.0, 1.0)
    total = _quad(lambda xi: 2.0 * xi * q(u0 + xi * xi), 0.0, math.sqrt(w))
    if not finite:
        return sign * (total + _quad(q, u0 + w, math.inf))
    total += _quad(lambda xi: 2.0 * xi * q(u1 - xi * xi), 0.0, math.sqrt(w))
    if u0 + w < u1 - w:
        total += _quad(q, u0 + w, u1 - w)
    return sign * total


def _quad(fn, lo: float, hi: float) -> float:
    return quad(fn, lo, hi, full_output=1, epsabs=1e-12, epsrel=1e-11, limit=200)[0]


def _integrals(fn, profile: RevolutionProfile, u_ref: float, targets, **options):
    """(value, abserr) of quad(fn, u_ref, u, **options) for every u in targets.

    An analytic profile takes one quad call per target.  A tabulated one is
    integrated piece by piece between its knots and the targets, each piece
    once, and the pieces are summed outward from u_ref: QUADPACK then never
    meets a knot, where a'' jumps, and the abserr are summed too.
    """
    if not profile.knots:
        return [quad(fn, u_ref, u, **options)[:2] for u in targets]
    lo, hi = min([u_ref, *targets]), max([u_ref, *targets])
    stops = sorted({u_ref, *targets, *(k for k in profile.knots if lo < k < hi)})
    start = stops.index(u_ref)
    sums = {u_ref: (0.0, 0.0)}
    for path in (stops[start:], stops[start::-1]):
        total = err = 0.0
        for a, b in zip(path, path[1:]):
            piece, piece_err = quad(fn, a, b, **options)[:2]
            total, err = total + piece, err + piece_err
            sums[b] = (total, err)
    return [sums[u] for u in targets]


def _anchored(spec: SurfaceSpec, points, u_ref: float | None):
    """Profile and anchor (default u_min) of integrals from u_ref to interior (u, v)."""
    profile = _require_profile(spec)
    dom = spec.domain
    if u_ref is None:
        u_ref = dom.u_min
    for u, v in points:
        check_finite(u=u, u_ref=u_ref, v=v)
        if not dom.u_min < u < dom.u_max:
            raise DomainError(f"u={u!r} outside ({dom.u_min!r}, {dom.u_max!r})")
    return profile, u_ref


def conformal_coordinate(spec: SurfaceSpec, u: float, u_ref: float | None = None) -> float:
    """Conformal coordinate z(u) = int_{u_ref}^{u} dt/a(t), increasing in u.

    In the (z, v) coordinates the metric is a^2 (dz^2 + dv^2).  The anchor
    defaults to the lower domain edge; pass ``u_ref`` explicitly for
    profiles with a(u_min) = 0 (for example the cone), where the default
    integral diverges.
    """
    profile, u_ref = _anchored(spec, [(u, 0.0)], u_ref)
    [(z, abserr)] = _integrals(lambda t: 1.0 / profile.a(t), profile, u_ref, [u],
                               epsabs=1e-13, epsrel=1e-12, limit=200, full_output=1)
    # only the error estimate decides: QUADPACK flags round-off on accurate values
    if not (math.isfinite(z) and abserr <= 1e-9 * max(1.0, abs(z))):
        raise DomainError(
            f"1/a is not integrable from u_ref={u_ref!r}; choose a different anchor"
        )
    return z


def stability_exponent(spec: SurfaceSpec, alpha: float, u_star: float, *,
                       root_tol: float = 1e-8) -> float:
    """Linearized oscillation coefficient lambda at a critical parallel.

    In conformal coordinates the radial deviation obeys dz'' = -lambda dz
    with lambda = V''(z*)/c^2 for V = -rho_bar^2/c^2 and c = rho(u*), i.e.

        lambda = -2 * (rho_bar * rho_bar'' + rho_bar'^2) / c^4,

    where d/dz = a(u) d/du.  Positive lambda means bounded oscillation
    (rho has a maximum), negative means exponential departure.
    """
    profile = _require_profile(spec)
    check_finite(alpha=alpha, u_star=u_star)
    rho, rho_u, rho_uu = _rho_funcs(spec, alpha)
    slope = rho_u(u_star)
    if not abs(slope) < root_tol:
        raise NotCriticalError(
            f"rho'({u_star!r}) = {slope!r} is not within {root_tol!r} of zero"
        )
    a_val = profile.a(u_star)
    a_slope = profile.a_u(u_star)
    rb = rho(u_star)
    rb_z = a_val * slope
    rb_zz = a_val * a_val * rho_uu(u_star) + a_val * a_slope * slope
    return -2.0 * (rb * rb_zz + rb_z * rb_z) / rb ** 4


def _embedding(spec: SurfaceSpec, points, u_ref: float | None = None
               ) -> list[tuple[float, float, float]]:
    """``embed_revolution`` of every (u, v) in points, from one anchor.

    Realizability is checked once: on 257 points from the anchor to the
    farthest u on each side of it, and at every point's own u.  A singular
    or non-finite a' counts as |a'| > 1.
    """
    profile, u_ref = _anchored(spec, points, u_ref)
    scan = [u for u, _ in points]
    for lo, hi in ((min(scan, default=u_ref), u_ref), (u_ref, max(scan, default=u_ref))):
        if lo < hi:
            scan.extend(np.linspace(lo, hi, 257))
    for t in scan:
        t = float(t)
        try:
            slope = abs(profile.a_u(t))
        except (ArithmeticError, ValueError):
            slope = math.inf
        if not slope <= 1.0 + 1e-12:
            raise NotRealizableError(
                f"|a'({t:.6g})| = {slope:.6g} > 1; "
                "the metric is valid but has no arc-length revolution embedding here"
            )

    def db(t):
        rad = 1.0 - profile.a_u(t) ** 2
        return math.sqrt(rad) if rad > 0.0 else 0.0

    heights = _integrals(db, profile, u_ref, [u for u, _ in points],
                         epsabs=1e-13, epsrel=1e-12, limit=200)
    out = []
    for (u, v), (b, _) in zip(points, heights):
        a_val = profile.a(u)
        out.append((a_val * math.cos(v), a_val * math.sin(v), b))
    return out


def embed_revolution(spec: SurfaceSpec, u: float, v: float,
                     u_ref: float | None = None) -> tuple[float, float, float]:
    """Euclidean point (a(u) cos v, a(u) sin v, b(u)) of the revolution surface.

    The height b(u) integrates sqrt(1 - a'(t)^2) from the anchor, which
    requires |a'| <= 1 along the way (arc-length realizability).
    """
    return _embedding(spec, [(u, v)], u_ref)[0]


def export_embedding_csv(trace, path, u_ref: float | None = None) -> None:
    """Write a trace as 3D points, columns exactly ``s,u,v,x,y,z``.

    Every sample must lie on a realizable stretch of the profile; floats are
    serialized with 17 significant digits so parsing them back is exact.
    """
    points = _embedding(trace.spec, [(smp.u, smp.v) for smp in trace.samples], u_ref)
    lines = ["s,u,v,x,y,z"]
    for smp, xyz in zip(trace.samples, points):
        lines.append(",".join(format(val, ".17g")
                              for val in (smp.s, smp.u, smp.v, *xyz)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
