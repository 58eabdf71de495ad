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
t = endpoint +/- xi^2 removes these integrable singularities, and a turning
endpoint takes c = rho(endpoint), so that the substituted integrand is
smooth; improper upper limits are delegated to the tail transformation
built into QUADPACK.  The knots of a tabulated profile, where a'' jumps,
are QUADPACK breakpoints.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import _MODULES
from .errors import (
    ConfigError,
    DegenerateMetricError,
    DomainError,
    InaccessibleRegionError,
    KindError,
    NotCriticalError,
    NotRealizableError,
    _instance,
    _pair,
    _positive,
    check_finite,
)
from .surfaces import RevolutionProfile, SurfaceSpec, _clairaut, _far_end, _linspace

__all__ = _MODULES["revolution"].split()

SCAN_POINTS_PER_DECADE = 1000
ROOT_XTOL = 1e-12
DEGENERATE_TOL = 1e-9
# |rho'(u)| < CRITICAL_TOL makes u a critical parallel: the check of stability_exponent,
# and a turning end of quadrature_v at which v diverges
CRITICAL_TOL = 1e-8
# |rho(u) - c| <= TURNING_TOL * max(1, c) makes u a turning point of c, both for the
# tangential roots of turning_points and for the turning ends of quadrature_v
TURNING_TOL = 1e-10
# |t - u| below which rho(t) - c near a turning point u is its Taylor polynomial:
# there the float difference rho(t) - rho(u) carries rounding noise of eps*rho/|t - u|,
# 2e-9 relative or more, and the quadratic errs by |t - u|^2 rho'''/(6 rho'), 1e-15
# (for rho and its derivatives of order one)
_TAYLOR_ZONE = 1e-7


class CriticalParallel(NamedTuple):
    u: float
    lam: float
    classification: str  # "stable" | "unstable" | "degenerate"


_NOT_CONVERGED = {1: "subdivision limit reached", 2: "round-off detected", 3: "bad integrand",
                  4: "extrapolation fails", 5: "probably divergent", 7: "abnormal termination"}


def quad(fn, a, b, *, points=(), epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """(value, abserr) of ``scipy.integrate.quad`` bit for bit (finite a, b <= inf).

    QUADPACK's QAGS/QAGI, in the plain-Python port of ``quadpack``, does the work.
    The n ``points`` strictly inside (a, b) are breakpoints: QAGP starts from their
    partition and may add ``limit`` subintervals, which is scipy's ``quad(...,
    points=points, limit=limit + n)``.  A non-converged integral logs a warning,
    not a Python one; rejected input raises ValueError.
    """
    from . import quadpack  # imported on first use: a process that never integrates skips it

    if a == b:
        return 0.0, 0.0
    flip, a, b = b < a, min(a, b), max(a, b)
    inner = sorted({p for p in points if a < p < b})
    if b == math.inf:
        if inner:
            raise ValueError("break points need a finite upper limit")
        value, abserr, ier = quadpack.qagie(fn, a, epsabs, epsrel, limit)
    elif inner:
        value, abserr, ier = quadpack.qagpe(fn, a, b, inner, epsabs, epsrel, limit + len(inner))
    else:
        value, abserr, ier = quadpack.qagse(fn, a, b, epsabs, epsrel, limit)
    if ier in _NOT_CONVERGED:
        import logging  # here alone: a process whose integrals converge never loads it

        log = logging.getLogger("catenary")
        if not log.handlers:  # a library's NullHandler: no lastResort output to stderr
            log.addHandler(logging.NullHandler())
        log.warning("integral over [%r, %r] did not converge (ier=%d): %s",
                    a, b, ier, _NOT_CONVERGED[ier])
    elif ier:
        raise ValueError(f"QUADPACK rejected its input (ier={ier}, limit={limit!r})")
    return (-value if flip else value), abserr


def _profile_errors(fn):
    """``fn(spec, ...)``, the one way in: KindError unless the spec has a profile.

    An ArithmeticError or ValueError of the profile's callables (an overflowing cosh, say)
    raises DegenerateMetricError, as ``MetricPatch.evaluate`` does for the metric's.
    """
    @functools.wraps(fn)
    def guarded(spec, *args, **kwargs):
        if _instance("spec", spec, SurfaceSpec).profile is None:
            raise KindError(f"{spec.identifier} is not rotationally symmetric (G depends on v)")
        try:
            return fn(spec, *args, **kwargs)
        except (ArithmeticError, ValueError) as exc:
            raise DegenerateMetricError(
                f"profile of {spec.identifier} fails in {fn.__name__}: {exc}") from exc

    return guarded


def _inside(spec: SurfaceSpec, name: str, u, closed=False, improper=False):
    """u, a finite number inside the open u-domain (``closed``: the closed one).

    Else ConfigError for a non-number or non-finite u, DomainError for any other; outside,
    G need not be positive.  An ``improper`` u = +inf passes on an unbounded domain only.
    """
    lo, hi, _, _ = spec.domain
    try:
        if (math.isfinite(u + 0.0) or improper and u == math.inf) and (
                lo < u < hi or closed and lo <= u <= hi):
            return u
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        pass
    if not (improper and u == math.inf):
        check_finite(**{name: u})
    ends = f"[{lo!r}, {hi!r}]" if closed else f"({lo!r}, {hi!r})"
    raise DomainError(f"{name}={u!r} outside {ends}")


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


@_profile_errors
def clairaut_constant(spec: SurfaceSpec, alpha: float, state) -> float:
    """Conserved quantity u^alpha * a(u) * sin(phi) of a unit-speed state.

    A CatenaryState or a trace's TraceSample: only ``state.u`` and ``state.phi`` are read.
    """
    try:
        u, phi = state.u, state.phi
    except AttributeError:
        raise ConfigError(f"state of type {type(state).__name__} is not a CatenaryState "
                          "or TraceSample") from None
    check_finite(alpha=alpha, phi=phi)
    return _clairaut(spec, alpha, _inside(spec, "u", u), phi)


def _scan_range(spec: SurfaceSpec, u_range) -> tuple[float, float]:
    """The given u_range, checked finite and inside the domain, or the default scan range."""
    dom = spec.domain
    if u_range is not None:
        lo, hi = _pair("u_range", u_range)
        if not dom.u_min < lo < hi < dom.u_max:  # outside, G need not be positive
            raise DomainError(f"u_range {tuple(u_range)!r} is not an increasing range "
                              f"inside ({dom.u_min!r}, {dom.u_max!r})")
        return lo, hi
    # margins of at most 1e-3 of the width; an unbounded domain is scanned to max(100, 10 lo)
    width = dom.u_max - dom.u_min
    lo = dom.u_min + min(1e-6 if dom.u_min == 0.0 else 1e-9 * (1.0 + dom.u_min), 1e-3 * width)
    hi = dom.u_max - min(1e-9, 1e-3 * width)
    return lo, (hi if math.isfinite(hi) else _far_end(lo))


def _scan_grid(lo: float, hi: float):
    """Size n and point(i) of the log scan grid: 10 ** (i*step + log10 lo), ends lo and hi."""
    if not (hi > lo > 0.0):
        raise ConfigError(f"bad scan range ({lo!r}, {hi!r})")
    n = int(min(max(SCAN_POINTS_PER_DECADE * math.log10(hi / lo), 1000), 200_000))
    t0, step = math.log10(lo), (math.log10(hi) - math.log10(lo)) / (n - 1)  # _linspace's points

    def point(i: int) -> float:
        return lo if i == 0 else hi if i == n - 1 else 10.0 ** (i * step + t0)

    return n, point


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


def _suspect_pieces(profile: RevolutionProfile, alpha: float):
    """The pieces (x, x1) of the u-axis on which rho' may vanish: all of it if analytic.

    On a knot piece u^(1 - alpha) rho' = alpha a + u a' is a cubic, of the sign its four
    Bernstein coefficients share (Farouki & Rajan 1987) if they clear 1e-12 times the size of
    the terms of a and a', far above the rounding of rho'; a flat rho never clears it.
    """
    if not profile.pieces:
        yield 0.0, math.inf
    size, k1, k2, k3 = abs(alpha), alpha + 1.0, alpha + 2.0, alpha + 3.0
    for x, x1, (y, d, c1, c0, e1, e0, _) in zip(profile.knots, profile.knots[1:], profile.pieces):
        h = x1 - x
        q0, q1 = alpha * y + x * d, (k1 * d + x * e1) * h / 3.0
        q2, q3 = (k2 * c1 + x * e0) * h * h / 3.0, k3 * c0 * h * h * h
        b1, b2, b3 = q0 + q1, q0 + 2.0 * q1 + q2, q0 + 3.0 * (q1 + q2) + q3
        m1, m2, m3 = abs(d), abs(c1) * h, abs(c0) * h * h
        tol = 1e-12 * (size * (abs(y) + h * (m1 + m2 + m3)) + x1 * (m1 + 2.0 * m2 + 3.0 * m3))
        if not (q0 > tol and b1 > tol and b2 > tol and b3 > tol
                or q0 < -tol and b1 < -tol and b2 < -tol and b3 < -tol):
            yield x, x1


def _scan_roots(fn, lo, hi, pieces) -> list[float]:
    """Roots of fn on the scan grid: zeros at grid points, one bisection per sign change.

    Only the cells around ``pieces``, with one grid point to spare on each side, are
    scanned; fn keeps one strict sign outside them, so no root of the full scan is lost.
    """
    n, point = _scan_grid(lo, hi)
    scale, spans = (n - 1) / math.log10(hi / lo), []
    for x, x1 in pieces:
        if x < hi and x1 > lo:
            i0 = max(0, math.floor(scale * math.log10(x / lo)) - 1) if x > lo else 0
            i1 = min(n - 1, math.ceil(scale * math.log10(min(x1, hi) / lo)) + 1)
            if spans and i0 <= spans[-1][1]:
                i0 = spans.pop()[0]
            spans.append((i0, i1))
    roots = []
    for i0, i1 in spans:
        grid = [point(i) for i in range(i0, i1 + 1)]
        vals = [fn(t) for t in grid]
        for i in range(len(grid) - 1):
            fa, fb = vals[i], vals[i + 1]
            if fa == 0.0:
                roots.append(grid[i])
            elif (fa < 0.0) != (fb < 0.0):
                roots.append(_bisect_root(fn, grid[i], grid[i + 1], fa, fb))
        if vals[-1] == 0.0:
            roots.append(grid[-1])
    # collapse duplicates from exact-zero grid hits
    dedup: list[float] = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 10 * ROOT_XTOL:
            dedup.append(r)
    return dedup


@_profile_errors
def critical_parallels(spec: SurfaceSpec, alpha: float,
                       u_range: tuple[float, float] | None = None
                       ) -> list[CriticalParallel]:
    """All roots of rho'(u) in the range, with stability exponent and class.

    Roots are bracketed on a log-spaced scan grid and refined by bisection; an empty
    list means no parallel of the surface is a critical curve.  Tabulated profiles
    evaluate only the cells around knot pieces where rho' can vanish; the roots are the same.
    """
    check_finite(alpha=alpha)
    lo, hi = _scan_range(spec, u_range)
    rho, rho_u, rho_uu = _rho_funcs(spec, alpha)
    out = []
    for r in _scan_roots(rho_u, lo, hi, _suspect_pieces(spec.profile, alpha)):
        lam = _exponent(spec.profile, rho, rho_uu, r, rho_u(r))
        out.append(CriticalParallel(u=r, lam=lam, classification=_classify(lam)))
    return out


def _turning(gap: float, c: float) -> bool:
    return abs(gap) <= TURNING_TOL * max(1.0, c)


def _classify(lam: float) -> str:
    if abs(lam) < DEGENERATE_TOL:
        return "degenerate"
    return "stable" if lam > 0.0 else "unstable"


@_profile_errors
def turning_points(spec: SurfaceSpec, alpha: float, c: float,
                   u_range: tuple[float, float] | None = None) -> list[float]:
    """Sorted solutions of rho(u) = c in the range (extrema of u along traces).

    The critical parallels split the range into pieces on which rho is
    monotone.  One with |rho - c| <= ``TURNING_TOL`` * max(1, c) is a tangential
    root, reported once, and the pieces beside it add none.  Every other piece on
    which rho - c changes sign holds one root, found by bisection.  An exact
    zero at an end of the range is a root too.
    """
    check_finite(alpha=alpha, c=c)
    _positive("Clairaut constant c", c)
    lo, hi = _scan_range(spec, u_range)
    rho, rho_u, _ = _rho_funcs(spec, alpha)
    knots = [lo, *_scan_roots(rho_u, lo, hi, _suspect_pieces(spec.profile, alpha)), hi]
    gaps = [rho(u) - c for u in knots]
    hits = [g == 0.0 or (0 < i < len(knots) - 1 and _turning(g, c))
            for i, g in enumerate(gaps)]
    roots: list[float] = []
    for i, u in enumerate(knots):
        if i and not (hits[i - 1] or hits[i]) and (gaps[i - 1] < 0.0) != (gaps[i] < 0.0):
            roots.append(_bisect_root(lambda t: rho(t) - c, knots[i - 1], u,
                                      gaps[i - 1], gaps[i]))
        if hits[i] and (not roots or u > roots[-1]):  # a parallel at lo or hi comes twice
            roots.append(u)
    return roots


@_profile_errors
def quadrature_v(spec: SurfaceSpec, alpha: float, c: float,
                 u0: float, u1: float) -> float:
    """v-advance of a trace with Clairaut constant c between u0 and u1.

    Computes the first-integral quadrature

        dv = int_{u0}^{u1} dt / (a(t) * sqrt(t^(2*alpha) a(t)^2 / c^2 - 1)),

    allowing integrable square-root singularities at the endpoints (turning
    points) and an improper upper limit when the tail integrand decays
    faster than 1/t.  Each finite end gets a stretch integrated in
    t = end +/- xi^2.  An end with |rho - c| <= ``TURNING_TOL`` * max(1, c), the
    tolerance of ``turning_points``, is a turning point: its stretch uses
    c = rho(end), and near the end rho - c is its Taylor polynomial.  A
    turning end that is also a critical parallel (|rho'| < ``CRITICAL_TOL``)
    raises ConfigError: the curve winds onto that parallel and v diverges.  The
    middle stretch keeps c.  The knots of a tabulated profile are QUADPACK
    breakpoints on every stretch.  Limits outside the closed domain raise
    DomainError.
    """
    check_finite(alpha=alpha, c=c)
    _positive("Clairaut constant c", c)
    _inside(spec, "u0", u0, closed=True)
    _inside(spec, "u1", u1, closed=True, improper=True)  # u1 = +inf: the improper upper limit
    if u0 == u1:
        return 0.0
    sign = 1.0
    if u0 > u1:
        u0, u1, sign = u1, u0, -1.0
    rho, rho_u, rho_uu = _rho_funcs(spec, alpha)
    a, knots = spec.profile.a, spec.profile.knots

    def q(t, c=c):
        at = a(t)
        ratio = t ** alpha * at / c  # rho(t) / c, with a read once
        try:
            rad = ratio ** 2 - 1.0
        except OverflowError:  # then sqrt(ratio ** 2 - 1) is ratio in floats
            return 1.0 / (at * ratio)
        if rad <= 0.0:
            return 0.0
        return 1.0 / (at * math.sqrt(rad))

    finite = math.isfinite(u1)
    hi_scan = u1 if finite else max(10.0 * u0, u0 + 10.0)
    margin = 1e-6 * (hi_scan - u0)
    for t in _linspace(u0, hi_scan, 513)[1:-1]:
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
    # t = end +/- xi^2 on a stretch of width w at each finite end; the knots,
    # where a'' jumps, are QUADPACK breakpoints (at xi = sqrt|knot - end|)
    w = min((u1 - u0) / 3.0, 1.0)

    def end_piece(end, sgn):
        # A turning end (turning_points' tolerance) takes c = rho(end), so the
        # radicand vanishes there exactly and 2 xi q is smooth in xi.  Closer to
        # it than _TAYLOR_ZONE and than the nearest knot, rho - c is taken from
        # its Taylor polynomial in d = xi^2, free of rounding noise.
        turning = end > 0.0 and _turning(rho(end) - c, c)
        ce, slope, curv = (rho(end), abs(rho_u(end)), 0.5 * rho_uu(end)) if turning \
            else (c, 0.0, 0.0)
        if turning and slope < CRITICAL_TOL:
            raise ConfigError(f"v diverges at the turning end u={end!r} for c={c!r}: "
                              f"|rho'| = {slope:.3g} makes it a critical parallel")
        cuts = [math.sqrt(sgn * (k - end)) for k in knots if sgn * (k - end) >= 0.0]
        zone = min(_TAYLOR_ZONE, min(cuts, default=1.0) ** 2) if slope > 0.0 else 0.0

        def f(xi):
            d = xi * xi
            if d < zone:
                rate = slope + curv * d  # (rho - c) / d
                return 2.0 * ce / (a(end + sgn * d) * math.sqrt(rate * (rate * d + 2.0 * ce)))
            return 2.0 * xi * q(end + sgn * d, ce)

        return _quad(f, 0.0, math.sqrt(w), cuts)

    total = end_piece(u0, 1.0)
    if not finite:
        return sign * (total + _quad(q, u0 + w, math.inf))
    total += end_piece(u1, -1.0)
    if u0 + w < u1 - w:
        total += _quad(q, u0 + w, u1 - w, knots)
    return sign * total


_QUAD_TOLS = {"epsabs": 1e-12, "epsrel": 1e-11, "limit": 200}  # of every integral here


def _quad(fn, lo: float, hi: float, points=()) -> float:
    return quad(fn, lo, hi, points=points, **_QUAD_TOLS)[0]


def _integrals(fn, profile: RevolutionProfile, u_ref: float, targets):
    """(value, abserr) of quad(fn, u_ref, u) at ``_QUAD_TOLS`` for every u in targets.

    An analytic profile takes one quad call per target.  A tabulated one takes
    one call per gap between u_ref and the sorted targets, with its knots, where
    a'' jumps, as QUADPACK breakpoints; the gaps are summed outward from u_ref,
    and so are their abserr.
    """
    if not profile.knots:
        return [quad(fn, u_ref, u, **_QUAD_TOLS) for u in targets]
    stops = sorted({u_ref, *targets})
    start = stops.index(u_ref)
    sums = {u_ref: (0.0, 0.0)}
    for path in (stops[start:], stops[start::-1]):
        total = err = 0.0
        for a, b in zip(path, path[1:]):
            piece, piece_err = quad(fn, a, b, points=profile.knots, **_QUAD_TOLS)
            total, err = total + piece, err + piece_err
            sums[b] = (total, err)
    return [sums[u] for u in targets]


def _anchored(spec: SurfaceSpec, points, u_ref: float | None):
    """Profile and anchor (default u_min, closed domain) of integrals to interior (u, v)."""
    u_ref = _inside(spec, "u_ref", spec.domain.u_min if u_ref is None else u_ref, closed=True)
    for u, v in points:
        check_finite(v=v)
        _inside(spec, "u", u)
    return spec.profile, u_ref


@_profile_errors
def conformal_coordinate(spec: SurfaceSpec, u: float, u_ref: float | None = None) -> float:
    """Conformal coordinate z(u) = int_{u_ref}^{u} dt/a(t), increasing in u.

    In the (z, v) coordinates the metric is a^2 (dz^2 + dv^2).  The anchor
    defaults to the lower domain edge; pass ``u_ref`` explicitly for
    profiles with a(u_min) = 0 (for example the cone), where the default
    integral diverges.
    """
    profile, u_ref = _anchored(spec, [(u, 0.0)], u_ref)
    [(z, abserr)] = _integrals(lambda t: 1.0 / profile.a(t), profile, u_ref, [u])
    # only the error estimate decides: QUADPACK flags round-off on accurate values
    if not (math.isfinite(z) and abserr <= 1e-9 * max(1.0, abs(z))):
        raise DomainError(
            f"1/a is not integrable from u_ref={u_ref!r}; choose a different anchor"
        )
    return z


@_profile_errors
def stability_exponent(spec: SurfaceSpec, alpha: float, u_star: float) -> float:
    """Linearized oscillation coefficient lambda at a critical parallel.

    In conformal coordinates the radial deviation obeys dz'' = -lambda dz
    with lambda = V''(z*)/c^2 for V = -rho_bar^2/c^2 and c = rho(u*), i.e.

        lambda = -2 * (rho_bar * rho_bar'' + rho_bar'^2) / c^4,

    where d/dz = a(u) d/du.  Positive lambda means bounded oscillation
    (rho has a maximum), negative means exponential departure.  u_star must
    lie inside the open domain (DomainError) with |rho'| < ``CRITICAL_TOL`` (NotCriticalError).
    """
    check_finite(alpha=alpha)
    _inside(spec, "u_star", u_star)
    rho, rho_u, rho_uu = _rho_funcs(spec, alpha)
    slope = rho_u(u_star)
    if not abs(slope) < CRITICAL_TOL:
        raise NotCriticalError(
            f"rho'({u_star!r}) = {slope!r} is not within {CRITICAL_TOL!r} of zero"
        )
    return _exponent(spec.profile, rho, rho_uu, u_star, slope)


def _exponent(profile: RevolutionProfile, rho, rho_uu, u: float, slope: float) -> float:
    """``stability_exponent``'s lambda at u, where rho'(u) = slope; nothing is checked."""
    a_val = profile.a(u)
    rb = rho(u)
    rb_z = a_val * slope
    rb_zz = a_val * a_val * rho_uu(u) + a_val * profile.a_u(u) * slope
    return -2.0 * (rb * rb_zz + rb_z * rb_z) / rb ** 4


@_profile_errors
def _embedding(spec: SurfaceSpec, points, u_ref: float | None = None
               ) -> list[tuple[float, float, float]]:
    """``embed_revolution`` of every (u, v) in points, from one anchor.

    Realizability is checked on 257 points from the anchor to the farthest u on
    each side of it, at every point's own u and wherever QUADPACK samples the
    height integrand.  A singular or non-finite a' counts as |a'| > 1.
    """
    profile, u_ref = _anchored(spec, points, u_ref)

    def realizable_slope(t):
        try:
            slope = profile.a_u(t)
        except (ArithmeticError, ValueError):
            slope = math.inf
        if not abs(slope) <= 1.0 + 1e-12:
            raise NotRealizableError(f"|a'({t:.6g})| = {abs(slope):.6g} > 1; the metric is "
                                     "valid but has no arc-length revolution embedding here")
        return slope

    scan = [u for u, _ in points]
    for lo, hi in ((min(scan, default=u_ref), u_ref), (u_ref, max(scan, default=u_ref))):
        if lo < hi:
            scan.extend(_linspace(lo, hi, 257))
    for t in scan:
        realizable_slope(t)

    def db(t):
        rad = 1.0 - realizable_slope(t) ** 2
        return math.sqrt(rad) if rad > 0.0 else 0.0

    heights = _integrals(db, profile, u_ref, [u for u, _ in points])
    out = []
    for (u, v), (b, abserr) in zip(points, heights):
        # conformal_coordinate's rule: a height QUADPACK cannot vouch for is refused
        if not abserr <= 1e-9 * max(1.0, abs(b)):
            raise DomainError(f"height b(u={u!r}) from u_ref={u_ref!r} has abserr {abserr:.3g} "
                              "above 1e-9 relative; choose an anchor nearer u")
        a_val = profile.a(u)
        if not math.isfinite(a_val):  # b and v are finite; a(u) may overflow
            raise ConfigError(f"embedding of u={u!r} on {spec.identifier} leaves the float "
                              f"range: a(u)={a_val!r}")
        out.append((a_val * math.cos(v), a_val * math.sin(v), b))
    return out


def embed_revolution(spec: SurfaceSpec, u: float, v: float,
                     u_ref: float | None = None) -> tuple[float, float, float]:
    """Euclidean point (a(u) cos v, a(u) sin v, b(u)) of the revolution surface.

    The height b(u) integrates sqrt(1 - a'(t)^2) from the anchor, which
    requires |a'| <= 1 along the way (arc-length realizability).  A height with
    abserr above 1e-9 * max(1, |b|) raises DomainError (far out on the catenoid).
    """
    return _embedding(spec, [(u, v)], u_ref)[0]
