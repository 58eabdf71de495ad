"""Semi-geodesic metric patches ds^2 = du^2 + G^2(u,v) dv^2.

The coordinate u is the intrinsic distance to the reference curve u = 0,
so every surface here is described by a single positive function G and its
partial derivatives.  A catalog of standard surfaces is provided (plane,
cylinder, sphere, hyperbolic plane, circular cone, catenoid, helicoid,
binormal ruled surfaces, Grusin half-plane) together with constructors for
tabulated revolution profiles and ruled surfaces.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, NamedTuple, Sequence

from . import _MODULES
from .errors import (ConfigError, DegenerateMetricError, DomainError, _instance, _interval,
                     _positive, _read_params, _shown, check_finite)

__all__ = _MODULES["surfaces"].split()

_INF = math.inf


class Domain(NamedTuple):
    """Open coordinate rectangle (u_min, u_max) x (v_min, v_max)."""

    u_min: float
    u_max: float
    v_min: float = -_INF
    v_max: float = _INF

    def contains(self, u: float, v: float) -> bool:
        return self.u_min < u < self.u_max and self.v_min < v < self.v_max


class MetricPatch(NamedTuple):
    """Fused metric kernel of a semi-geodesic patch on an open rectangle.

    ``metric(u, v)`` returns (G, G_u, G_v) in one call and checks nothing: it may be
    queried outside ``domain`` (the conformal-geodesic oracles rely on that).  ``evaluate``
    is the checked entry point: it rejects a coordinate that is not a number with
    ConfigError, points outside the open domain with DomainError, and G <= 0 or an
    ArithmeticError or ValueError raised by ``metric`` (say, an overflow) with
    DegenerateMetricError.  G must be smooth and positive on the domain.
    """

    identifier: str
    metric: Callable[[float, float], tuple[float, float, float]]
    domain: Domain

    def evaluate(self, u: float, v: float) -> tuple[float, float, float]:
        """Return (G, G_u, G_v) at an interior point."""
        u_min, u_max, v_min, v_max = self.domain
        try:
            if not (u_min < u < u_max and v_min < v < v_max):
                raise DomainError(f"({_shown('u', u)}, {_shown('v', v)}) outside domain "
                                  f"{tuple(self.domain)} of {self.identifier}")
        except TypeError:  # not numbers: check_finite raises ConfigError
            check_finite(u=u, v=v)
            raise
        try:
            values = self.metric(u, v)
        except TypeError:  # a number that does not mix with floats: check_finite says so
            check_finite(u=u, v=v)
            raise
        except (ArithmeticError, ValueError) as exc:
            raise DegenerateMetricError(f"metric of {self.identifier} fails at "
                                        f"({_shown('u', u)}, {_shown('v', v)}): {exc}") from exc
        if not values[0] > 0.0:
            raise DegenerateMetricError(
                f"G({u!r}, {v!r}) = {values[0]!r} is not positive on {self.identifier}"
            )
        return values


class RevolutionProfile(NamedTuple):
    """Profile a(u) of a rotationally symmetric metric du^2 + a(u)^2 dv^2.

    A catalog or tabulated profile's ``a`` and ``a_u`` read its surface's fused kernel at
    v = 0; ``profile_surface`` keeps the caller's callables.  ``knots`` holds the sample
    abscissae of a tabulated profile, where a'' jumps; integrals over a(u) are split there.
    ``pieces`` holds each knot piece's (y, d, c1, c0, ...), with a = y + d s + c1 s^2 +
    c0 s^3 in s = u - knot.  Analytic profiles have neither.
    """

    a: Callable[[float], float]
    a_u: Callable[[float], float]
    a_uu: Callable[[float], float]
    knots: tuple[float, ...] = ()
    pieces: tuple[tuple[float, ...], ...] = ()


class SurfaceSpec(NamedTuple):
    """An immutable surface: a named metric patch plus optional profile data.

    ``profile`` is set for every rotationally symmetric metric (G_v == 0),
    including abstract ones that are not realizable in Euclidean space.
    ``profile_warning`` flags |a'| > 1 somewhere: the metric is fine but the
    arc-length revolution embedding does not exist there.
    """

    kind: str
    params: dict
    patch: MetricPatch
    profile: RevolutionProfile | None = None
    profile_warning: bool = False

    @property
    def identifier(self) -> str:
        return self.patch.identifier

    @property
    def domain(self) -> Domain:
        return self.patch.domain

    @property
    def is_revolution(self) -> bool:
        return self.profile is not None


def _clairaut(spec: SurfaceSpec, alpha: float, u: float, phi: float) -> float:
    """u^alpha * a(u) * sin(phi) on a surface of revolution, unchecked."""
    return u ** alpha * spec.profile.a(u) * math.sin(phi)


def eval_metric(spec: SurfaceSpec, u: float, v: float) -> tuple[float, float, float]:
    """Metric coefficient and partials (G, G_u, G_v) at an interior point."""
    return _instance("spec", spec, SurfaceSpec).patch.evaluate(u, v)


def _far_end(lo: float) -> float:
    """Where probes and scans of an unbounded u-domain from lo stop."""
    return max(100.0, 10.0 * lo)


def _linspace(a: float, b: float, n: int) -> list[float]:
    """n >= 2 points from a to b: i*step + a with step = (b - a)/(n - 1), the last b exactly."""
    step = (b - a) / (n - 1)
    return [i * step + a for i in range(n - 1)] + [b]


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def _sqrt_kernel(k: float):
    # a(u) = sqrt(1 + (k u)^2).  Shared by catenoid, helicoid and binormal
    # surfaces so that isometric entries evaluate bit-identically.
    k2 = k * k

    def metric(u: float, v: float) -> tuple[float, float, float]:
        r = math.sqrt(1.0 + k2 * u * u)
        return r, k2 * u / r, 0.0

    def a_uu(u: float) -> float:
        r = math.sqrt(1.0 + k2 * u * u)
        return k2 / (r * r * r)

    return metric, a_uu


def _profile_spec(kind, params, identifier, metric, a_uu, domain, warning=False,
                  knots=(), pieces=()):
    """A catalog or tabulated surface from its fused kernel metric(u, v) -> (a, a_u, 0.0).

    The profile's a and a_u read the kernel at v = 0, so each expression is written once.
    """
    return SurfaceSpec(kind, dict(params), MetricPatch(identifier, metric, domain),
                       RevolutionProfile(lambda u: metric(u, 0.0)[0],
                                         lambda u: metric(u, 0.0)[1], a_uu, knots, pieces),
                       warning)


# each kind's parameters and their defaults
CATALOG_PARAMS = {
    "plane": {},
    "cylinder": {},
    "sphere": {"extended": 0.0},
    "hyperbolic": {"r": 1.0},
    "cone": {"slope": math.sqrt(0.5)},
    "catenoid": {},
    "helicoid": {},
    "binormal": {"tau": 1.0},
    "grusin": {},
}

CATALOG_KINDS = tuple(CATALOG_PARAMS)


def catalog_surface(kind: str, /, **params) -> SurfaceSpec:
    """Build a built-in surface by name.

    Optional parameters, each converted by ``float()``: hyperbolic ``r``
    (default 1), cone ``slope`` (default 1/sqrt(2), the 45-degree cone),
    binormal ``tau`` (default 1), sphere ``extended`` (nonzero: domain (0, pi)
    instead of (0, pi/2); queries beyond the equator's focal distance then
    fail with G <= 0).  ``params`` of the result holds the converted values.
    """
    if kind not in CATALOG_KINDS:  # a tuple, so an unhashable kind is unknown too
        raise ConfigError(f"unknown surface kind: {kind!r}")
    params = _read_params(params, CATALOG_PARAMS[kind], f"kind {kind!r}")

    if kind in ("plane", "cylinder"):
        return _profile_spec(kind, params, kind, lambda u, v: (1.0, 0.0, 0.0),
                             lambda u: 0.0, Domain(0.0, _INF))

    if kind == "sphere":
        u_max = math.pi if params["extended"] else math.pi / 2
        return _profile_spec(kind, params, "sphere",
                             lambda u, v: (math.cos(u), -math.sin(u), 0.0),
                             lambda u: -math.cos(u), Domain(0.0, u_max))

    if kind == "hyperbolic":
        r = _positive("r", params["r"])

        def hyperbolic(u, v):
            x = u / r
            return math.cosh(x), math.sinh(x) / r, 0.0

        return _profile_spec(kind, params, f"hyperbolic(r={r:g})", hyperbolic,
                             lambda u: math.cosh(u / r) / (r * r),
                             Domain(0.0, _INF), warning=True)  # sinh(u/r)/r is unbounded

    if kind == "cone":
        slope = _positive("slope", params["slope"])
        return _profile_spec(kind, params, f"cone(slope={slope:g})",
                             lambda u, v: (slope * u, slope, 0.0), lambda u: 0.0,
                             Domain(0.0, _INF), warning=slope > 1.0)

    if kind in ("catenoid", "helicoid"):
        return _profile_spec(kind, params, kind, *_sqrt_kernel(1.0), Domain(0.0, _INF))

    if kind == "binormal":
        tau = _positive("tau", params["tau"])
        return _profile_spec(kind, params, f"binormal(tau={tau:g})",  # sup a' = tau
                             *_sqrt_kernel(tau), Domain(0.0, _INF), warning=tau > 1.0)

    return _profile_spec(  # grusin
        kind, params, "grusin", lambda u, v: (1.0 / u, -1.0 / (u * u), 0.0),
        lambda u: 2.0 / (u * u * u), Domain(0.0, _INF), warning=True)  # 1/u^2 > 1 for u < 1


# --------------------------------------------------------------------------
# monotone cubic interpolation
# --------------------------------------------------------------------------

def _sign(t: float) -> int:
    return (t > 0.0) - (t < 0.0)


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # one-sided three-point estimate, made shape-preserving (Moler,
    # Numerical Computing with MATLAB, section 3.6)
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: Sequence[float], y: Sequence[float]):
    """PCHIP interpolant of samples y(x) as a kernel, its second derivative and piece data.

    Returns ``(metric, a_uu, slope_max, pieces)``.  ``metric(t, v) -> (a(t), a_u(t), 0.0)``
    and ``a_uu`` equal bit for bit scipy's ``PchipInterpolator(x, y)`` and its
    ``derivative()`` and ``derivative(2)``: the same knot slopes (weighted harmonic mean
    inside, Fritsch & Carlson 1980), the same cubic coefficients, the same piece (the end
    pieces extend beyond the knots, x[-1] belongs to the last one) and the same order of
    floating-point operations.  x must be strictly increasing with at least 3 entries;
    nothing is checked here.  Each lookup tests the piece found last before it bisects;
    both give the same piece for every t, ±inf and NaN included.  ``slope_max`` is
    max |a_u| on [x[0], x[-1]]; a_u is quadratic on a piece, so that is its largest
    value at a knot or at a vertex inside a piece.  ``pieces`` holds the tuple
    (y, d, c1, c0, 2 c1, 3 c0, 6 c0) of every piece.
    """
    x = [float(t) for t in x]
    y = [float(t) for t in y]
    h = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / hk for a, b, hk in zip(y, y[1:], h)]
    d = [_pchip_end_slope(h[0], h[1], m[0], m[1])]
    for h0, h1, m0, m1 in zip(h, h[1:], m, m[1:]):
        if _sign(m0) != _sign(m1) or m0 == 0.0 or m1 == 0.0:
            d.append(0.0)
        else:
            w1, w2 = 2.0 * h1 + h0, h1 + 2.0 * h0
            d.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
    d.append(_pchip_end_slope(h[-1], h[-2], m[-1], m[-2]))
    # per piece: y + d s + c1 s^2 + c0 s^3, and the scaled derivative terms
    pieces = []
    for k, hk in enumerate(h):
        t = (d[k] + d[k + 1] - 2.0 * m[k]) / hk
        c0, c1 = t / hk, (m[k] - d[k]) / hk - t
        pieces.append((y[k], d[k], c1, c0, 2.0 * c1, 3.0 * c0, 6.0 * c0))
    pieces = tuple(pieces)  # the kernels and the profile's piece data share it
    slope_max = max(map(abs, d))
    for (_, c2, _, _, e1, e0, _), hk in zip(pieces, h):
        vertex = -e1 / (2.0 * e0) if e0 != 0.0 else 0.0
        if 0.0 < vertex < hk:
            slope_max = max(slope_max, abs(c2 + e1 * vertex + e0 * (vertex * vertex)))
    hi = len(x) - 1  # bisect over x[1:-1]: clamps t to the end pieces
    cuts = [-_INF, *x[1:-1], _INF]  # piece k holds cuts[k] <= t < cuts[k + 1]
    last = 0  # the piece found last; read once per call and checked, so threads may share it

    def metric(t: float, v: float) -> tuple[float, float, float]:
        nonlocal last
        k = last
        if not cuts[k] <= t < cuts[k + 1]:
            k = last = bisect.bisect_right(x, t, 1, hi) - 1
        s = t - x[k]
        c3, c2, c1, c0, e1, e0, _ = pieces[k]
        return (0.0 + c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s),
                0.0 + c2 + e1 * s + e0 * (s * s), 0.0)

    def a_uu(t: float) -> float:
        nonlocal last
        k = last
        if not cuts[k] <= t < cuts[k + 1]:
            k = last = bisect.bisect_right(x, t, 1, hi) - 1
        _, _, _, _, e1, _, f0 = pieces[k]
        return 0.0 + e1 + f0 * (t - x[k])

    return metric, a_uu, slope_max, pieces


# --------------------------------------------------------------------------
# ruled surfaces
# --------------------------------------------------------------------------

def _ruled_jet(u: float, v: float, fv: float, f_v: float, gv: float, g_v: float):
    """(G, G_u, G_v) of the ruled surface c(v) + u*W(v) with f = <c',W'>, g = ||W'||^2.

    G = sqrt(1 + 2*u*f + u^2*g) from f, f', g and g' at v; the parametrization
    degenerates where the radicand is not positive.
    """
    rad = 1.0 + 2.0 * u * fv + u * u * gv
    if not rad > 0.0:
        raise DegenerateMetricError(
            f"ruled metric radicand {rad!r} <= 0 at (u={u!r}, v={v!r})"
        )
    root = math.sqrt(rad)
    return root, (fv + u * gv) / root, (u * f_v + 0.5 * u * u * g_v) / root


def _ruled_spec(metric, u_range, v_range, identifier: str) -> SurfaceSpec:
    patch = MetricPatch(identifier, metric, Domain(*_interval("ruled u-range", u_range),
                                                   *_interval("ruled v-range", v_range)))
    return SurfaceSpec(kind="ruled", params={}, patch=patch, profile=None)


def ruled_surface(f, g, f_v, g_v, u_range=(0.0, _INF), v_range=(-_INF, _INF),
                  identifier: str = "ruled") -> SurfaceSpec:
    """Ruled surface from callables f(v), g(v) and their derivatives.

    ``u_range`` and ``v_range`` are pairs of numbers lo < hi, either one possibly infinite.
    """

    def metric(u, v):
        return _ruled_jet(u, v, f(v), f_v(v), g(v), g_v(v))

    return _ruled_spec(metric, u_range, v_range, identifier)


def ruled_surface_from_samples(v_samples: Sequence[float],
                               f_samples: Sequence[float],
                               g_samples: Sequence[float],
                               u_range=(0.0, _INF),
                               identifier: str = "ruled") -> SurfaceSpec:
    """Ruled surface with f and g given by samples over v.

    f and g are interpolated by PCHIP, the monotone piecewise cubic of
    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980); the interpolant equals
    scipy's ``PchipInterpolator``.  Requires at least 4 finite samples, one
    f and one g per v, strictly increasing v and nonnegative g; ``u_range`` as in
    ``ruled_surface``.
    """
    try:
        vs, fs, gs = ([float(t) for t in column]
                      for column in (v_samples, f_samples, g_samples))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("v, f and g samples must be sequences of numbers in the float "
                          "range") from None
    if len(vs) < 4:
        raise ConfigError("need at least 4 samples of f and g")
    if not len(fs) == len(gs) == len(vs):
        raise ConfigError(f"need one f and one g sample per v sample: got "
                          f"{len(fs)}, {len(gs)} for {len(vs)}")
    for v, f, g in zip(vs, fs, gs):
        check_finite(v=v, f=f, g=g)
    if not all(v0 < v1 for v0, v1 in zip(vs, vs[1:])):
        raise ConfigError("v samples must be strictly increasing")
    if not all(g >= 0.0 for g in gs):
        raise ConfigError("g = ||W'||^2 samples must be nonnegative")
    f_jet, g_jet = _pchip(vs, fs)[0], _pchip(vs, gs)[0]

    def metric(u, v):
        fv, f_v, _ = f_jet(v, 0.0)  # (f, f') from one piece lookup
        gv, g_v, _ = g_jet(v, 0.0)
        return _ruled_jet(u, v, fv, f_v, gv, g_v)

    return _ruled_spec(metric, u_range, (vs[0], vs[-1]), identifier)


# --------------------------------------------------------------------------
# revolution profiles
# --------------------------------------------------------------------------

def profile_surface(a, a_u, a_uu, u_range: tuple[float, float],
                    identifier: str = "profile") -> SurfaceSpec:
    """Rotationally symmetric metric from analytic profile callables on ``u_range``.

    ``u_range`` is a pair of numbers 0 <= lo < hi; hi may be infinite.  Positivity of a
    and ``profile_warning`` (|a'| > 1) come from 199 interior probe points, so a slope
    peak between them is missed; ``tabulated_profile``'s is exact.
    An unbounded domain gets 200 probes on (u_min, u_min + 10] and 199 more out to
    max(100, 10 u_min), the end of the root scans of ``critical_parallels`` and
    ``turning_points``; nothing beyond is checked.  A non-callable a, a_u or a_uu, and a
    callable that raises ArithmeticError or ValueError on a probe, raise ConfigError.
    """
    if not all(map(callable, (a, a_u, a_uu))):
        raise ConfigError("profile a, a_u and a_uu must be callables")
    lo, hi = _interval("profile u-range", u_range)
    if not lo >= 0.0:
        raise ConfigError(f"bad profile u-range {u_range!r}: u must be >= 0")
    if math.isfinite(hi):
        probe = _linspace(lo, hi, 201)[1:-1]
    else:
        probe = _linspace(lo, lo + 10.0, 201)[1:] + _linspace(lo + 10.0, _far_end(lo), 200)[1:]
    try:
        if not all(a(t) > 0.0 for t in probe):
            raise ConfigError("profile a(u) must be positive on its domain")
        warning = bool(max(abs(a_u(t)) for t in probe) > 1.0)
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"profile callables fail on a probe in [{probe[0]!r}, "
                          f"{probe[-1]!r}]: {exc!r}") from exc

    def generic(u, v):
        return a(u), a_u(u), 0.0

    return SurfaceSpec("revolution_profile", {}, MetricPatch(identifier, generic, Domain(lo, hi)),
                       RevolutionProfile(a, a_u, a_uu), warning)


def tabulated_profile(samples: Sequence[tuple[float, float]],
                      identifier: str = "profile") -> SurfaceSpec:
    """Revolution surface with a(u) given by monotone cubic interpolation.

    Requires at least 4 finite samples with strictly increasing u >= 0 and positive a.
    The interpolant is PCHIP, the shape-preserving piecewise cubic of
    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980), so that no spurious
    critical parallels are introduced by overshoot; it equals scipy's
    ``PchipInterpolator``.  ``profile_warning`` comes from the exact maximum
    of |a'| over the samples' range.
    """
    try:
        pts = [(float(u), float(a)) for u, a in samples]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("profile samples must be (u, a) pairs of numbers in the float "
                          "range") from None
    for u, a in pts:
        check_finite(u=u, a=a)
    if len(pts) < 4:
        raise ConfigError(f"need at least 4 profile samples, got {len(pts)}")
    us, vals = [u for u, _ in pts], [a for _, a in pts]
    if not all(u0 < u1 for u0, u1 in zip(us, us[1:])):
        raise ConfigError("profile u samples must be strictly increasing")
    if us[0] < 0.0:  # u is the distance to the reference curve, as in profile_surface
        raise ConfigError(f"profile u samples must be >= 0, got u={us[0]!r}")
    if not all(a > 0.0 for a in vals):
        raise ConfigError("profile values a(u) must be positive")
    metric, a_uu, slope_max, pieces = _pchip(us, vals)
    return _profile_spec("revolution_profile", {}, identifier, metric, a_uu,
                         Domain(us[0], us[-1]), slope_max > 1.0, tuple(us), pieces)


def load_profile_csv(path) -> list[tuple[float, float]]:
    """Read a two-column profile CSV ``u,a`` with a header row."""
    import csv

    rows: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"empty profile file {path}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ConfigError(f"{path}:{lineno}: expected two columns")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: non-numeric value") from None
    return rows
