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
import csv
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DegenerateMetricError, DomainError, check_finite

__all__ = [
    "Domain",
    "MetricPatch",
    "RevolutionProfile",
    "SurfaceSpec",
    "CATALOG_KINDS",
    "CATALOG_PARAMS",
    "catalog_surface",
    "eval_metric",
    "christoffel",
    "ruled_metric",
    "ruled_surface",
    "ruled_surface_from_samples",
    "tabulated_profile",
    "profile_surface",
    "load_profile_csv",
]

_INF = math.inf


class Domain(NamedTuple):
    """Open coordinate rectangle (u_min, u_max) x (v_min, v_max)."""

    u_min: float
    u_max: float
    v_min: float = -_INF
    v_max: float = _INF

    def contains(self, u: float, v: float) -> bool:
        return self.u_min < u < self.u_max and self.v_min < v < self.v_max


@dataclass(frozen=True)
class MetricPatch:
    """Fused metric kernel of a semi-geodesic patch on an open rectangle.

    ``metric(u, v)`` returns (G, G_u, G_v) in one call and checks nothing:
    it may be queried outside ``domain`` (the conformal-geodesic oracles
    rely on that).  ``evaluate`` is the checked entry point: it rejects
    points outside the open domain with DomainError, and G <= 0 or an
    ArithmeticError or ValueError raised by ``metric`` (say, an overflow)
    with DegenerateMetricError.  G must be smooth and positive on the domain.
    """

    identifier: str
    metric: Callable[[float, float], tuple[float, float, float]]
    domain: Domain

    def evaluate(self, u: float, v: float) -> tuple[float, float, float]:
        """Return (G, G_u, G_v) at an interior point."""
        u_min, u_max, v_min, v_max = self.domain
        if not (u_min < u < u_max and v_min < v < v_max):
            raise DomainError(
                f"({u!r}, {v!r}) outside domain {tuple(self.domain)} of {self.identifier}"
            )
        try:
            values = self.metric(u, v)
        except (ArithmeticError, ValueError) as exc:
            raise DegenerateMetricError(f"metric of {self.identifier} fails at "
                                        f"({u!r}, {v!r}): {exc}") from exc
        if not values[0] > 0.0:
            raise DegenerateMetricError(
                f"G({u!r}, {v!r}) = {values[0]!r} is not positive on {self.identifier}"
            )
        return values


@dataclass(frozen=True)
class RevolutionProfile:
    """Profile a(u) of a rotationally symmetric metric du^2 + a(u)^2 dv^2.

    ``knots`` holds the sample abscissae of a tabulated profile, where a''
    jumps; integrals over a(u) are split there.  Analytic profiles have none.
    """

    a: Callable[[float], float]
    a_u: Callable[[float], float]
    a_uu: Callable[[float], float]
    knots: tuple[float, ...] = ()


@dataclass(frozen=True)
class SurfaceSpec:
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
    profile_warning: bool = field(default=False)

    @property
    def identifier(self) -> str:
        return self.patch.identifier

    @property
    def domain(self) -> Domain:
        return self.patch.domain

    @property
    def is_revolution(self) -> bool:
        return self.profile is not None


def eval_metric(spec: SurfaceSpec, u: float, v: float) -> tuple[float, float, float]:
    """Metric coefficient and partials (G, G_u, G_v) at an interior point."""
    return spec.patch.evaluate(u, v)


def christoffel(spec: SurfaceSpec, u: float, v: float) -> tuple[float, float, float]:
    """Nonzero Christoffel symbols (Gamma^1_22, Gamma^2_12, Gamma^2_22).

    For ds^2 = du^2 + G^2 dv^2 these are -G*G_u, G_u/G and G_v/G; the
    remaining symbols vanish identically and are not returned.
    """
    g, gu, gv = spec.patch.evaluate(u, v)
    return -g * gu, gu / g, gv / g


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def _const_profile(c: float):
    def a(u: float) -> float:
        return c

    def zero(u: float) -> float:
        return 0.0

    return a, zero, zero


def _sqrt_profile(k: float):
    # a(u) = sqrt(1 + (k u)^2).  Shared by catenoid, helicoid and binormal
    # surfaces so that isometric entries evaluate bit-identically.
    k2 = k * k

    def a(u: float) -> float:
        return math.sqrt(1.0 + k2 * u * u)

    def a_u(u: float) -> float:
        return k2 * u / math.sqrt(1.0 + k2 * u * u)

    def a_uu(u: float) -> float:
        r = math.sqrt(1.0 + k2 * u * u)
        return k2 / (r * r * r)

    return a, a_u, a_uu


def _revolution_spec(kind, params, identifier, a, a_u, a_uu, domain, warning=False,
                     metric=None, knots=()):
    def generic(u, v):
        return a(u), a_u(u), 0.0

    return SurfaceSpec(
        kind=kind,
        params=dict(params),
        patch=MetricPatch(identifier, metric or generic, domain),
        profile=RevolutionProfile(a, a_u, a_uu, knots),
        profile_warning=warning,
    )


def _positive_param(params: dict, key: str, default: float | None, kind: str) -> float:
    if key in params:
        value = params[key]
    elif default is not None:
        value = default
    else:
        raise ConfigError(f"surface kind {kind!r} requires parameter {key!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"parameter {key}={value!r} is not a number") from None
    if not value > 0.0 or not math.isfinite(value):
        raise ConfigError(f"parameter {key}={value!r} must be a positive finite real")
    return value


CATALOG_PARAMS = {
    "plane": (),
    "cylinder": (),
    "sphere": ("extended",),
    "hyperbolic": ("r",),
    "cone": ("slope",),
    "catenoid": (),
    "helicoid": (),
    "binormal": ("tau",),
    "grusin": (),
}

CATALOG_KINDS = tuple(CATALOG_PARAMS)


def catalog_surface(kind: str, params: dict | None = None, **kwargs) -> SurfaceSpec:
    """Build a built-in surface by name.

    Optional parameters: hyperbolic ``r`` (default 1), cone ``slope``
    (default 1/sqrt(2), the 45-degree cone), binormal ``tau`` (default 1),
    sphere ``extended`` (domain (0, pi) instead of (0, pi/2); queries beyond
    the equator's focal distance then fail with G <= 0).
    """
    merged = dict(params or {})
    merged.update(kwargs)
    if kind not in CATALOG_PARAMS:
        raise ConfigError(f"unknown surface kind: {kind!r}")
    unknown = set(merged) - set(CATALOG_PARAMS[kind])
    if unknown:
        raise ConfigError(f"unknown parameter(s) {sorted(unknown)} for kind {kind!r}")

    if kind in ("plane", "cylinder"):
        a, a1, a2 = _const_profile(1.0)
        return _revolution_spec(kind, merged, kind, a, a1, a2, Domain(0.0, _INF))

    if kind == "sphere":
        extended = bool(merged.get("extended", False))
        u_max = math.pi if extended else math.pi / 2
        return _revolution_spec(
            kind, merged, "sphere",
            math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u),
            Domain(0.0, u_max),
        )

    if kind == "hyperbolic":
        r = _positive_param(merged, "r", 1.0, kind)
        return _revolution_spec(
            kind, {"r": r}, f"hyperbolic(r={r:g})",
            lambda u: math.cosh(u / r),
            lambda u: math.sinh(u / r) / r,
            lambda u: math.cosh(u / r) / (r * r),
            Domain(0.0, _INF),
        )

    if kind == "cone":
        slope = _positive_param(merged, "slope", math.sqrt(0.5), kind)
        return _revolution_spec(
            kind, {"slope": slope}, f"cone(slope={slope:g})",
            lambda u: slope * u, lambda u: slope, lambda u: 0.0,
            Domain(0.0, _INF),
        )

    if kind in ("catenoid", "helicoid"):
        a, a1, a2 = _sqrt_profile(1.0)
        return _revolution_spec(kind, merged, kind, a, a1, a2, Domain(0.0, _INF))

    if kind == "binormal":
        tau = _positive_param(merged, "tau", 1.0, kind)
        a, a1, a2 = _sqrt_profile(tau)
        return _revolution_spec(
            kind, {"tau": tau}, f"binormal(tau={tau:g})", a, a1, a2, Domain(0.0, _INF)
        )

    if kind == "grusin":
        return _revolution_spec(
            kind, merged, "grusin",
            lambda u: 1.0 / u,
            lambda u: -1.0 / (u * u),
            lambda u: 2.0 / (u * u * u),
            Domain(0.0, _INF),
        )

    raise ConfigError(f"unknown surface kind: {kind!r}")  # pragma: no cover


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
    """PCHIP interpolant of samples y(x), its first two derivatives and a kernel.

    Returns callables (a, a_u, a_uu) equal bit for bit to scipy's
    ``PchipInterpolator(x, y)`` and its ``derivative()`` and
    ``derivative(2)``: the same knot slopes (weighted harmonic mean inside,
    Fritsch & Carlson 1980), the same cubic coefficients, the same piece
    (the end pieces extend beyond the knots, x[-1] belongs to the last one)
    and the same order of floating-point operations.  x must be strictly
    increasing with at least 3 entries; nothing is checked here.  The fourth,
    ``metric(t, v) -> (a(t), a_u(t), 0.0)``, finds the piece once for both.
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
    hi = len(x) - 1  # bisect over x[1:-1]: clamps t to the end pieces

    def a(t: float) -> float:
        k = bisect.bisect_right(x, t, 1, hi) - 1
        s = t - x[k]
        c3, c2, c1, c0, _, _, _ = pieces[k]
        return 0.0 + c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)

    def a_u(t: float) -> float:
        k = bisect.bisect_right(x, t, 1, hi) - 1
        s = t - x[k]
        _, c2, _, _, e1, e0, _ = pieces[k]
        return 0.0 + c2 + e1 * s + e0 * (s * s)

    def a_uu(t: float) -> float:
        k = bisect.bisect_right(x, t, 1, hi) - 1
        _, _, _, _, e1, _, f0 = pieces[k]
        return 0.0 + e1 + f0 * (t - x[k])

    def metric(t: float, v: float) -> tuple[float, float, float]:
        k = bisect.bisect_right(x, t, 1, hi) - 1
        s = t - x[k]
        c3, c2, c1, c0, e1, e0, _ = pieces[k]
        return (0.0 + c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s),
                0.0 + c2 + e1 * s + e0 * (s * s), 0.0)

    return a, a_u, a_uu, metric


# --------------------------------------------------------------------------
# ruled surfaces
# --------------------------------------------------------------------------

def _ruled_root(u: float, v: float, fv: float, gv: float) -> float:
    rad = 1.0 + 2.0 * u * fv + u * u * gv
    if not rad > 0.0:
        raise DegenerateMetricError(
            f"ruled metric radicand {rad!r} <= 0 at (u={u!r}, v={v!r})"
        )
    return math.sqrt(rad)


def ruled_metric(f: Callable[[float], float], g: Callable[[float], float],
                 u: float, v: float) -> float:
    """G for the ruled surface c(v) + u*W(v) with f = <c',W'>, g = ||W'||^2.

    Returns sqrt(1 + 2*u*f(v) + u^2*g(v)); the parametrization degenerates
    where the radicand is not positive.
    """
    return _ruled_root(u, v, f(v), g(v))


def ruled_surface(f, g, f_v, g_v, u_range=(0.0, _INF), v_range=(-_INF, _INF),
                  identifier: str = "ruled") -> SurfaceSpec:
    """Ruled surface from callables f(v), g(v) and their derivatives."""

    def metric(u, v):
        fv, gv = f(v), g(v)
        root = _ruled_root(u, v, fv, gv)
        return root, (fv + u * gv) / root, (u * f_v(v) + 0.5 * u * u * g_v(v)) / root

    patch = MetricPatch(identifier, metric,
                        Domain(u_range[0], u_range[1], v_range[0], v_range[1]))
    return SurfaceSpec(kind="ruled", params={}, patch=patch, profile=None)


def ruled_surface_from_samples(v_samples: Sequence[float],
                               f_samples: Sequence[float],
                               g_samples: Sequence[float],
                               u_range=(0.0, _INF),
                               identifier: str = "ruled") -> SurfaceSpec:
    """Ruled surface with f and g given by samples over v.

    f and g are interpolated by PCHIP, the monotone piecewise cubic of
    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980); the interpolant equals
    scipy's ``PchipInterpolator``.  Requires at least 4 finite samples, one
    f and one g per v, strictly increasing v and nonnegative g.
    """
    try:
        v_arr, f_arr, g_arr = (np.asarray(t, dtype=float)
                               for t in (v_samples, f_samples, g_samples))
    except (TypeError, ValueError):
        raise ConfigError("v, f and g samples must be sequences of numbers") from None
    if v_arr.ndim != 1 or len(v_arr) < 4:
        raise ConfigError("need at least 4 samples of f and g")
    if f_arr.shape != v_arr.shape or g_arr.shape != v_arr.shape:
        raise ConfigError(f"need one f and one g sample per v sample: got "
                          f"{f_arr.shape}, {g_arr.shape} for {v_arr.shape}")
    for v, f, g in zip(v_arr.tolist(), f_arr.tolist(), g_arr.tolist()):
        check_finite(v=v, f=f, g=g)
    if not np.all(np.diff(v_arr) > 0):
        raise ConfigError("v samples must be strictly increasing")
    if np.any(g_arr < 0):
        raise ConfigError("g = ||W'||^2 samples must be nonnegative")
    f, f_v, _, _ = _pchip(v_arr, f_arr)
    g, g_v, _, _ = _pchip(v_arr, g_arr)
    return ruled_surface(f, g, f_v, g_v, u_range=u_range,
                         v_range=(float(v_arr[0]), float(v_arr[-1])),
                         identifier=identifier)


# --------------------------------------------------------------------------
# revolution profiles
# --------------------------------------------------------------------------

def profile_surface(a, a_u, a_uu, u_range: tuple[float, float],
                    identifier: str = "profile") -> SurfaceSpec:
    """Rotationally symmetric metric from analytic profile callables."""
    lo, hi = float(u_range[0]), float(u_range[1])
    if not (lo >= 0.0 and hi > lo):
        raise ConfigError(f"bad profile u-range {u_range!r}")
    probe_hi = hi if math.isfinite(hi) else lo + 10.0
    probe = np.linspace(lo, probe_hi, 201)[1:-1]
    vals = np.array([a(float(t)) for t in probe])
    if not np.all(vals > 0):
        raise ConfigError("profile a(u) must be positive on its domain")
    warning = bool(max(abs(a_u(float(t))) for t in probe) > 1.0)
    return _revolution_spec(
        "revolution_profile", {}, identifier, a, a_u, a_uu,
        Domain(lo, hi), warning=warning,
    )


def tabulated_profile(samples: Sequence[tuple[float, float]],
                      identifier: str = "profile") -> SurfaceSpec:
    """Revolution surface with a(u) given by monotone cubic interpolation.

    Requires at least 4 finite samples with strictly increasing u and positive a.
    The interpolant is PCHIP, the shape-preserving piecewise cubic of
    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980), so that no spurious
    critical parallels are introduced by overshoot; it equals scipy's
    ``PchipInterpolator``.
    """
    try:
        pts = [(float(u), float(a)) for u, a in samples]
    except (TypeError, ValueError):
        raise ConfigError("profile samples must be (u, a) pairs of numbers") from None
    for u, a in pts:
        check_finite(u=u, a=a)
    if len(pts) < 4:
        raise ConfigError(f"need at least 4 profile samples, got {len(pts)}")
    us, vals = map(np.array, zip(*pts))
    if not np.all(np.diff(us) > 0):
        raise ConfigError("profile u samples must be strictly increasing")
    if not np.all(vals > 0):
        raise ConfigError("profile values a(u) must be positive")
    a, a_u, a_uu, metric = _pchip(us, vals)
    fine = np.linspace(us[0], us[-1], max(2000, 20 * len(us))).tolist()
    warning = max(abs(a_u(t)) for t in fine) > 1.0
    return _revolution_spec(
        "revolution_profile", {}, identifier, a, a_u, a_uu,
        Domain(float(us[0]), float(us[-1])), warning=warning, metric=metric,
        knots=tuple(us.tolist()),
    )


def load_profile_csv(path) -> list[tuple[float, float]]:
    """Read a two-column profile CSV ``u,a`` with a header row."""
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
