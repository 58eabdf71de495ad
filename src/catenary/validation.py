"""Self-validation suite: oracle and property checks with fixed thresholds.

Every check is deterministic (fixed seeds, no timestamps) so repeated runs
produce identical reports.  The same suite backs ``catenary validate --all``
and the acceptance tests.  The conformal-geodesic oracle lives here, not in
the tracing module: it integrates the geodesic equations of the conformal
metric u^(2 alpha) ds^2 with an independent integrator (scipy's RK45) and
is used only to cross-check traces.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

from .closed_forms import (
    closed_form_family,
    cone_catenary,
    euclidean_catenary,
    grusin_catenary,
    validate_closed_form,
)
from .curvature import _kappa_residual, _speed_sq, _target
from .revolution import (
    clairaut_constant,
    critical_parallels,
    quadrature_v,
    turning_points,
)
from .surfaces import catalog_surface, eval_metric, profile_surface
from .tracing import CatenaryState, Trace, _bisect, trace_catenary, trace_graph

__all__ = ["CheckResult", "THRESHOLDS", "run_all"]

THRESHOLDS = {
    "closed_forms": 1e-10,
    "conservation": 1e-6,
    "cross_oracle": 1e-5,
}

_USTAR_BRACKET = (0.5, 1.5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


def _result(name, value, threshold, detail="") -> CheckResult:
    return CheckResult(name=name, passed=bool(value < threshold), value=float(value),
                       threshold=float(threshold), detail=detail)


def bisect_oracle(fn, a, b, xtol=1e-14):
    """Plain bisection root finder, used as an independent reference."""
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("no sign change in bracket")
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


# --------------------------------------------------------------------------
# trace utilities
# --------------------------------------------------------------------------

def _bisect_dense(before, a, b):
    """Parameter in [a, b] where ``before(t)`` turns from true to false, to 1e-13."""
    a, b = _bisect(before, a, b, 1e-13)
    return 0.5 * (a + b)


def find_turnings(trace: Trace) -> list[float]:
    """Arc-length values where the meridional velocity cos(phi) changes sign."""
    out = []
    samples = trace.samples
    for i in range(len(samples) - 1):
        c0, c1 = math.cos(samples[i].phi), math.cos(samples[i + 1].phi)
        if c0 == 0.0:
            out.append(samples[i].s)
        elif (c0 < 0.0) != (c1 < 0.0):
            out.append(_bisect_dense(
                lambda t: (c0 < 0.0) == (math.cos(trace.at(t)[2]) < 0.0),
                samples[i].s, samples[i + 1].s))
    return out


def v_at_u(trace: Trace, u_target: float, s_hi: float) -> float:
    """v where a monotone-in-u stretch of the trace first reaches u_target."""
    s_lo = trace.samples[0].s
    increasing = trace.at(s_hi)[0] > trace.at(s_lo)[0]
    s = _bisect_dense(lambda t: (trace.at(t)[0] < u_target) == increasing, s_lo, s_hi)
    return trace.at(s)[1]


def u_of_v(trace: Trace, v_target: float) -> float:
    """u at a given v along a trace with strictly monotone v(s)."""
    s = _bisect_dense(lambda t: trace.at(t)[1] < v_target,
                      trace.samples[0].s, trace.samples[-1].s)
    return trace.at(s)[0]


def conformal_geodesic(spec, alpha, start: CatenaryState, s_span: float):
    """Geodesic of the conformal metric u^(2 alpha)(du^2 + G^2 dv^2).

    Integrated with scipy's RK45 from the Christoffel symbols of the
    conformal metric.  The state carries the velocity in the affine
    parameter t, and the right-hand side is divided by ds/dt = (u0/u)^alpha,
    so the integration runs in the unweighted arc length s that traces use.
    Returns a callable s -> (u, v) for 0 <= s <= s_span.
    """
    from scipy.integrate import solve_ivp

    metric = spec.patch.metric  # unchecked: the oracle may step below u = 0
    u0 = start.u

    def rhs(s, y):
        u, v, du, dv = y
        g, gu, gv = metric(u, v)
        e = u ** (2.0 * alpha)
        e_u = 2.0 * alpha * u ** (2.0 * alpha - 1.0)
        g22 = e * g * g
        g22_u = e_u * g * g + 2.0 * e * g * gu
        g22_v = 2.0 * e * g * gv
        gam111 = e_u / (2.0 * e)
        gam122 = -g22_u / (2.0 * e)
        gam212 = g22_u / (2.0 * g22)
        gam222 = g22_v / (2.0 * g22)
        ddu = -(gam111 * du * du + gam122 * dv * dv)
        ddv = -(2.0 * gam212 * du * dv + gam222 * dv * dv)
        ds_dt = (u0 / u) ** alpha
        return [du / ds_dt, dv / ds_dt, ddu / ds_dt, ddv / ds_dt]

    g0 = metric(start.u, start.v)[0]
    y0 = [start.u, start.v, math.cos(start.phi), math.sin(start.phi) / g0]
    sol = solve_ivp(rhs, (0.0, s_span), y0, rtol=1e-11, atol=1e-12,
                    dense_output=True, max_step=max(s_span / 50.0, 1e-3))

    def at_s(s: float) -> tuple[float, float]:
        if sol.t[-1] < s:
            raise ValueError(f"oracle geodesic too short for s={s}")
        y = sol.sol(s)
        return float(y[0]), float(y[1])

    return at_s


def _oracle_gap(oracle, trace: Trace, s_max: float) -> float:
    """Worst |oracle - sample| in u and v over the samples with s <= s_max."""
    worst = 0.0
    for smp in trace.samples:
        if smp.s > s_max:
            break
        ou, ov = oracle(smp.s)
        worst = max(worst, abs(ou - smp.u), abs(ov - smp.v))
    return worst


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def check_closed_form_residuals() -> list[CheckResult]:
    """Criterion 1: governing-equation residuals of all solution families."""
    import numpy as np

    thr = THRESHOLDS["closed_forms"]
    plane = catalog_surface("plane")
    cone = catalog_surface("cone")
    grusin = catalog_surface("grusin")
    cases = [
        ("euclidean", closed_form_family("euclidean", mu=1.0, nu=0.0), plane,
         np.linspace(-2.0, 2.0, 100)),
        ("euclidean_shifted", closed_form_family("euclidean", mu=1.7, nu=0.3), plane,
         np.linspace(-1.5, 1.5, 100)),
        ("cone", closed_form_family("cone", mu=1.0, nu=0.0), cone,
         np.linspace(-1.0, 1.0, 100)),
        ("grusin_catenary", closed_form_family("grusin_catenary", mu=1.0, nu=1.0),
         grusin, np.linspace(-0.45, 4.0, 100)),
        ("grusin_geodesic", closed_form_family("grusin_geodesic", u0=1.3, v0=0.5),
         grusin, np.linspace(-1.9, 1.9, 100)),
    ]
    out = []
    for name, family, spec, grid in cases:
        worst = validate_closed_form(family, spec, 1.0, [float(t) for t in grid])
        out.append(_result(f"closed_form_residual[{name}]", worst, thr))
    return out


# surface kind, exact u(v) with mu = 1, its nu, u'(0), end of the v-span, threshold
_GRAPH_CLOSED_FORMS = (
    ("plane", euclidean_catenary, 0.0, 0.0, 2.0, 1e-7),
    ("cone", cone_catenary, 0.0, 0.0, 0.9, 1e-6),
    ("grusin", grusin_catenary, 1.0, 1.0, 4.0, 1e-6),
)


def check_trace_vs_closed_forms() -> list[CheckResult]:
    """Criterion 2: graph traces against the exact solutions."""
    out = []
    for kind, exact, nu, du0, v1, thr in _GRAPH_CLOSED_FORMS:
        tr = trace_graph(catalog_surface(kind), 1.0, 1.0, du0, (0.0, v1), tol=1e-9)
        worst = max(abs(s.u - exact(1.0, nu, s.v)) for s in tr.samples)
        out.append(_result(f"trace_vs_closed_form[{kind}]", worst, thr))
    return out


def check_sphere_critical_parallel() -> list[CheckResult]:
    """Criterion 3: the unique sphere critical parallel against the bisection oracle."""
    sphere = catalog_surface("sphere")
    oracle = bisect_oracle(lambda u: math.cos(u) - u * math.sin(u), *_USTAR_BRACKET)
    found = critical_parallels(sphere, 1.0)
    out = [
        CheckResult("sphere_critical_count", len(found) == 1, float(len(found)),
                    1.0, f"expected exactly 1, found {len(found)}"),
    ]
    if found:
        root = found[0]
        out.append(_result("sphere_critical_vs_oracle", abs(root.u - oracle), 1e-10,
                           detail=f"root={root.u!r} oracle={oracle!r}"))
        out.append(_result("sphere_critical_vs_reported", abs(root.u - 0.86), 5e-3))
        out.append(CheckResult("sphere_critical_stable", root.lam > 0.0, root.lam,
                               0.0, f"lambda={root.lam!r}"))
    return out


_CONSERVATION_STARTS = (
    ("sphere", CatenaryState(0.7, 0.0, 1.0)),
    ("cone", CatenaryState(1.0, 0.0, 0.9)),
    ("catenoid", CatenaryState(1.0, 0.0, math.pi / 4)),
)


def check_clairaut_conservation() -> list[CheckResult]:
    """Criterion 4: relative drift of the first integral along s = 10 traces."""
    thr = THRESHOLDS["conservation"]
    out = []
    for kind, start in _CONSERVATION_STARTS:
        spec = catalog_surface(kind)
        tr = trace_catenary(spec, 1.0, start, s_max=10.0, tol=1e-9)
        cs = [clairaut_constant(spec, 1.0, CatenaryState(s.u, s.v, s.phi, s.s))
              for s in tr.samples]
        drift = max(abs(x - cs[0]) for x in cs) / max(abs(cs[0]), 1e-12)
        out.append(_result(f"clairaut_drift[{kind}]", drift, thr,
                           detail=f"c0={cs[0]!r}"))
    return out


def check_sphere_oscillation() -> list[CheckResult]:
    """Criterion 5: oscillation between equal extrema for c = 0.5."""
    sphere = catalog_surface("sphere")
    tp = turning_points(sphere, 1.0, 0.5)
    u_m, u_M = tp[0], tp[-1]
    ustar = critical_parallels(sphere, 1.0)[0].u
    tr = trace_catenary(sphere, 1.0, CatenaryState(u_m, 0.0, math.pi / 2),
                        s_max=100.0, tol=1e-9, max_step=0.02)
    s_turn = find_turnings(tr)
    u_ext = [tr.at(s)[0] for s in s_turn]
    maxima = [u for u in u_ext if u > ustar]
    minima = [u for u in u_ext if u < ustar]
    out = [
        _result("oscillation_maxima_spread", max(maxima) - min(maxima), 1e-4,
                detail=f"{len(maxima)} maxima"),
        _result("oscillation_minima_spread", max(minima) - min(minima), 1e-4,
                detail=f"{len(minima)} minima"),
        _result("oscillation_maxima_vs_turning",
                max(abs(u - u_M) for u in maxima), 1e-5),
        _result("oscillation_minima_vs_turning",
                max(abs(u - u_m) for u in minima), 1e-5),
        CheckResult("oscillation_ordering", u_m < ustar < u_M, ustar, 0.0,
                    f"u_m={u_m!r} < u*={ustar!r} < u_M={u_M!r}"),
    ]
    return out


def check_stability_dynamics() -> list[CheckResult]:
    """Criterion 6: perturbed stable parallel stays banded, unstable one departs."""
    sphere = catalog_surface("sphere")
    ustar = critical_parallels(sphere, 1.0)[0].u
    tr = trace_catenary(sphere, 1.0, CatenaryState(ustar + 0.01, 0.0, math.pi / 2),
                        s_max=50.0, tol=1e-9)
    band = max(abs(s.u - ustar) for s in tr.samples)
    out = [_result("stability_band[sphere]", band, 0.05,
                   detail=f"max |u - u*| over s in [0, 50]")]

    bump = profile_surface(lambda u: 1.0 + (u - 2.0) ** 2,
                           lambda u: 2.0 * (u - 2.0),
                           lambda u: 2.0, (0.05, 60.0), identifier="bump-profile")
    u_unstable = 5.0 / 3.0
    tr = trace_catenary(bump, 1.0, CatenaryState(u_unstable + 0.01, 0.0, math.pi / 2),
                        s_max=50.0, tol=1e-9)
    exit_s = None
    for s in tr.samples:
        if abs(s.u - u_unstable) > 0.05:
            exit_s = s.s
            break
    out.append(CheckResult("stability_escape[unstable-profile]",
                           exit_s is not None and exit_s < 50.0,
                           exit_s if exit_s is not None else math.inf, 50.0,
                           f"band left at s={exit_s!r}"))
    return out


def check_catenoid_escape() -> list[CheckResult]:
    """Criterion 7: finite v-span, Cauchy quadrature truncations, blow-up exit."""
    catenoid = catalog_surface("catenoid")
    c = 1.0
    truncations = [quadrature_v(catenoid, 1.0, c, 1.0, U)
                   for U in (10.0, 100.0, 1e3, 1e4, 1e5)]
    diffs = [abs(b - a) for a, b in zip(truncations, truncations[1:])]
    out = [
        CheckResult("catenoid_quadrature_cauchy",
                    diffs[-1] < 1e-8 and diffs[0] > diffs[-1],
                    diffs[-1], 1e-8, f"truncation diffs {diffs!r}"),
    ]
    bound = quadrature_v(catenoid, 1.0, c, 1.0, math.inf)
    tr = trace_catenary(catenoid, 1.0, CatenaryState(1.0, 0.0, math.pi / 4),
                        s_max=3e6, tol=1e-9)
    v_span = tr.samples[-1].v - tr.samples[0].v
    out.append(CheckResult("catenoid_blow_up", tr.termination == "blow_up",
                           tr.samples[-1].u, 0.0, f"termination={tr.termination}"))
    consistent = bound / 2.0 <= v_span <= 2.0 * bound
    out.append(CheckResult("catenoid_vspan_vs_quadrature", consistent, v_span,
                           2.0 * bound, f"v_span={v_span!r} bound={bound!r}"))
    return out


def check_triple_oracle() -> list[CheckResult]:
    """Criterion 8: flow trace, graph trace, quadrature and conformal geodesics agree."""
    thr = THRESHOLDS["cross_oracle"]
    out = []
    cases = [
        ("sphere", 0.7, 0.0, math.pi / 2, 0.9, 1.2),
        ("catenoid", 1.0, 0.0, math.pi / 4, 2.0, 0.3),
    ]
    for kind, u0, v0, phi0, u_probe, v_probe in cases:
        spec = catalog_surface(kind)
        start = CatenaryState(u0, v0, phi0)
        flow = trace_catenary(spec, 1.0, start, s_max=4.0, tol=1e-9, max_step=0.02)
        g0 = eval_metric(spec, u0, v0)[0]
        du0 = g0 * math.cos(phi0) / math.sin(phi0)
        graph = trace_graph(spec, 1.0, u0, du0, (v0, v0 + v_probe), tol=1e-9,
                            max_step=v_probe / 40.0)
        worst = 0.0
        for smp in graph.samples[1:]:
            worst = max(worst, abs(u_of_v(flow, smp.v) - smp.u))
        out.append(_result(f"flow_vs_graph[{kind}]", worst, thr))

        c = clairaut_constant(spec, 1.0, start)
        dv_quad = quadrature_v(spec, 1.0, c, u0, u_probe)
        dv_flow = v_at_u(flow, u_probe, flow.samples[-1].s) - v0
        out.append(_result(f"flow_vs_quadrature[{kind}]", abs(dv_quad - dv_flow), thr))

        oracle = conformal_geodesic(spec, 1.0, start, 2.0)
        out.append(_result(f"flow_vs_conformal_geodesic[{kind}]",
                           _oracle_gap(oracle, flow, 2.0), thr))
    return out


_JET_SEED = 20240817
_JETS_PER_SURFACE = 10_000
_JET_CHUNK = 250  # rows converted to floats at a time, which bounds the lists' memory
_TWINS_PER_SURFACE = 1_000
_JET_BOXES = {
    "plane": (0.2, 5.0),
    "cylinder": (0.2, 5.0),
    "sphere": (0.05, 1.5),
    "hyperbolic": (0.1, 3.0),
    "cone": (0.2, 5.0),
    "catenoid": (0.1, 5.0),
    "helicoid": (0.1, 5.0),
    "binormal": (0.1, 5.0),
    "grusin": (0.2, 4.0),
}


def _jet_draws(rng, u_lo, u_hi):
    """One surface's random jets (u, v, du, dv, ddu, ddv) as Python floats."""
    us = rng.uniform(u_lo, u_hi, _JETS_PER_SURFACE)
    vs = rng.uniform(-3.0, 3.0, _JETS_PER_SURFACE)
    vel = rng.normal(size=(_JETS_PER_SURFACE, 4))
    for lo in range(0, _JETS_PER_SURFACE, _JET_CHUNK):
        hi = lo + _JET_CHUNK
        for u, v, (du, dv, ddu, ddv) in zip(us[lo:hi].tolist(), vs[lo:hi].tolist(),
                                            vel[lo:hi].tolist()):
            yield u, v, du, dv, ddu, ddv


def _jet_criteria(g, gu, gv, u, v, du, dv, ddu, ddv):
    """(residual, kappa, target) of a jet at alpha = 1 from one metric evaluation.

    Bit for bit what catenary_residual, geodesic_curvature and
    catenary_target_curvature return for the same jet.
    """
    kappa, r = _kappa_residual(1.0, g, gu, gv, u, v, du, dv, ddu, ddv)
    return r, kappa, _target(1.0, g, u, dv, _speed_sq(g, u, v, du, dv))


def _verdicts(r, kappa, target):
    """Whether the residual and the curvature criterion each say the jet solves."""
    return abs(r) < 1e-9, abs(kappa - target) < 1e-8


def check_criterion_equivalence() -> list[CheckResult]:
    """Criterion 9: residual and curvature criteria agree; alpha = 0 gives geodesics.

    Random jets almost never solve the equation, so the first jets of each
    surface also get two twins that differ only in ddv: one on the solution
    set and one at residual 1e-7, outside both bands.
    """
    import numpy as np

    out = []
    rng = np.random.default_rng(_JET_SEED)
    bad = 0
    total = 0
    for kind, (u_lo, u_hi) in _JET_BOXES.items():
        evaluate = catalog_surface(kind).patch.evaluate
        for i, (u, v, du, dv, ddu, ddv) in enumerate(_jet_draws(rng, u_lo, u_hi)):
            g, gu, gv = evaluate(u, v)
            r, kappa, target = _jet_criteria(g, gu, gv, u, v, du, dv, ddu, ddv)
            by_r, by_kappa = _verdicts(r, kappa, target)
            bad += by_r != by_kappa
            total += 1
            if i < _TWINS_PER_SURFACE:
                # the residual is linear in ddv, with slope G*du/speed^3
                ddv_per_r = _speed_sq(g, u, v, du, dv) ** 1.5 / (g * du)
                for r_twin, solves in ((0.0, True), (1e-7, False)):
                    twin = _jet_criteria(g, gu, gv, u, v, du, dv, ddu,
                                         ddv + (r_twin - r) * ddv_per_r)
                    bad += _verdicts(*twin) != (solves, solves)
                    total += 1
    # exact solution jets must land on the true side of both criteria
    fam = closed_form_family("euclidean", mu=1.0, nu=0.0)
    evaluate = catalog_surface("plane").patch.evaluate
    for t_val in np.linspace(-2.0, 2.0, 100).tolist():
        u = fam.value(t_val)
        g, gu, gv = evaluate(u, t_val)
        jet = _jet_criteria(g, gu, gv, u, t_val, fam.d1(t_val), 1.0, fam.d2(t_val), 0.0)
        bad += _verdicts(*jet) != (True, True)
        total += 1
    out.append(CheckResult("criterion_equivalence", bad == 0, float(bad), 1.0,
                           f"{bad} disagreements out of {total} jets"))

    sphere = catalog_surface("sphere")
    tr = trace_catenary(sphere, 0.0, CatenaryState(0.7, 0.0, 1.0), s_max=5.0,
                        tol=1e-9, max_step=0.05)
    worst_kappa = max(abs(s.kappa) for s in tr.samples)
    out.append(_result("geodesic_kappa[alpha=0]", worst_kappa, 1e-8))

    oracle = conformal_geodesic(sphere, 0.0, CatenaryState(0.7, 0.0, 1.0), 3.0)
    out.append(_result("geodesic_vs_conformal[alpha=0]", _oracle_gap(oracle, tr, 3.0),
                       THRESHOLDS["cross_oracle"]))
    return out


def check_isometry() -> list[CheckResult]:
    """Criterion 10: isometric surfaces produce bit-identical traces."""
    start = CatenaryState(1.0, 0.0, 0.8)
    helicoid = catalog_surface("helicoid")
    catenoid = catalog_surface("catenoid")
    binormal = catalog_surface("binormal", tau=1.0)
    t_h = trace_catenary(helicoid, 1.0, start, s_max=5.0, tol=1e-9)
    t_c = trace_catenary(catenoid, 1.0, start, s_max=5.0, tol=1e-9)
    t_b = trace_catenary(binormal, 1.0, start, s_max=5.0, tol=1e-9)
    same_hc = t_h.samples == t_c.samples
    same_hb = t_h.samples == t_b.samples
    return [
        CheckResult("isometry[helicoid=catenoid]", same_hc, float(len(t_h.samples)),
                    0.0, "sample-identical" if same_hc else "samples differ"),
        CheckResult("isometry[binormal(tau=1)=helicoid]", same_hb,
                    float(len(t_b.samples)), 0.0,
                    "sample-identical" if same_hb else "samples differ"),
    ]


_CHECKS = (
    "closed_form_residuals", "trace_vs_closed_forms", "sphere_critical_parallel",
    "clairaut_conservation", "sphere_oscillation", "stability_dynamics",
    "catenoid_escape", "triple_oracle", "criterion_equivalence", "isometry",
)


def run_all(timings: dict | None = None) -> list[CheckResult]:
    """Run the full suite in a fixed order.

    Given a ``timings`` dict, stores each check's wall time in seconds
    there, keyed by the check's name without its ``check_`` prefix.
    """
    results: list[CheckResult] = []
    for name in _CHECKS:
        t0 = time.perf_counter()
        # looked up per call, so that wrappers set on this module's
        # check_* attributes (perfbench's tracer) see the calls
        results += globals()[f"check_{name}"]()
        if timings is not None:
            timings[name] = time.perf_counter() - t0
    return results
