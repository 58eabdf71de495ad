"""Initial-value tracing of weighted critical curves.

Two independent formulations are provided:

* ``trace_catenary`` integrates the unit-speed tangent-angle flow

      du/ds = cos(phi),  dv/ds = sin(phi)/G,
      dphi/ds = -sin(phi) * (alpha/u + G_u/G),

  which keeps unit speed structurally and has no singular turning points.

* ``trace_graph`` integrates the second-order graph equation u = u(v),

      u'' = [(alpha*G/u)*(u'^2 + G^2) + G_v*u' + 2*G_u*u'^2 + G^2*G_u] / G,

  valid away from points where the curve turns vertical.

Both use an embedded Dormand-Prince 5(4) pair with PI step-size control,
cubic Hermite dense output on accepted steps, and event localization by
bisection.  Runtime exits are reported through ``Trace.termination``, never
as exceptions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .curvature import _kappa_residual
from .errors import CatenaryError, ConfigError, DomainError, check_finite
from .surfaces import SurfaceSpec

__all__ = [
    "CatenaryState",
    "TraceSample",
    "Trace",
    "TERMINATIONS",
    "catenary_rhs",
    "trace_catenary",
    "trace_graph",
]

TERMINATIONS = ("reached_smax", "hit_lower_u", "blow_up", "left_domain", "step_underflow")

TOL_MIN, TOL_MAX = 1e-12, 1e-3

# distance inside the u-range at which "hit_lower_u" and "left_domain" fire
LOWER_MARGIN = 1e-9

# a stage that raises one of these (domain guard, overflow) rejects the step
_STAGE_ERRORS = (CatenaryError, ArithmeticError, ValueError)


@dataclass(frozen=True)
class CatenaryState:
    """Point on a unit-speed trace: position (u, v), tangent angle phi, arc length s.

    phi is measured from the meridian direction d/du toward d/dv, so the
    implied velocity (cos(phi), sin(phi)/G) always has unit ds-norm.
    """

    u: float
    v: float
    phi: float
    s: float = 0.0


class TraceSample(NamedTuple):
    s: float
    u: float
    v: float
    phi: float
    kappa: float
    residual: float


@dataclass
class Trace:
    """Result of a trace: per-step samples, diagnostics and the exit reason.

    ``mode`` is "arclength" (samples parametrized by s) or "graph"
    (integrated over v; s is the accumulated unweighted arc length).
    ``at(t)`` evaluates the dense output at a parameter value (s for
    arclength mode, v for graph mode).
    """

    spec: SurfaceSpec
    alpha: float
    samples: list[TraceSample]
    termination: str
    stats: dict
    mode: str = "arclength"
    _segments: list = field(default_factory=list, repr=False)
    _t_final: float = field(default=0.0, repr=False)
    _starts: list = field(init=False, repr=False)

    def __post_init__(self):
        self._starts = [seg[0] for seg in self._segments]

    def at(self, t: float) -> tuple[float, ...]:
        """Cubic-Hermite dense output of the integrated state at parameter t.

        t is clamped to the traced range.  The segment holding t is found by
        bisection over segment starts built once per trace, so a lookup
        costs O(log n) in the number of steps.
        """
        if not self._segments:
            raise ValueError("empty trace has no dense output")
        t = min(max(t, self._starts[0]), self._t_final)
        return _hermite(self._segments[bisect_right(self._starts, t) - 1], t)

    @property
    def s_final(self) -> float:
        return self.samples[-1].s

    @property
    def final_state(self) -> CatenaryState:
        last = self.samples[-1]
        return CatenaryState(u=last.u, v=last.v, phi=last.phi, s=last.s)


# --------------------------------------------------------------------------
# Dormand-Prince 5(4) with PI control
# --------------------------------------------------------------------------

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_MAX_SHRINK = 5.0
_MAX_GROWTH = 10.0


def _hermite(seg, t):
    t0, y0, f0, t1, y1, f1 = seg
    h = t1 - t0
    if h == 0.0:
        return y0
    x = (t - t0) / h
    x2, x3 = x * x, x * x * x
    h00 = 2 * x3 - 3 * x2 + 1
    h01 = -2 * x3 + 3 * x2
    g10 = (x3 - 2 * x2 + x) * h
    g11 = (x3 - x2) * h
    return (h00 * y0[0] + g10 * f0[0] + h01 * y1[0] + g11 * f1[0],
            h00 * y0[1] + g10 * f0[1] + h01 * y1[1] + g11 * f1[1],
            h00 * y0[2] + g10 * f0[2] + h01 * y1[2] + g11 * f1[2])


def _initial_step(f, t0, y0, f0, span, tol, max_step):
    n = len(y0)
    sc = [tol + tol * abs(y0[i]) for i in range(n)]
    d0 = math.sqrt(sum((y0[i] / sc[i]) ** 2 for i in range(n)) / n)
    d1 = math.sqrt(sum((f0[i] / sc[i]) ** 2 for i in range(n)) / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, max_step)
    try:
        y1 = tuple(y0[i] + h0 * f0[i] for i in range(n))
        f1 = f(t0 + h0, y1)
        d2 = math.sqrt(sum(((f1[i] - f0[i]) / sc[i]) ** 2 for i in range(n)) / n) / h0
    except _STAGE_ERRORS:
        d2 = d1
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, span, max_step)


class _Event(NamedTuple):
    termination: str
    flag: str | None
    # g(y, fy) is positive inside and crosses zero at the event; fy is the
    # derivative at y at step ends and None at dense-output points
    g: Callable[[tuple, tuple | None], float]


def _bisect(before, a, b, rtol):
    """Halve [a, b], where ``before`` holds at a and fails at b, to rtol * max(1, |b|)."""
    while (b - a) > rtol * max(1.0, abs(b)):
        mid = 0.5 * (a + b)
        if before(mid):
            a = mid
        else:
            b = mid
    return a, b


def _stats(accepted: int, rejected: int, rhs_evals: int) -> dict:
    return {"steps_accepted": accepted, "steps_rejected": rejected, "rhs_evals": rhs_evals}


def _drive(f, t0, y0, f0, t_end, tol, max_step, events):
    """Adaptive RK5(4) from t0 to t_end with endpoint event detection.

    ``rhs_evals`` counts f0 = f(t0, y0) (from the caller), the initial-step
    probe and the derivative at an event exit, not an event g's own calls.  Returns
    (segments, termination, flag, stats, t_final, y_final, f_final), where
    f_final is the derivative at the final point.  When an event fires
    inside a step the full segment is kept for dense output and
    (t_final, y_final) is the bisected event point.  Stage failures inside
    the domain guard are handled by shrinking the step, so the integration
    only ever ends on t_end, an event, or step underflow.  Both tests on the
    step are written so that a NaN step size or error fails them.

    The state has dimension 3; each stage sum is spelled out in the order
    0 + a1*k1 + a2*k2 + ..., zero coefficients included, because that order
    fixes every rounding and signed zero (tests/test_trace_digest.py pins it).
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A[1:]
    b1, b2, b3, b4, b5, b6 = _B
    e1, e2, e3, e4, e5, e6, e7 = _E
    c2, c3, c4, c5 = _C[1:5]
    accepted, rejected, evals = 0, 0, 2
    segments: list = []

    h = _initial_step(f, t0, y0, f0, t_end - t0, tol, max_step)
    t, y, fy = t0, y0, f0
    facold = 1e-4

    while True:
        h = min(h, max_step, t_end - t)
        if not h > 1e-14 * max(1.0, abs(t)):
            return segments, "step_underflow", None, _stats(accepted, rejected, evals), t, y, fy
        ya, yb, yc = y
        k1a, k1b, k1c = fy
        try:
            k2a, k2b, k2c = f(t + c2 * h, (ya + h * (0.0 + a21 * k1a),
                                           yb + h * (0.0 + a21 * k1b),
                                           yc + h * (0.0 + a21 * k1c)))
            k3a, k3b, k3c = f(t + c3 * h, (ya + h * (0.0 + a31 * k1a + a32 * k2a),
                                           yb + h * (0.0 + a31 * k1b + a32 * k2b),
                                           yc + h * (0.0 + a31 * k1c + a32 * k2c)))
            k4a, k4b, k4c = f(t + c4 * h, (
                ya + h * (0.0 + a41 * k1a + a42 * k2a + a43 * k3a),
                yb + h * (0.0 + a41 * k1b + a42 * k2b + a43 * k3b),
                yc + h * (0.0 + a41 * k1c + a42 * k2c + a43 * k3c)))
            k5a, k5b, k5c = f(t + c5 * h, (
                ya + h * (0.0 + a51 * k1a + a52 * k2a + a53 * k3a + a54 * k4a),
                yb + h * (0.0 + a51 * k1b + a52 * k2b + a53 * k3b + a54 * k4b),
                yc + h * (0.0 + a51 * k1c + a52 * k2c + a53 * k3c + a54 * k4c)))
            k6a, k6b, k6c = f(t + h, (
                ya + h * (0.0 + a61 * k1a + a62 * k2a + a63 * k3a + a64 * k4a + a65 * k5a),
                yb + h * (0.0 + a61 * k1b + a62 * k2b + a63 * k3b + a64 * k4b + a65 * k5b),
                yc + h * (0.0 + a61 * k1c + a62 * k2c + a63 * k3c + a64 * k4c + a65 * k5c)))
            y_new = na, nb, nc = (
                ya + h * (0.0 + b1 * k1a + b2 * k2a + b3 * k3a + b4 * k4a + b5 * k5a + b6 * k6a),
                yb + h * (0.0 + b1 * k1b + b2 * k2b + b3 * k3b + b4 * k4b + b5 * k5b + b6 * k6b),
                yc + h * (0.0 + b1 * k1c + b2 * k2c + b3 * k3c + b4 * k4c + b5 * k5c + b6 * k6c))
            f_new = k7a, k7b, k7c = f(t + h, y_new)
            evals += 6
        except _STAGE_ERRORS:
            # a stage left the metric's domain or overflowed: shrink and retry
            rejected += 1
            h *= 0.5
            continue

        ea = h * (0.0 + e1 * k1a + e2 * k2a + e3 * k3a + e4 * k4a + e5 * k5a + e6 * k6a + e7 * k7a)
        eb = h * (0.0 + e1 * k1b + e2 * k2b + e3 * k3b + e4 * k4b + e5 * k5b + e6 * k6b + e7 * k7b)
        ec = h * (0.0 + e1 * k1c + e2 * k2c + e3 * k3c + e4 * k4c + e5 * k5c + e6 * k6c + e7 * k7c)
        # RMS of the error, each component scaled by tol * (1 + max(|y|, |y_new|))
        err = math.sqrt(((ea / (tol + tol * max(abs(ya), abs(na)))) ** 2
                         + (eb / (tol + tol * max(abs(yb), abs(nb)))) ** 2
                         + (ec / (tol + tol * max(abs(yc), abs(nc)))) ** 2) / 3)

        if not err <= 1.0:
            rejected += 1
            h /= min(_MAX_SHRINK, err ** _EXPO / _SAFETY)
            continue

        accepted += 1
        seg = (t, y, fy, t + h, y_new, f_new)
        segments.append(seg)

        hit = None
        for ev in events:
            if ev.g(y_new, f_new) <= 0.0:
                # g > 0 held at the step start; a NaN g counts as inside.  The
                # event point is b, the first point of the final bracket past it.
                t_star = _bisect(lambda t: not ev.g(_hermite(seg, t), None) <= 0.0,
                                 seg[0], seg[3], 1e-12)[1]
                if hit is None or t_star < hit[0]:
                    hit = (t_star, ev)
        if hit is not None:
            t_star, ev = hit
            y_star = _hermite(seg, t_star)
            return (segments, ev.termination, ev.flag,
                    _stats(accepted, rejected, evals + 1), t_star, y_star,
                    f(t_star, y_star))

        t, y, fy = t + h, y_new, f_new
        if t >= t_end:
            return segments, "reached_smax", None, _stats(accepted, rejected, evals), t, y, fy

        fac = err ** _EXPO / facold ** _BETA / _SAFETY
        fac = max(1.0 / _MAX_GROWTH, min(_MAX_SHRINK, fac))
        facold = max(err, 1e-4)
        h /= fac


# --------------------------------------------------------------------------
# tangent-angle flow
# --------------------------------------------------------------------------

def catenary_rhs(spec: SurfaceSpec, alpha: float,
                 state: CatenaryState) -> tuple[float, float, float]:
    """Unit-speed flow (du/ds, dv/ds, dphi/ds) of the weighted-curve equation.

    Substituting this field into the curve equation gives a zero residual
    identically; meridians (phi = 0) are invariant.
    """
    return _flow_f(spec, alpha)(state.s, (state.u, state.v, state.phi))


def _flow_f(spec: SurfaceSpec, alpha: float):
    evaluate = spec.patch.evaluate

    def f(t, y):
        u, v, phi = y
        g, gu, _ = evaluate(u, v)
        sin_phi = math.sin(phi)
        return (math.cos(phi), sin_phi / g, -sin_phi * (alpha / u + gu / g))

    return f


def _flow_sample(spec: SurfaceSpec, alpha: float, t: float, y: tuple,
                 fy: tuple) -> TraceSample:
    u, v, phi = y
    du, dv, dphi = fy
    g, gu, gv = spec.patch.evaluate(u, v)
    sin_phi = math.sin(phi)
    ddu = -sin_phi * dphi
    ddv = (du * dphi) / g - sin_phi * (gu * du + gv * dv) / (g * g)
    kappa, residual = _kappa_residual(alpha, g, gu, gv, u, v, du, dv, ddu, ddv)
    return TraceSample(t, u, v, phi, kappa, residual)


def _check_config(tol: float, max_step: float, finite: dict) -> None:
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ConfigError(f"tol={tol!r} outside [{TOL_MIN}, {TOL_MAX}]")
    if not max_step > 0.0:
        raise ConfigError(f"max_step={max_step!r} must be positive")
    check_finite(**finite)


def _sampled_trace(spec, alpha, f, sample, t0, y0, t_end, tol, max_step, events,
                   mode) -> Trace:
    """Drive f from (t0, y0); sample the start, every step end and the exit point.

    Each sample is handed the derivative the drive already holds there.
    """
    f0 = f(t0, y0)
    segments, termination, flag, stats, t_final, y_final, f_final = _drive(
        f, t0, y0, f0, t_end, tol, max_step, events
    )
    samples = [sample(spec, alpha, t0, y0, f0)]
    samples += [sample(spec, alpha, seg[3], seg[4], seg[5]) for seg in segments[:-1]]
    if segments:
        samples.append(sample(spec, alpha, t_final, y_final, f_final))
    residuals = [abs(smp.residual) for smp in samples]
    # max() keeps a finite first value over a later NaN
    stats["max_residual"] = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    if flag:
        stats[flag] = True
    return Trace(spec=spec, alpha=alpha, samples=samples, termination=termination,
                 stats=stats, mode=mode, _segments=segments, _t_final=t_final)


def _boundary_events(spec: SurfaceSpec, u0: float, v0: float,
                     blowup_factor: float) -> list[_Event]:
    """Domain-exit and u blow-up events of a trace that starts at (u0, v0).

    Raises DomainError unless the start lies strictly inside the domain and
    above the "hit_lower_u" margin.
    """
    dom = spec.domain
    if not dom.contains(u0, v0) or u0 <= dom.u_min + LOWER_MARGIN:
        raise DomainError(f"start (u={u0!r}, v={v0!r}) not strictly inside {tuple(dom)}")
    events = [
        _Event("hit_lower_u", None, lambda y, fy, m=dom.u_min + LOWER_MARGIN: y[0] - m)
    ]
    if math.isfinite(dom.u_max):
        events.append(
            _Event("left_domain", None, lambda y, fy, m=dom.u_max - LOWER_MARGIN: m - y[0])
        )
    if math.isfinite(dom.v_min):
        vlo = dom.v_min + 1e-9 * (1.0 + abs(dom.v_min))
        events.append(_Event("left_domain", None, lambda y, fy, m=vlo: y[1] - m))
    if math.isfinite(dom.v_max):
        vhi = dom.v_max - 1e-9 * (1.0 + abs(dom.v_max))
        events.append(_Event("left_domain", None, lambda y, fy, m=vhi: m - y[1]))
    events.append(_Event("blow_up", None, lambda y, fy, m=blowup_factor * u0: m - y[0]))
    return events


def trace_catenary(spec: SurfaceSpec, alpha: float, start: CatenaryState,
                   s_max: float, tol: float = 1e-9, *,
                   max_step: float = math.inf,
                   blowup_factor: float = 1e6,
                   dphi_limit: float = 1e12) -> Trace:
    """Trace the weighted critical curve through ``start`` up to arc length s_max.

    Args:
        spec: surface to trace on.
        alpha: exponent of the distance weight (0 gives plain geodesics).
        start: initial (u, v, phi, s); u must be strictly inside the domain.
        s_max: arc length, finite and > 0, at which to stop if no event fires
            first.
        tol: per-step error tolerance, within [1e-12, 1e-3].
        max_step: cap on the step size, > 0.  The default inf leaves the step
            to the error control, which already holds every step to ``tol``.
            A smaller cap buys more samples and a more accurate cubic-Hermite
            dense output (``Trace.at``) with proportionally more steps, each
            costing seven metric evaluations.
        blowup_factor: terminate with "blow_up" once u > blowup_factor * u0.
        dphi_limit: terminate with "blow_up" once |dphi/ds| exceeds this.

    Returns:
        A Trace with one sample per accepted step (kappa and the normalized
        residual recorded at each), a termination reason and step statistics.
    """
    _check_config(tol, max_step, {"alpha": alpha, "start.u": start.u, "start.v": start.v,
                                  "start.phi": start.phi, "start.s": start.s,
                                  "s_max": s_max, "blowup_factor": blowup_factor,
                                  "dphi_limit": dphi_limit})
    if not s_max > 0.0:
        raise ConfigError(f"s_max={s_max!r} must be positive")
    events = _boundary_events(spec, start.u, start.v, blowup_factor)
    f = _flow_f(spec, alpha)
    dense_rhs_evals = 0

    def g_dphi(y, fy, lim=dphi_limit):
        nonlocal dense_rhs_evals
        if fy is None:
            dense_rhs_evals += 1
            try:
                fy = f(0.0, y)
            except _STAGE_ERRORS:
                return -1.0
        return lim - abs(fy[2])

    events.append(_Event("blow_up", None, g_dphi))

    trace = _sampled_trace(spec, alpha, f, _flow_sample, start.s,
                           (start.u, start.v, start.phi), start.s + s_max, tol,
                           max_step, events, "arclength")
    trace.stats["rhs_evals"] += dense_rhs_evals
    return trace


# --------------------------------------------------------------------------
# graph formulation u = u(v)
# --------------------------------------------------------------------------

def _graph_f(spec: SurfaceSpec, alpha: float):
    evaluate = spec.patch.evaluate

    def f(v, y):
        u, w, _ = y
        g, gu, gv = evaluate(u, v)
        ddu = ((alpha * g / u) * (w * w + g * g) + gv * w + 2.0 * gu * w * w
               + g * g * gu) / g
        return (w, ddu, math.sqrt(w * w + g * g))

    return f


def _graph_sample(spec: SurfaceSpec, alpha: float, v: float, y: tuple,
                  fy: tuple) -> TraceSample:
    u, w, s = y
    g, gu, gv = spec.patch.evaluate(u, v)
    kappa, residual = _kappa_residual(alpha, g, gu, gv, u, v, w, 1.0, fy[1], 0.0)
    phi = math.atan2(g, w)
    return TraceSample(s, u, v, phi, kappa, residual)


def trace_graph(spec: SurfaceSpec, alpha: float, u0: float, du0: float,
                v_span: tuple[float, float], tol: float = 1e-9, *,
                max_step: float = math.inf,
                blowup_factor: float = 1e6) -> Trace:
    """Integrate the graph equation u = u(v) over the finite ``v_span``.

    The solver stops with termination "left_domain" and a "vertical_tangent"
    flag in the stats when |du/dv| exceeds 1/tol: past such a point the
    curve continues as a meridian-tangent arc, which is no longer a graph.
    """
    v0, v1 = float(v_span[0]), float(v_span[1])
    _check_config(tol, max_step, {"alpha": alpha, "u0": u0, "du0": du0,
                                  "v_span[0]": v0, "v_span[1]": v1,
                                  "blowup_factor": blowup_factor})
    if not v1 > v0:
        raise ConfigError(f"v_span={v_span!r} must be increasing")
    events = _boundary_events(spec, u0, v0, blowup_factor)
    f = _graph_f(spec, alpha)
    w_limit = 1.0 / tol
    events.append(
        _Event("left_domain", "vertical_tangent", lambda y, fy, m=w_limit: m - abs(y[1]))
    )

    return _sampled_trace(spec, alpha, f, _graph_sample, v0, (float(u0), float(du0), 0.0),
                          v1, tol, max_step, events, "graph")
