"""Initial-value tracing of weighted critical curves.

Two independent formulations are provided:

* ``trace_catenary`` integrates the unit-speed tangent-angle flow

      du/ds = cos(phi),  dv/ds = sin(phi)/G,
      dphi/ds = -sin(phi) * (alpha/u + G_u/G),

  which keeps unit speed structurally and has no singular turning points.

* ``trace_graph`` integrates the second-order graph equation u = u(v),

      u'' = [(alpha*G/u)*(u'^2 + G^2) + G_v*u' + 2*G_u*u'^2 + G^2*G_u] / G,

  valid away from points where the curve turns vertical.

Both use an embedded Dormand-Prince 5(4) pair with PI step-size control and
its own fourth-order continuous extension on accepted steps (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.6), which only this module reads: ``Trace.at``
and the queries beside it (``find_turnings``, ``v_at_u``, ``u_of_v``).  A
trace ends after at most ``MAX_STEPS`` steps.  The events (domain margins,
blow-up, |dphi/ds| and vertical tangents) are bounds that one chained
comparison checks at every accepted step end.  Every root, a failing bound's
included, is found by one safeguarded Illinois iteration, ``_root``, on the
step's quartic.  The metric kernel is called
once per stage, behind an inline copy of ``MetricPatch.evaluate``'s checks,
and never per sample: the right-hand side returns the metric it read, and a
step-end sample reuses the step's last (first-same-as-last) stage.  A point
that fails the checks goes to ``evaluate``, so its error is the patch's own.
Runtime exits are reported through ``Trace.termination``, never as
exceptions; float arithmetic that overflows where no step can avoid it raises
ConfigError.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from . import _MODULES
from .curvature import _kappa_residual
from .errors import (CatenaryError, ConfigError, DomainError, _instance, _pair, _positive,
                     check_finite)
from .surfaces import SurfaceSpec

__all__ = _MODULES["tracing"].split()

TERMINATIONS = ("reached_smax", "hit_lower_u", "blow_up", "left_domain", "step_underflow",
                "max_steps")

TOL_MIN, TOL_MAX = 1e-12, 1e-3

# distance inside the u-range at which "hit_lower_u" and "left_domain" fire
LOWER_MARGIN = 1e-9

# "blow_up" fires once |dphi/ds| > DPHI_LIMIT (flow) or u > BLOWUP_FACTOR * u0
DPHI_LIMIT = 1e12
BLOWUP_FACTOR = 1e6

# "max_steps" fires after MAX_STEPS passes of the step loop, accepted or rejected
MAX_STEPS = 100_000

# a stage that raises one of these (domain guard, overflow) rejects the step
_STAGE_ERRORS = (CatenaryError, ArithmeticError, ValueError)


class CatenaryState(NamedTuple):
    """Start of a unit-speed trace: position (u, v) and tangent angle phi.

    phi is measured from the meridian direction d/du toward d/dv, so the
    implied velocity (cos(phi), sin(phi)/G) always has unit ds-norm.
    """

    u: float
    v: float
    phi: float


class TraceSample(NamedTuple):
    s: float
    u: float
    v: float
    phi: float
    kappa: float
    residual: float


class Trace:
    """Result of a trace: per-step samples, diagnostics and the exit reason.

    ``mode`` is "arclength" (samples parametrized by s) or "graph"
    (integrated over v; s is the accumulated unweighted arc length).
    ``at(t)`` evaluates the dense output at a parameter value (s for
    arclength mode, v for graph mode).
    """

    def __init__(self, spec: SurfaceSpec, alpha: float, samples: list[TraceSample],
                 termination: str, stats: dict, mode: str = "arclength",
                 _segments: list | None = None, _t_final: float = 0.0):
        self.spec, self.alpha, self.samples = spec, alpha, samples
        self.termination, self.stats, self.mode = termination, stats, mode
        self._segments = [] if _segments is None else _segments
        self._t_final = _t_final
        self._starts = [seg[0] for seg in self._segments]

    def at(self, t: float) -> tuple[float, ...]:
        """Dense output of the integrated state at parameter t: DOPRI5's quartic on its step.

        t is clamped to the traced range; NaN or a non-number raises
        ConfigError.  The segment holding t is found by
        bisection over segment starts built once per trace, so a lookup
        costs O(log n) in the number of steps.
        """
        if not self._segments:
            raise ConfigError("the trace took no step, so it has no dense output")
        t0, t1 = self._starts[0], self._t_final
        try:
            if not t0 <= t <= t1:
                if not (t < t0 or t > t1):  # NaN, reported as a non-number
                    raise TypeError
                t = t0 if t < t0 else t1
        except TypeError:
            raise ConfigError(f"t={t!r} is not a number") from None
        return _dense(self._segments[bisect_right(self._starts, t) - 1], t)


def _crossing(gap, a, b, ga, gb):
    """Parameter in [a, b] where ``gap`` turns from > 0 to <= 0, to 1e-13; ga, gb at a, b."""
    a, b = _root(gap, a, b, ga, gb, 1e-13)
    return 0.5 * (a + b)


def find_turnings(trace: Trace) -> list[float]:
    """Arc-length values where du/ds = cos(phi), stored at each step end, changes sign;
    the last interval ends at the final sample, where an event may have cut it short."""
    out = []
    segments, ts = trace._segments, trace._starts + [trace._t_final]
    # cos of a finite double is never exactly 0, so a sign change is all there is
    cs = [seg[2][0] for seg in segments] + [math.cos(trace.samples[-1].phi)]
    for i, seg in enumerate(segments):
        if (cs[i] < 0.0) != (cs[i + 1] < 0.0):
            sign = -1.0 if cs[i] < 0.0 else 1.0
            out.append(_crossing(lambda t: sign * math.cos(_dense(seg, t)[2]),
                                 ts[i], ts[i + 1], sign * cs[i], sign * cs[i + 1]))
    return out


def v_at_u(trace: Trace, u_target: float, s_hi: float) -> float:
    """v where a monotone-in-u stretch of the trace first reaches u_target."""
    s_lo = trace.samples[0].s
    u_lo, u_hi = trace.at(s_lo)[0], trace.at(s_hi)[0]
    sign = 1.0 if u_hi > u_lo else -1.0
    s = _crossing(lambda t: sign * (u_target - trace.at(t)[0]), s_lo, s_hi,
                  sign * (u_target - u_lo), sign * (u_target - u_hi))
    return trace.at(s)[1]


def u_of_v(trace: Trace, v_target: float) -> float:
    """u at a given v along a trace with strictly monotone v(s)."""
    first, last = trace.samples[0], trace.samples[-1]
    s = _crossing(lambda t: v_target - trace.at(t)[1], first.s, last.s,
                  v_target - first.v, v_target - last.v)
    return trace.at(s)[0]


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
_MIN_FAC = 1.0 / 10.0  # at most tenfold growth per step


# DOPRI5's dense-output weights: each step keeps h * sum(d_i k_i), Hairer's rcont5
_D = (-12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
      701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)


def _dense(seg, t):
    """The step's continuous extension at t (Hairer's CONTD5): a quartic in t that
    matches the state and its derivative at both ends."""
    t0, (ya, yb, yc), f0, t1, (za, zb, zc), f1, (ra, rb, rc) = seg
    h = t1 - t0
    x = (t - t0) / h
    x1 = 1.0 - x
    da, db, dc = za - ya, zb - yb, zc - yc
    ba, bb, bc = h * f0[0] - da, h * f0[1] - db, h * f0[2] - dc
    return (ya + x * (da + x1 * (ba + x * (da - h * f1[0] - ba + x1 * ra))),
            yb + x * (db + x1 * (bb + x * (db - h * f1[1] - bb + x1 * rb))),
            yc + x * (dc + x1 * (bc + x * (dc - h * f1[2] - bc + x1 * rc))))


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


class _Bounds(NamedTuple):
    """Open limits a trace stays inside, checked at every step end; ``_gap`` reads them.

    u = y[0] stays above u_lo and below u_hi and blow_up.  v stays within
    (v_lo, v_hi): v is y[1] in arc-length mode and the parameter t in graph
    mode.  ``rate`` bounds |dphi/ds| = |f(t, y)[2]| in arc-length mode and the
    slope |du/dv| = |y[1]| in graph mode.  An infinite limit never fails.
    """

    u_lo: float
    u_hi: float
    v_lo: float
    v_hi: float
    blow_up: float
    rate: float
    graph: bool


# (termination, flag) of each limit of _Bounds in its order, which breaks
# ties; ``rate`` has one pair per mode
_EXITS = (("hit_lower_u", None),) + (("left_domain", None),) * 3 + (("blow_up", None),)
_RATE_EXITS = {False: ("blow_up", None), True: ("left_domain", "vertical_tangent")}


def _gap(b: _Bounds, i: int, t: float, y: tuple, fy: tuple | None) -> float:
    """How far (t, y) lies inside limit i of b: <= 0 fails, NaN holds; fy = f(t, y) or None."""
    if i == 5:
        return b.rate - abs(y[1] if b.graph else fy[2])
    v = t if b.graph else y[1]
    return (y[0] - b.u_lo, b.u_hi - y[0], v - b.v_lo, b.v_hi - v, b.blow_up - y[0])[i]


def _first_exit(f, b: _Bounds, seg: tuple):
    """(t_star, termination, flag, calls) of the earliest limit failing at seg's end, or None.

    Each failing limit is located by ``_root`` on the step's quartic to 1e-12
    relative; t_star is the failing end of the final bracket.  calls counts f
    at dense points (where a raising f lies past the |dphi/ds| limit).
    """
    t0, y0, f0, t1, y1, f1, _ = seg
    calls = 0

    def gap(i, t):
        nonlocal calls
        y = _dense(seg, t)
        if i < 5 or b.graph:
            return _gap(b, i, t, y, None)
        calls += 1
        try:
            return _gap(b, i, t, y, f(t, y))
        except _STAGE_ERRORS:
            return -math.inf

    hits = [(_root(lambda t: gap(i, t), t0, t1, _gap(b, i, t0, y0, f0), g1, 1e-12)[1], i)
            for i in range(6) if (g1 := _gap(b, i, t1, y1, f1)) <= 0.0]
    if not hits:
        return None
    t_star, i = min(hits)
    return (t_star, *(_EXITS[i] if i < 5 else _RATE_EXITS[b.graph]), calls)


def _root(gap, a, b, ga, gb, rtol):
    """Final bracket (a, b), b - a <= rtol * max(1, |b|), of where ``gap`` turns from > 0
    at a (NaN holds) to <= 0 at b; ga, gb are its values there.  Illinois false position
    (Dowell & Jarratt, BIT 11, 1971), bisecting when a value is not finite or the last two
    steps did not cut the bracket below half."""
    kept = 0  # the end the last step kept: 1 for a, -1 for b
    w1 = w2 = math.inf  # the widths one and two steps ago
    while (w := b - a) > rtol * max(1.0, abs(b)):
        t = a + w * (ga / (ga - gb))
        if not a < t < b or w + w >= w2:  # a NaN or infinite value gives no t in (a, b)
            t = 0.5 * (a + b)
        w2, w1 = w1, w
        g = gap(t)
        if g <= 0.0:
            b, gb, ga, kept = t, g, (0.5 * ga if kept == 1 else ga), 1
        else:
            a, ga, gb, kept = t, g, (0.5 * gb if kept == -1 else gb), -1
    return a, b


def _drive(f, t0, y0, f0, t_end, tol, max_step, bounds: _Bounds):
    """Adaptive RK5(4) from t0 to t_end, ending early where a limit of ``bounds`` fails.

    The right-hand side ``f(t, y)`` returns (dy0, dy1, dy2, m): the derivative
    of the 3-state y and, in the slot m, whatever the caller wants kept with
    it (the tracers put the metric (G, G_u, G_v) they read at y there).
    ``_drive`` never looks at m; it keeps the whole tuple as the derivative of
    each step end, in the segments and in f_final, so a sample there needs no
    new evaluation.  f0 = f(t0, y0) follows the same contract.

    ``rhs_evals`` counts f0 = f(t0, y0) (from the caller), the initial-step
    probe, the calls that locate a |dphi/ds| exit and the derivative at an
    event exit.  Returns (segments, termination, flag, stats, t_final,
    y_final, f_final), where f_final is the derivative at the final point;
    every exit but "max_steps" (the loop's MAX_STEPS passes used up) leaves
    the loop by ``break``, and the return is built once.
    One chained comparison checks each accepted step end against every
    limit; ``_first_exit`` runs only where it fails.  When a limit fails
    inside a step the full segment is kept for dense output and
    (t_final, y_final) is the located event point.  A segment is (t, y, f, t_new,
    y_new, f_new, r): r is the row the step adds for ``_dense``.  Stage failures inside
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
    d1, d3, d4, d5, d6, d7 = _D
    c2, c3, c4, c5 = _C[1:5]
    u_lo, u_hi, v_lo, v_hi, blow_up, rate, graph = bounds
    u_top = min(u_hi, blow_up)
    accepted, rejected, evals = 0, 0, 2
    segments: list = []
    termination, flag = "reached_smax", None

    h = _initial_step(f, t0, y0, f0, t_end - t0, tol, max_step)
    t, y, fy = t0, y0, f0
    facold = 1e-4

    for _ in range(MAX_STEPS):  # a rejected step is a pass too, so the loop always ends
        # h = min(h, max_step, t_end - t); the floor is 1e-14 * max(1, |t|)
        h = max_step if max_step < h else h
        h = t_end - t if t_end - t < h else h
        if not h > 1e-14 * (t if t > 1.0 else -t if t < -1.0 else 1.0):
            termination = "step_underflow"
            break
        ya, yb, yc = y
        k1a, k1b, k1c, _ = fy
        try:
            k2a, k2b, k2c, _ = f(t + c2 * h, (ya + h * (0.0 + a21 * k1a),
                                              yb + h * (0.0 + a21 * k1b),
                                              yc + h * (0.0 + a21 * k1c)))
            k3a, k3b, k3c, _ = f(t + c3 * h, (ya + h * (0.0 + a31 * k1a + a32 * k2a),
                                              yb + h * (0.0 + a31 * k1b + a32 * k2b),
                                              yc + h * (0.0 + a31 * k1c + a32 * k2c)))
            k4a, k4b, k4c, _ = f(t + c4 * h, (
                ya + h * (0.0 + a41 * k1a + a42 * k2a + a43 * k3a),
                yb + h * (0.0 + a41 * k1b + a42 * k2b + a43 * k3b),
                yc + h * (0.0 + a41 * k1c + a42 * k2c + a43 * k3c)))
            k5a, k5b, k5c, _ = f(t + c5 * h, (
                ya + h * (0.0 + a51 * k1a + a52 * k2a + a53 * k3a + a54 * k4a),
                yb + h * (0.0 + a51 * k1b + a52 * k2b + a53 * k3b + a54 * k4b),
                yc + h * (0.0 + a51 * k1c + a52 * k2c + a53 * k3c + a54 * k4c)))
            k6a, k6b, k6c, _ = f(t + h, (
                ya + h * (0.0 + a61 * k1a + a62 * k2a + a63 * k3a + a64 * k4a + a65 * k5a),
                yb + h * (0.0 + a61 * k1b + a62 * k2b + a63 * k3b + a64 * k4b + a65 * k5b),
                yc + h * (0.0 + a61 * k1c + a62 * k2c + a63 * k3c + a64 * k4c + a65 * k5c)))
            y_new = na, nb, nc = (
                ya + h * (0.0 + b1 * k1a + b2 * k2a + b3 * k3a + b4 * k4a + b5 * k5a + b6 * k6a),
                yb + h * (0.0 + b1 * k1b + b2 * k2b + b3 * k3b + b4 * k4b + b5 * k5b + b6 * k6b),
                yc + h * (0.0 + b1 * k1c + b2 * k2c + b3 * k3c + b4 * k4c + b5 * k5c + b6 * k6c))
            f_new = k7a, k7b, k7c, _ = f(t + h, y_new)
            evals += 6
        except _STAGE_ERRORS:
            # a stage left the metric's domain or overflowed: shrink and retry
            rejected += 1
            h *= 0.5
            continue

        ea = h * (0.0 + e1 * k1a + e2 * k2a + e3 * k3a + e4 * k4a + e5 * k5a + e6 * k6a + e7 * k7a)
        eb = h * (0.0 + e1 * k1b + e2 * k2b + e3 * k3b + e4 * k4b + e5 * k5b + e6 * k6b + e7 * k7b)
        ec = h * (0.0 + e1 * k1c + e2 * k2c + e3 * k3c + e4 * k4c + e5 * k5c + e6 * k6c + e7 * k7c)
        # RMS of the error, each component scaled by tol * (1 + max(|y|, |y_new|));
        # "t if t > s else s" gives what max(s, t) gives, NaNs included, without a call
        sa, sb, sc, ta, tb, tc = abs(ya), abs(yb), abs(yc), abs(na), abs(nb), abs(nc)
        err = math.sqrt(((ea / (tol + tol * (ta if ta > sa else sa))) ** 2
                         + (eb / (tol + tol * (tb if tb > sb else sb))) ** 2
                         + (ec / (tol + tol * (tc if tc > sc else sc))) ** 2) / 3)

        if not err <= 1.0:
            rejected += 1
            h /= min(_MAX_SHRINK, err ** _EXPO / _SAFETY)
            continue

        accepted += 1
        t_new = t_end if h >= t_end - t else t + h  # a step clipped to t_end ends there
        seg = (t, y, fy, t_new, y_new, f_new,
               (h * (0.0 + d1 * k1a + d3 * k3a + d4 * k4a + d5 * k5a + d6 * k6a + d7 * k7a),
                h * (0.0 + d1 * k1b + d3 * k3b + d4 * k4b + d5 * k5b + d6 * k6b + d7 * k7b),
                h * (0.0 + d1 * k1c + d3 * k3c + d4 * k4c + d5 * k5c + d6 * k6c + d7 * k7c)))
        segments.append(seg)

        # passing this comparison proves every gap of _gap positive
        if graph:
            inside = u_lo < na < u_top and v_lo < t_new < v_hi and -rate < nb < rate
        else:
            inside = u_lo < na < u_top and v_lo < nb < v_hi and -rate < k7c < rate
        if not inside:
            hit = _first_exit(f, bounds, seg)
            if hit is not None:
                t, termination, flag, calls = hit
                y = _dense(seg, t)
                fy = f(t, y)
                evals += calls + 1
                break

        t, y, fy = t_new, y_new, f_new
        if t >= t_end:
            break

        # max(_MIN_FAC, min(_MAX_SHRINK, fac)) and max(err, 1e-4)
        fac = err ** _EXPO / facold ** _BETA / _SAFETY
        fac = (fac if fac > _MIN_FAC else _MIN_FAC) if fac < _MAX_SHRINK else _MAX_SHRINK
        facold = 1e-4 if 1e-4 > err else err
        h /= fac
    else:
        termination = "max_steps"

    stats = {"steps_accepted": accepted, "steps_rejected": rejected, "rhs_evals": evals}
    return segments, termination, flag, stats, t, y, fy


# --------------------------------------------------------------------------
# tangent-angle flow
# --------------------------------------------------------------------------

# the metric the right-hand sides take for a point outside the domain
_OUT = (0.0, 0.0, 0.0)


def _flow_f(spec: SurfaceSpec, alpha: float):
    metric, evaluate = spec.patch.metric, spec.patch.evaluate
    u_min, u_max, v_min, v_max = spec.domain

    def f(t, y):
        u, v, phi = y
        # MetricPatch.evaluate's checks, inline: a point that fails them gets
        # g = 0.0 and goes to evaluate, which raises its error
        try:
            g, gu, _ = m = metric(u, v) if u_min < u < u_max and v_min < v < v_max else _OUT
        except (ArithmeticError, ValueError):
            g = 0.0
        if not g > 0.0:
            g, gu, _ = m = evaluate(u, v)
        sin_phi = math.sin(phi)
        return (math.cos(phi), sin_phi / g, -sin_phi * (alpha / u + gu / g), m)

    return f


def _flow_sample(alpha: float, t: float, y: tuple, fy: tuple) -> TraceSample:
    u, v, phi = y
    du, dv, dphi, (g, gu, gv) = fy
    sin_phi = math.sin(phi)
    ddu = -sin_phi * dphi
    ddv = (du * dphi) / g - sin_phi * (gu * du + gv * dv) / (g * g)
    kappa, residual = _kappa_residual(alpha, g, gu, gv, u, v, du, dv, ddu, ddv)
    return TraceSample(t, u, v, phi, kappa, residual)


def _check_config(tol: float, max_step: float, finite: dict) -> None:
    """ConfigError unless tol is a number in [TOL_MIN, TOL_MAX], max_step > 0 and every
    value of ``finite`` is finite."""
    check_finite(tol=tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ConfigError(f"tol={tol!r} outside [{TOL_MIN}, {TOL_MAX}]")
    _positive("max_step", max_step)
    check_finite(**finite)


def _sampled_trace(spec, alpha, f, sample, t0, y0, t_end, tol, max_step, bounds,
                   mode) -> Trace:
    """Drive f from (t0, y0); sample the start, every step end and the exit point.

    Each sample is handed the derivative the drive already holds there, with
    the metric in its last slot.  An ArithmeticError of the drive or of a
    sample (float range exceeded) raises ConfigError.
    """
    try:
        f0 = f(t0, y0)
        segments, termination, flag, stats, t_final, y_final, f_final = _drive(
            f, t0, y0, f0, t_end, tol, max_step, bounds
        )
        samples = [sample(alpha, t0, y0, f0)]
        samples += [sample(alpha, t, y, fy) for _, _, _, t, y, fy, _ in segments[:-1]]
        if segments:
            samples.append(sample(alpha, t_final, y_final, f_final))
    except ArithmeticError as exc:
        raise ConfigError(f"{mode} trace from {y0!r} at {t0!r} with alpha={alpha!r} on "
                          f"{spec.identifier} leaves the float range: {exc!r}") from exc
    residuals = [abs(smp.residual) for smp in samples]
    # max() keeps a finite first value over a later NaN
    stats["max_residual"] = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    if flag:
        stats[flag] = True
    return Trace(spec=spec, alpha=alpha, samples=samples, termination=termination,
                 stats=stats, mode=mode, _segments=segments, _t_final=t_final)


def _bounds(spec: SurfaceSpec, u0: float, v0: float, rate: float, graph: bool) -> _Bounds:
    """Limits of a trace that starts at (u0, v0); ``rate`` and ``graph`` as in _Bounds.

    The domain limits sit a margin inside the domain's edges.  Raises
    DomainError unless the start lies strictly inside the domain and above
    the "hit_lower_u" margin.
    """
    dom = _instance("spec", spec, SurfaceSpec).domain
    if not dom.contains(u0, v0) or u0 <= dom.u_min + LOWER_MARGIN:
        raise DomainError(f"start (u={u0!r}, v={v0!r}) not strictly inside {tuple(dom)}")
    v_lo = dom.v_min + 1e-9 * (1.0 + abs(dom.v_min)) if math.isfinite(dom.v_min) else -math.inf
    v_hi = dom.v_max - 1e-9 * (1.0 + abs(dom.v_max)) if math.isfinite(dom.v_max) else math.inf
    return _Bounds(dom.u_min + LOWER_MARGIN, dom.u_max - LOWER_MARGIN, v_lo, v_hi,
                   BLOWUP_FACTOR * u0, rate, graph)


def trace_catenary(spec: SurfaceSpec, alpha: float, start: CatenaryState,
                   s_max: float, tol: float = 1e-9, *,
                   max_step: float = math.inf) -> Trace:
    """Trace the weighted critical curve through ``start`` from s = 0 up to s_max.

    Args:
        spec: surface to trace on.
        alpha: exponent of the distance weight (0 gives plain geodesics).
        start: initial (u, v, phi); u must be strictly inside the domain.
        s_max: arc length, finite and > 0, at which to stop if no event fires
            first.
        tol: per-step error tolerance, a number within [1e-12, 1e-3].
        max_step: cap on the step size, > 0.  The default inf leaves the step
            to the error control, which already holds every step to ``tol``.
            A smaller cap buys more samples with proportionally more steps,
            each costing six metric evaluations; the dense output
            (``Trace.at``) is DOPRI5's own, fourth-order at any step size.

    Returns:
        A Trace with one sample per accepted step (kappa and the normalized
        residual recorded at each), a termination reason and step statistics.
        It ends on "blow_up" once u exceeds ``BLOWUP_FACTOR`` * u0 or
        |dphi/ds| exceeds ``DPHI_LIMIT``, and on "max_steps" after
        ``MAX_STEPS`` accepted and rejected steps.

    Raises:
        ConfigError for bad options, and where float arithmetic overflows
        or divides by an underflowed zero (alpha = 1e200 on the plane, say);
        DomainError for a start outside the domain.
    """
    start = _instance("start", start, CatenaryState)
    _check_config(tol, max_step, {"alpha": alpha, "start.u": start.u, "start.v": start.v,
                                  "start.phi": start.phi, "s_max": s_max})
    _positive("s_max", s_max)
    bounds = _bounds(spec, start.u, start.v, DPHI_LIMIT, False)
    return _sampled_trace(spec, alpha, _flow_f(spec, alpha), _flow_sample, 0.0,
                          (start.u, start.v, start.phi), s_max, tol, max_step, bounds,
                          "arclength")


# --------------------------------------------------------------------------
# graph formulation u = u(v)
# --------------------------------------------------------------------------

def _graph_f(spec: SurfaceSpec, alpha: float):
    metric, evaluate = spec.patch.metric, spec.patch.evaluate
    u_min, u_max, v_min, v_max = spec.domain

    def f(v, y):
        u, w, _ = y
        # the guard of _flow_f
        try:
            g, gu, gv = m = metric(u, v) if u_min < u < u_max and v_min < v < v_max else _OUT
        except (ArithmeticError, ValueError):
            g = 0.0
        if not g > 0.0:
            g, gu, gv = m = evaluate(u, v)
        ddu = ((alpha * g / u) * (w * w + g * g) + gv * w + 2.0 * gu * w * w
               + g * g * gu) / g
        return (w, ddu, math.sqrt(w * w + g * g), m)

    return f


def _graph_sample(alpha: float, v: float, y: tuple, fy: tuple) -> TraceSample:
    u, w, s = y
    _, ddu, _, (g, gu, gv) = fy
    kappa, residual = _kappa_residual(alpha, g, gu, gv, u, v, w, 1.0, ddu, 0.0)
    phi = math.atan2(g, w)
    return TraceSample(s, u, v, phi, kappa, residual)


def trace_graph(spec: SurfaceSpec, alpha: float, u0: float, du0: float,
                v_span: tuple[float, float], tol: float = 1e-9, *,
                max_step: float = math.inf) -> Trace:
    """Integrate the graph equation u = u(v) over the finite ``v_span``.

    The solver stops with termination "left_domain" and a "vertical_tangent"
    flag in the stats when |du/dv| exceeds 1/tol: past such a point the
    curve continues as a meridian-tangent arc, which is no longer a graph.
    A span past the domain's v-range ends on "left_domain" without the flag,
    1e-9 * (1 + |v_max|) inside v_max; u > BLOWUP_FACTOR * u0 ends it on "blow_up",
    MAX_STEPS steps on "max_steps".
    As in ``trace_catenary``, bad options and float arithmetic that overflows
    raise ConfigError, a start outside the domain DomainError.
    """
    v0, v1 = map(float, _pair("v_span", v_span))
    _check_config(tol, max_step, {"alpha": alpha, "u0": u0, "du0": du0})
    if not v1 > v0:
        raise ConfigError(f"v_span={v_span!r} must be increasing")
    bounds = _bounds(spec, u0, v0, 1.0 / tol, True)
    return _sampled_trace(spec, alpha, _graph_f(spec, alpha), _graph_sample, v0,
                          (float(u0), float(du0), 0.0), v1, tol, max_step, bounds, "graph")
