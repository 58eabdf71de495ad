import bisect
import math
import random

import numpy as np
import pytest

from catenary import (
    CatenaryState,
    ConfigError,
    DegenerateMetricError,
    DomainError,
    catalog_surface,
    ruled_surface,
    ruled_surface_from_samples,
    trace_catenary,
    trace_graph,
    turning_points,
)
from catenary import tracing
from catenary.tracing import _Bounds, _flow_f
import test_trace_digest
from oracles import USTAR, conformal_geodesic_oracle

# limits that never fail, for driving a bare right-hand side
_OPEN = _Bounds(-math.inf, math.inf, -math.inf, math.inf, math.inf, math.inf, False)


def dense_u_at_v(trace, v_target):
    # v(s) is strictly increasing along these traces
    a, b = trace.samples[0].s, trace.samples[-1].s
    while (b - a) > 1e-13 * max(1.0, abs(b)):
        mid = 0.5 * (a + b)
        if trace.at(mid)[1] < v_target:
            a = mid
        else:
            b = mid
    return trace.at(0.5 * (a + b))[0]


def test_rhs_meridian_is_invariant():
    for kind in ("plane", "sphere", "catenoid"):
        spec = catalog_surface(kind)
        du, dv, dphi, metric = _flow_f(spec, 1.0)(0.0, 0.8, 0.3, 0.0)
        assert (du, dv, dphi) == (1.0, 0.0, -0.0)
        # the RHS hands back the metric it read at (u, v)
        assert metric == spec.patch.evaluate(0.8, 0.3)


def test_rhs_sphere_critical_parallel_is_fixed_profile():
    sphere = catalog_surface("sphere")
    du, dv, dphi, metric = _flow_f(sphere, 1.0)(0.0, USTAR, 0.0, math.pi / 2)
    assert metric == (math.cos(USTAR), -math.sin(USTAR), 0.0)
    assert abs(du) < 1e-16
    assert dv == pytest.approx(1.0 / math.cos(USTAR), rel=1e-15)
    assert abs(dphi) < 1e-13


def test_rhs_plane_vertex():
    plane = catalog_surface("plane")
    du, dv, dphi, metric = _flow_f(plane, 1.0)(0.0, 1.0, 0.0, math.pi / 2)
    assert metric == (1.0, 0.0, 0.0)
    assert abs(du) < 1e-15
    assert dv == 1.0
    assert dphi == -1.0


def test_plane_trace_follows_cosh():
    plane = catalog_surface("plane")
    tr = trace_catenary(plane, 1.0, CatenaryState(1.0, 0.0, math.pi / 2),
                        s_max=2.0, tol=1e-9, max_step=0.05)
    assert tr.termination == "reached_smax"
    for s in tr.samples:
        assert abs(s.u - math.cosh(s.v)) < 1e-7
        assert abs(s.s - math.sinh(s.v)) < 1e-7  # arc length from the vertex
    # dense output at v = 1
    assert dense_u_at_v(tr, 1.0) == pytest.approx(math.cosh(1.0), abs=1e-7)


def test_sphere_critical_parallel_stays_fixed():
    sphere = catalog_surface("sphere")
    tr = trace_catenary(sphere, 1.0, CatenaryState(USTAR, 0.0, math.pi / 2),
                        s_max=10.0, tol=1e-9)
    assert max(abs(s.u - USTAR) for s in tr.samples) < 1e-6


def test_meridian_trace_is_exactly_coordinate_curve():
    catenoid = catalog_surface("catenoid")
    tr = trace_catenary(catenoid, 1.0, CatenaryState(0.5, 1.25, 0.0), s_max=3.0)
    assert all(s.v == 1.25 for s in tr.samples)
    assert all(s.phi == 0.0 for s in tr.samples)
    assert tr.samples[-1].u == pytest.approx(3.5, rel=1e-12)


def test_unit_speed_identity_along_trace():
    sphere = catalog_surface("sphere")
    tr = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=5.0)
    for s in tr.samples:
        g = sphere.patch.metric(s.u, s.v)[0]
        dv = math.sin(s.phi) / g
        assert abs(math.cos(s.phi) ** 2 + (g * dv) ** 2 - 1.0) < 1e-10


def test_residual_column_within_tolerance_budget():
    for kind in ("sphere", "catenoid", "grusin"):
        spec = catalog_surface(kind)
        tr = trace_catenary(spec, 1.0, CatenaryState(1.0, 0.0, 0.9), s_max=4.0,
                            tol=1e-9)
        assert tr.stats["max_residual"] <= 10e-9
        assert all(abs(s.residual) <= 10e-9 for s in tr.samples)


def test_samples_strictly_increasing_in_s():
    tr = trace_catenary(catalog_surface("sphere"), 1.0,
                        CatenaryState(0.7, 0.0, 1.0), s_max=5.0)
    ss = [s.s for s in tr.samples]
    assert all(b > a for a, b in zip(ss, ss[1:]))


def test_step_clipped_to_s_max_ends_on_it():
    # t + (s_max - t) rounds 1 ulp below s_max here; the step must still end on
    # s_max, not leave a remainder under the step floor
    s_max = 46.95355207644358
    tr = trace_catenary(catalog_surface("plane"), 0.0,
                        CatenaryState(1.1774183870092814, 0.0034968730104802948,
                                      0.4789199413575395), s_max)
    assert tr.termination == "reached_smax"
    assert tr.samples[-1].s == s_max


def test_cross_formulation_agreement():
    # flow trace reparametrized to v against the graph trace, within 10*tol
    tol = 1e-8
    sphere = catalog_surface("sphere")
    flow = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, math.pi / 2),
                          s_max=1.8, tol=tol, max_step=0.02)
    graph = trace_graph(sphere, 1.0, 0.7, 0.0, (0.0, 1.0), tol=tol, max_step=0.02)
    for smp in graph.samples[1:]:
        assert abs(dense_u_at_v(flow, smp.v) - smp.u) < 10.0 * tol


def test_catenoid_blow_up_at_finite_v():
    catenoid = catalog_surface("catenoid")
    tr = trace_catenary(catenoid, 1.0, CatenaryState(1.0, 0.0, math.pi / 4),
                        s_max=3e6, tol=1e-9)
    assert tr.termination == "blow_up"
    assert tr.samples[-1].u == pytest.approx(1e6, rel=1e-6)
    assert 0.3 < tr.samples[-1].v < 0.5  # finite v despite u -> infinity


def test_conformal_geodesic_oracle_agreement():
    # the flow must reproduce geodesics of the conformal metric u^(2a) ds^2
    cases = [
        ("sphere", 1.0, CatenaryState(0.7, 0.0, 1.0)),
        ("catenoid", 1.0, CatenaryState(1.0, 0.0, math.pi / 4)),
        ("grusin", 1.0, CatenaryState(1.0, 0.5, 0.9)),
        ("sphere", 0.0, CatenaryState(0.7, 0.0, 1.0)),
    ]
    for kind, alpha, start in cases:
        spec = catalog_surface(kind)
        tr = trace_catenary(spec, alpha, start, s_max=2.0, tol=1e-9, max_step=0.05)
        oracle = conformal_geodesic_oracle(spec, alpha, start.u, start.v,
                                           start.phi, 2.0)
        worst = 0.0
        for smp in tr.samples:
            ou, ov = oracle(smp.s)
            worst = max(worst, abs(ou - smp.u), abs(ov - smp.v))
        assert worst < 10.0 * 1e-9


def test_alpha_zero_traces_are_geodesics():
    tr = trace_catenary(catalog_surface("catenoid"), 0.0,
                        CatenaryState(1.0, 0.0, 1.1), s_max=6.0, tol=1e-9)
    assert max(abs(s.kappa) for s in tr.samples) < 1e-8


def test_helicoid_catenoid_traces_sample_identical():
    start = CatenaryState(1.0, 0.0, 0.8)
    a = trace_catenary(catalog_surface("helicoid"), 1.0, start, s_max=5.0)
    b = trace_catenary(catalog_surface("catenoid"), 1.0, start, s_max=5.0)
    c = trace_catenary(catalog_surface("binormal", tau=1.0), 1.0, start, s_max=5.0)
    assert a.samples == b.samples
    assert a.samples == c.samples


def test_mirror_symmetry_in_phi():
    sphere = catalog_surface("sphere")
    fwd = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, 0.9), s_max=3.0)
    mir = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, -0.9), s_max=3.0)
    assert len(fwd.samples) == len(mir.samples)
    for f, m in zip(fwd.samples, mir.samples):
        assert f.u == m.u
        assert f.v == -m.v
        assert f.phi == -m.phi


def test_trace_is_deterministic():
    sphere = catalog_surface("sphere")
    a = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=5.0)
    b = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=5.0)
    assert a.samples == b.samples
    assert a.stats == b.stats


def test_trace_input_validation():
    sphere = catalog_surface("sphere")
    good = CatenaryState(0.5, 0.0, 1.0)
    with pytest.raises(ConfigError):
        trace_catenary(sphere, 1.0, good, s_max=1.0, tol=1e-2)
    with pytest.raises(ConfigError):
        trace_catenary(sphere, 1.0, good, s_max=-1.0)
    with pytest.raises(ConfigError):
        trace_catenary(sphere, math.nan, good, s_max=1.0)
    with pytest.raises(DomainError):
        trace_catenary(sphere, 1.0, CatenaryState(0.0, 0.0, 1.0), s_max=1.0)
    with pytest.raises(DomainError):
        trace_catenary(sphere, 1.0, CatenaryState(-0.5, 0.0, 1.0), s_max=1.0)


def test_descending_meridian_hits_reference_curve():
    plane = catalog_surface("plane")
    tr = trace_catenary(plane, 1.0, CatenaryState(1.0, 0.0, math.pi), s_max=5.0)
    assert tr.termination == "hit_lower_u"
    assert tr.samples[-1].u == pytest.approx(1e-9, abs=1e-10)
    assert tr.samples[-1].s == pytest.approx(1.0, abs=1e-8)


def test_sphere_meridian_leaves_domain_at_pole():
    sphere = catalog_surface("sphere")
    tr = trace_catenary(sphere, 1.0, CatenaryState(0.5, 0.0, 0.0), s_max=5.0)
    assert tr.termination == "left_domain"
    assert tr.samples[-1].u == pytest.approx(math.pi / 2, abs=1e-8)


def test_graph_trace_plane():
    plane = catalog_surface("plane")
    tr = trace_graph(plane, 1.0, 1.0, 0.0, (0.0, 2.0), tol=1e-9)
    assert tr.termination == "reached_smax"
    for s in tr.samples:
        assert abs(s.u - math.cosh(s.v)) < 1e-7
    assert tr.samples[-1].v == pytest.approx(2.0, abs=1e-12)
    assert tr.samples[-1].u == pytest.approx(math.cosh(2.0), abs=1e-7)


def test_graph_trace_cone():
    cone = catalog_surface("cone")
    tr = trace_graph(cone, 1.0, 1.0, 0.0, (0.0, 0.9), tol=1e-9)
    for s in tr.samples:
        assert abs(s.u - 1.0 / math.sqrt(math.cos(math.sqrt(2.0) * s.v))) < 1e-6


def test_graph_trace_grusin():
    grusin = catalog_surface("grusin")
    tr = trace_graph(grusin, 1.0, 1.0, 1.0, (0.0, 4.0), tol=1e-9)
    for s in tr.samples:
        assert abs(s.u - math.sqrt(2.0 * s.v + 1.0)) < 1e-6


def test_graph_arc_length_column_matches_flow():
    plane = catalog_surface("plane")
    tr = trace_graph(plane, 1.0, 1.0, 0.0, (0.0, 1.5), tol=1e-10)
    for s in tr.samples:
        assert abs(s.s - math.sinh(s.v)) < 1e-8


def test_graph_vertical_tangent_flag():
    # catenoid graphs blow up at finite v; du/dv crosses 1/tol first
    catenoid = catalog_surface("catenoid")
    tr = trace_graph(catenoid, 1.0, 1.0, math.sqrt(2.0), (0.0, 1.0), tol=1e-9)
    assert tr.termination == "left_domain"
    assert tr.stats.get("vertical_tangent") is True
    assert tr.samples[-1].v < 0.45


def _sampled_ruled():
    vs = [-3.0 + 6.0 * j / 39 for j in range(40)]
    return ruled_surface_from_samples(vs, [0.05 * math.sin(v) for v in vs],
                                      [0.5 + 0.2 * math.cos(2 * v) for v in vs])


def test_graph_slope_is_not_compared_with_the_v_range():
    # v in [-3, 3]: the starting slope 5 lies outside it, yet the trace runs on
    # until its slope really turns vertical
    tr = trace_graph(_sampled_ruled(), 1.0, 1.0, 5.0, (-1.0, 1.0))
    assert tr.termination == "left_domain"
    assert tr.stats.get("vertical_tangent") is True
    assert len(tr.samples) > 400
    assert -0.9 < tr.samples[-1].v < 1.0
    assert abs(tr._segments[-1][4][1]) > 1e9


def test_graph_ends_on_the_v_range_margin():
    # a span past v_max = 3 ends on "left_domain" at the margin, not on step underflow
    tr = trace_graph(_sampled_ruled(), 1.0, 1.0, 0.1, (2.5, 3.5))
    assert tr.termination == "left_domain"
    assert "vertical_tangent" not in tr.stats
    assert abs(tr.samples[-1].v - (3.0 - 1e-9 * 4.0)) < 1e-11


def test_graph_span_validation():
    plane = catalog_surface("plane")
    with pytest.raises(ConfigError):
        trace_graph(plane, 1.0, 1.0, 0.0, (1.0, 0.0))
    with pytest.raises(DomainError):
        trace_graph(plane, 1.0, -1.0, 0.0, (0.0, 1.0))


def test_tangency_exclusion_meridian_never_acquires_v_motion():
    # a trace tangent to a meridian is the meridian
    grusin = catalog_surface("grusin")
    tr = trace_catenary(grusin, 1.0, CatenaryState(2.0, -0.4, 0.0), s_max=2.0)
    assert all(s.v == -0.4 for s in tr.samples)


def test_graph_rhs_reduces_to_helicoid_equation():
    # u(1+u^2)u'' = [2u^2 + a(1+u^2)]u'^2 + (1+2a)u^2 + (1+a)u^4 + a
    from catenary.tracing import _graph_f

    heli = catalog_surface("helicoid")
    rng = np.random.default_rng(21)
    for alpha in (0.5, 1.0, 2.0):
        f = _graph_f(heli, alpha)
        for _ in range(100):
            u, w = float(rng.uniform(0.2, 4.0)), float(rng.normal())
            ddu = f(0.0, u, w, 0.0)[1]
            res = (u * (1 + u * u) * ddu - (2 * u * u + alpha * (1 + u * u)) * w * w
                   - (1 + 2 * alpha) * u * u - (1 + alpha) * u ** 4 - alpha)
            assert abs(res) < 1e-11


def test_graph_rhs_reduces_to_catenoid_equation():
    # alpha = 1: u(1+u^2)u'' = (1+3u^2)u'^2 + 2u^4 + 3u^2 + 1
    from catenary.tracing import _graph_f

    f = _graph_f(catalog_surface("catenoid"), 1.0)
    rng = np.random.default_rng(22)
    for _ in range(100):
        u, w = float(rng.uniform(0.2, 4.0)), float(rng.normal())
        ddu = f(0.0, u, w, 0.0)[1]
        res = u * (1 + u * u) * ddu - (1 + 3 * u * u) * w * w - 2 * u ** 4 \
            - 3 * u * u - 1
        assert abs(res) < 1e-11


def test_graph_rhs_reduces_to_grusin_equation():
    # (u^4/(1 + u^2 u'^2)) * (u''/u + 2u'^2/u^2 + 1/u^4) = alpha
    from catenary.tracing import _graph_f

    grusin = catalog_surface("grusin")
    rng = np.random.default_rng(23)
    for alpha in (0.5, 1.0, 3.0):
        f = _graph_f(grusin, alpha)
        for _ in range(100):
            u, w = float(rng.uniform(0.3, 3.0)), float(rng.normal())
            ddu = f(0.0, u, w, 0.0)[1]
            lhs = (u ** 4 / (1 + u * u * w * w)) * (ddu / u + 2 * w * w / (u * u)
                                                    + 1 / u ** 4)
            assert abs(lhs - alpha) < 1e-12


def test_plane_first_integral_general_alpha():
    # (1 + u'^2) / u^(2 alpha) is conserved along plane graph traces
    plane = catalog_surface("plane")
    for alpha in (0.5, 2.0):
        tr = trace_graph(plane, alpha, 1.0, 0.0, (0.0, 0.7), tol=1e-10)
        vals = []
        for s in tr.samples:
            w = tr.at(s.v)[1]
            vals.append((1.0 + w * w) / s.u ** (2.0 * alpha))
        assert max(vals) - min(vals) < 1e-8


@pytest.mark.parametrize("call", [
    "trace_catenary(catalog_surface('sphere'), 1, CatenaryState(0.7, 0, math.nan), 1.0)",
    "trace_graph(catalog_surface('plane'), 1, 1.0, math.nan, (0, 1))",
    "trace_catenary(catalog_surface('sphere'), 1, CatenaryState(0.7, 0, 1.0), math.inf)",
])
def test_nan_start_is_rejected_without_hanging(call):
    # these calls once looped forever, so each runs in a child with a deadline
    import subprocess
    import sys

    code = ("import math\nfrom catenary import *\n"
            f"try:\n    {call}\nexcept ConfigError as exc:\n    print('ConfigError:', exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ConfigError:")


def test_non_finite_inputs_and_bad_max_step_rejected():
    sphere = catalog_surface("sphere")
    for start in (CatenaryState(0.7, math.inf, 1.0), CatenaryState(0.7, 0.0, -math.inf)):
        with pytest.raises(ConfigError):
            trace_catenary(sphere, 1.0, start, 1.0)
    for max_step in (math.nan, 0.0, -1.0):
        with pytest.raises(ConfigError):
            trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, 1.0), 1.0,
                           max_step=max_step)
        with pytest.raises(ConfigError):
            trace_graph(sphere, 1.0, 0.7, 0.0, (0.0, 1.0), max_step=max_step)
    with pytest.raises(ConfigError):
        trace_graph(sphere, 1.0, 0.7, math.inf, (0.0, 1.0))


def test_nan_step_is_never_accepted():
    # the derivative turns NaN past u = 1.5: _drive must reject those steps
    # and end on step underflow instead of carrying NaN into the trace
    from catenary.tracing import _drive

    def f(t, u, v, phi):
        # the fourth slot stands for the metric read at (u, v, phi)
        return (1.0, 0.0, 0.0, u) if u <= 1.5 else (1.0, 0.0, math.nan, u)

    y0 = (1.0, 0.0, 0.0)
    segments, termination, _, _, _, y_final, f_final = _drive(
        f, 0.0, y0, f(0.0, *y0), 10.0, 1e-9, math.inf, _OPEN)
    assert termination == "step_underflow"
    assert all(math.isfinite(x) for seg in segments for x in seg[4])
    assert 1.5 - 1e-9 < y_final[0] <= 1.5
    # every step end keeps the slot of its own last stage, untouched
    assert all(seg[2][3] == seg[1][0] and seg[5][3] == seg[4][0] for seg in segments)
    assert f_final[3] == y_final[0]


def _counting_kernel(spec):
    """spec with a metric kernel that counts its calls, and the count."""
    calls = [0]
    metric = spec.patch.metric

    def counting(u, v):
        calls[0] += 1
        return metric(u, v)

    return spec._replace(patch=spec.patch._replace(metric=counting)), calls


def test_one_metric_evaluation_per_rhs_call():
    # the step-end dphi event reuses the step's derivative instead of
    # evaluating the metric again, and each sample reads the metric its
    # step's last stage evaluated
    sphere, calls = _counting_kernel(catalog_surface("sphere"))
    tr = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=100.0,
                        max_step=0.02)
    assert tr.termination == "reached_smax"
    assert calls[0] == tr.stats["rhs_evals"] == 30008
    assert len(tr.samples) == 5002


@pytest.mark.parametrize("kind, run, termination, evaluations, samples", [
    # the dphi event is located by _root on the dense output, with one RHS
    # call per probe; the exit point's derivative is one more call
    ("sphere", lambda spec: trace_catenary(spec, 1.0, CatenaryState(1.0, 0.0, 1.2),
                                           s_max=5.0), "blow_up", 89, 14),
    ("cone", lambda spec: trace_graph(spec, 1.0, 1.0, 0.3, (0.0, 1.5)),
     "left_domain", 2925, 488),
], ids=["sphere_dphi", "cone_graph"])
def test_event_exit_counts_every_rhs_call(kind, run, termination, evaluations, samples,
                                          monkeypatch):
    # the |dphi/ds| limit, lowered so that the sphere trace reaches it; graph traces
    # bound |du/dv| by 1/tol instead
    monkeypatch.setattr(tracing, "DPHI_LIMIT", 1.0)
    spec, calls = _counting_kernel(catalog_surface(kind))
    tr = run(spec)
    assert tr.termination == termination
    assert calls[0] == tr.stats["rhs_evals"] == evaluations
    assert len(tr.samples) == samples


def test_dphi_limit_ends_trace_on_blow_up(monkeypatch):
    monkeypatch.setattr(tracing, "DPHI_LIMIT", 1.0)
    sphere = catalog_surface("sphere")
    tr = trace_catenary(sphere, 1.0, CatenaryState(1.0, 0.0, 1.2), s_max=5.0)
    assert tr.termination == "blow_up"
    assert len(tr.samples) == 14
    last = tr.samples[-1]
    assert last.s == 0.40993733481717887
    assert abs(abs(_flow_f(sphere, 1.0)(last.s, last.u, last.v, last.phi)[2]) - 1.0) < 1e-9


@pytest.mark.parametrize("error", [OverflowError, ValueError, ZeroDivisionError])
def test_arithmetic_error_in_stage_halves_the_step(error):
    # a stage past u = 1.5 raises: _drive rejects the step like a domain
    # failure and ends on step underflow instead of leaking the exception
    from catenary.tracing import _drive

    def f(t, u, v, phi):
        if u > 1.5:
            raise error("math range error")
        return (1.0, 0.0, 0.0, u)

    y0 = (1.0, 0.0, 0.0)
    segments, termination, _, stats, _, y_final, f_final = _drive(
        f, 0.0, y0, f(0.0, *y0), 10.0, 1e-9, math.inf, _OPEN)
    assert termination == "step_underflow"
    assert stats["steps_rejected"] > 0
    assert 1.5 - 1e-9 < y_final[0] <= 1.5
    # a failed step leaves no trace: the exit keeps the last accepted stage
    assert f_final == (1.0, 0.0, 0.0, y_final[0]) == segments[-1][5]


def test_initial_step_survives_a_failing_trial_stage():
    # heading straight for u = 0 from u = 2e-9, the initial-step heuristic's trial
    # Euler step lands below u = 0, where the RHS raises: the heuristic falls back
    # on the start's derivative, and the trace ends at the lower edge
    import sys

    raised, code, outer = [], tracing._initial_step.__code__, sys.gettrace()

    def local(frame, event, arg):
        if event == "exception":
            raised.append(arg[0])
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        tr = trace_catenary(catalog_surface("sphere"), 1.0, CatenaryState(2e-9, 0.0, math.pi),
                            1.0)
    finally:
        sys.settrace(outer)
    assert raised and issubclass(raised[0], tracing._STAGE_ERRORS)
    assert tr.termination == "hit_lower_u"
    assert len(tr.samples) == 2


def test_non_finite_start_u_and_limits_raise_config_error():
    sphere = catalog_surface("sphere")
    with pytest.raises(ConfigError, match="must be finite"):
        trace_catenary(sphere, 1.0, CatenaryState(math.inf, 0.0, 1.0), 1.0)
    with pytest.raises(ConfigError, match="must be finite"):
        trace_graph(sphere, 1.0, math.nan, 0.0, (0.0, 1.0))


def test_max_residual_is_nan_when_any_residual_is_nan():
    # G = cosh u overflows when squared from u ~ 495 on, so later samples
    # carry NaN residuals behind finite first ones
    tr = trace_catenary(catalog_surface("hyperbolic"), 1.0, CatenaryState(1.0, 0.0, 0.0),
                        s_max=2000.0)
    assert math.isfinite(tr.samples[0].residual)
    assert any(math.isnan(s.residual) for s in tr.samples)
    assert math.isnan(tr.stats["max_residual"])
    finite = trace_catenary(catalog_surface("sphere"), 1.0, CatenaryState(0.7, 0.0, 1.0),
                            s_max=3.0)
    assert finite.stats["max_residual"] == max(abs(s.residual) for s in finite.samples)


def _failing_at(spec, point, values):
    """spec whose kernel, at exactly ``point``, raises or returns ``values``."""
    metric = spec.patch.metric

    def kernel(u, v):
        if (u, v) != point:
            return metric(u, v)
        if values is None:
            return 1.0 / 0.0
        return values

    return spec._replace(patch=spec.patch._replace(metric=kernel))


def _exit_point():
    # the meridian from u = 1.2 leaves the sphere's domain near the pole
    tr = trace_catenary(catalog_surface("sphere"), 1.0, CatenaryState(1.2, 0.1, 0.0),
                        s_max=4.0)
    assert tr.termination == "left_domain"
    return tr.samples[-1].u, tr.samples[-1].v


_POLE_V = "(1.5707963257948965, 0.1)"


@pytest.mark.parametrize("run, message", [
    # at a start point
    (lambda spec: trace_catenary(spec, 1.0, CatenaryState(1.0, 0.5, 0.3), 1.0),
     "metric of ruled fails at (1.0, 0.5): float division by zero"),
    (lambda spec: trace_graph(spec, 1.0, 1.0, 0.0, (0.5, 1.0)),
     "metric of ruled fails at (1.0, 0.5): float division by zero"),
    (lambda _: trace_catenary(catalog_surface("sphere", extended=True), 1.0,
                              CatenaryState(2.0, 0.0, 0.3), 1.0),
     "G(2.0, 0.0) = -0.4161468365471424 is not positive on sphere"),
    (lambda _: trace_graph(catalog_surface("sphere", extended=True), 1.0, 2.0, 0.0,
                           (0.0, 1.0)),
     "G(2.0, 0.0) = -0.4161468365471424 is not positive on sphere"),
    # at an event exit point, whose derivative is the trace's last metric call
    (lambda _: trace_catenary(_failing_at(catalog_surface("sphere"), _exit_point(), None),
                              1.0, CatenaryState(1.2, 0.1, 0.0), s_max=4.0),
     f"metric of sphere fails at {_POLE_V}: float division by zero"),
    (lambda _: trace_catenary(_failing_at(catalog_surface("sphere"), _exit_point(),
                                          (-1.0, 0.0, 0.0)),
                              1.0, CatenaryState(1.2, 0.1, 0.0), s_max=4.0),
     f"G{_POLE_V} = -1.0 is not positive on sphere"),
], ids=["flow_start_raises", "graph_start_raises", "flow_start_g_negative",
        "graph_start_g_negative", "exit_raises", "exit_g_negative"])
def test_metric_failure_raises_the_error_of_evaluate(run, message):
    # the tracers call the raw kernel behind an inline guard; whatever fails
    # it must still surface as MetricPatch.evaluate's error, never as the
    # kernel's own ZeroDivisionError
    spec = ruled_surface(lambda v: 1.0 / (v - 0.5), lambda v: 1.0,
                         lambda v: -1.0 / (v - 0.5) ** 2, lambda v: 0.0)
    with pytest.raises(DegenerateMetricError) as info:
        run(spec)
    assert str(info.value) == message


@pytest.mark.parametrize("mode", ["arclength", "graph"])
def test_trace_without_a_step_has_no_dense_output(mode):
    # a span under the step floor ends on step_underflow with the start sample
    # alone; at() raised a bare ValueError
    sphere = catalog_surface("sphere")
    if mode == "graph":
        tr = trace_graph(sphere, 1.0, 0.7, 0.0, (0.0, 1e-300))
    else:
        tr = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=1e-300)
    assert (tr.mode, tr.termination, len(tr.samples)) == (mode, "step_underflow", 1)
    with pytest.raises(ConfigError, match="took no step"):
        tr.at(0.0)


@pytest.mark.parametrize("run, start", [
    # (f0 / sc) ** 2 overflows in the initial step estimate
    (lambda: trace_catenary(catalog_surface("plane"), 1e200, CatenaryState(1.0, 0.0, 1.0), 4.0),
     "from (1.0, 0.0, 1.0) at 0.0 with alpha=1e+200 on plane"),
    (lambda: trace_graph(catalog_surface("plane"), 1e200, 1.0, 0.0, (0.0, 1.0)),
     "from (1.0, 0.0, 0.0) at 0.0 with alpha=1e+200 on plane"),
    (lambda: trace_catenary(catalog_surface("sphere"), 1e154, CatenaryState(0.7, 0.0, 1.0), 4.0),
     "from (0.7, 0.0, 1.0) at 0.0 with alpha=1e+154 on sphere"),
    # G = 1e-200, so G * G underflows to zero in the sample's curvature
    (lambda: trace_catenary(catalog_surface("grusin"), 1.0, CatenaryState(1e200, 0.0, 0.0), 4.0),
     "from (1e+200, 0.0, 0.0) at 0.0 with alpha=1.0 on grusin"),
], ids=["flow_plane", "graph_plane", "flow_sphere", "flow_grusin_sample"])
def test_arithmetic_beyond_the_float_range_raises_config_error(run, start):
    with pytest.raises(ConfigError, match="leaves the float range") as info:
        run()
    assert start in str(info.value)


@pytest.mark.parametrize("call, message", [
    ("trace_catenary(sphere, 1.0, start, 1.0, tol='x')", "tol='x' is not a number"),
    ("trace_catenary(sphere, 1.0, start, 1.0, tol=None)", "tol=None is not a number"),
    ("trace_catenary(sphere, 1.0, start, 1.0, max_step='x')", "max_step='x' is not a number"),
    ("trace_graph(sphere, 1.0, 0.5, 0.0, ('x', 1.0))", "v_span[0]='x' is not a number"),
    ("trace_graph(sphere, 1.0, 0.5, 0.0, (None, 1.0))", "v_span[0]=None is not a number"),
    ("trace_graph(sphere, 1.0, 0.5, 0.0, (0.0,))", "v_span=(0.0,) is not a pair of numbers"),
    ("trace_graph(sphere, 1.0, 0.5, 0.0, 5)", "v_span=5 is not a pair of numbers"),
])
def test_tracer_options_raise_config_error(call, message):
    # these once leaked TypeError, ValueError or IndexError, or ended the trace at
    # once on "blow_up" with two samples
    with pytest.raises(ConfigError) as info:
        eval(call, globals(), {"sphere": catalog_surface("sphere"),
                               "start": CatenaryState(0.7, 0.0, 1.0)})
    assert str(info.value) == message


def test_step_budget_ends_a_trace_that_would_not_end(monkeypatch):
    # s_max = 1e308 would take some 1e309 steps of the sphere trace; MAX_STEPS ends it
    monkeypatch.setattr(tracing, "MAX_STEPS", 50)
    runs = (lambda: trace_catenary(catalog_surface("sphere"), 1.0,
                                   CatenaryState(0.7, 0.0, 1.0), 1e308),
            lambda: trace_graph(catalog_surface("plane"), 0.0, 1.0, 0.0, (0.0, 1e308)))
    for run in runs:
        trace = run()
        assert trace.termination == "max_steps" and "max_steps" in tracing.TERMINATIONS
        accepted, rejected = trace.stats["steps_accepted"], trace.stats["steps_rejected"]
        assert accepted + rejected == 50
        assert len(trace.samples) == accepted + 1
        assert trace.at(math.inf)[0] == trace.samples[-1].u


def test_step_budget_counts_rejected_steps(monkeypatch):
    # every stage past the first fails, so every step is rejected and h halves
    # toward underflow; the budget ends the run of rejections first
    from catenary.tracing import _drive

    def f(t, u, v, phi):
        if t > 0.0:
            raise ArithmeticError
        return (1.0, 0.0, 0.0, None)

    y0 = (1.0, 0.0, 0.0)
    assert _drive(f, 0.0, y0, f(0.0, *y0), 10.0, 1e-9, math.inf, _OPEN)[1] == "step_underflow"
    monkeypatch.setattr(tracing, "MAX_STEPS", 10)
    segments, termination, _, stats, t, y, _ = _drive(f, 0.0, y0, f(0.0, *y0), 10.0, 1e-9,
                                                      math.inf, _OPEN)
    assert termination == "max_steps" and segments == [] and (t, y) == (0.0, y0)
    assert stats["steps_accepted"] == 0 and stats["steps_rejected"] == 10


def test_find_turnings_lands_on_the_sphere_turning_points():
    sphere = catalog_surface("sphere")
    u_m, u_M = turning_points(sphere, 1.0, 0.5)
    trace = trace_catenary(sphere, 1.0, CatenaryState(u_m, 0.0, math.pi / 2), 20.0)
    turns = tracing.find_turnings(trace)
    assert len(turns) >= 4
    for s in turns:
        u = trace.at(s)[0]
        assert min(abs(u - u_m), abs(u - u_M)) < 1e-6


def test_cos_of_a_finite_double_is_never_zero():
    # why find_turnings needs no cos(phi) == 0 case: pi/2 is irrational, and the double
    # nearest any of its odd multiples, 6381956970095103 * 2**797 (the worst case of
    # argument reduction), lies 4.7e-19 from one, so |cos| stays far above the subnormals
    assert abs(math.cos(6381956970095103 * 2.0 ** 797)) > 4e-19
    for k in range(-10_000, 10_000):
        x = (k + 0.5) * math.pi
        for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
            assert abs(math.cos(y)) > 1e-19


def test_u_of_v_and_v_at_u_follow_the_plane_catenary():
    # alpha = 1 from the vertex (1, 0): the graph is u = cosh v, with v(s) = asinh s
    trace = trace_catenary(catalog_surface("plane"), 1.0, CatenaryState(1.0, 0.0, math.pi / 2),
                           3.0)
    for v in (0.25, 0.5, 1.0, 1.5):
        assert abs(tracing.u_of_v(trace, v) - math.cosh(v)) < 1e-6
    for u in (1.1, 1.5, 2.0, 3.0):
        assert abs(tracing.v_at_u(trace, u, trace.samples[-1].s) - math.acosh(u)) < 1e-6


@pytest.mark.parametrize("t", [math.nan, "x", None])
def test_at_rejects_nan_and_non_numbers(t):
    # NaN once came back as (nan, nan, nan); "x" leaked a TypeError
    trace = trace_catenary(catalog_surface("sphere"), 1.0, CatenaryState(0.7, 0.0, 1.0), 1.0)
    with pytest.raises(ConfigError, match="is not a number"):
        trace.at(t)


def _bisection(gap, a, b, rtol):
    """Plain bisection of [a, b], where gap holds (> 0) at a and fails at b: (a, b, probes)."""
    probes = 0
    while (b - a) > rtol * max(1.0, abs(b)):
        mid = 0.5 * (a + b)
        probes += 1
        if gap(mid) <= 0.0:
            b = mid
        else:
            a = mid
    return a, b, probes


def _cubic_cases():
    rng = random.Random(11)
    for _ in range(300):
        roots = sorted(rng.uniform(-3.0, 3.0) for _ in range(3))
        scale = rng.choice((1e-6, 1.0, 1e6))
        # a bracket around the middle root that holds no other
        yield (lambda t, r=roots, k=scale: k * (t - r[0]) * (t - r[1]) * (t - r[2]),
               rng.uniform(roots[0], roots[1]), rng.uniform(roots[1], roots[2]))


@pytest.mark.parametrize("rtol", [1e-12, 1e-13])
def test_root_lands_with_bisection_in_at_most_twice_its_probes(rtol):
    for cubic, a, b in _cubic_cases():
        ga, gb = cubic(a), cubic(b)
        if (ga > 0.0) == (gb > 0.0):
            continue
        sign = 1.0 if ga > 0.0 else -1.0
        gap = lambda t: sign * cubic(t)  # noqa: E731
        lo, hi, bisect_probes = _bisection(gap, a, b, rtol)
        probes = [0]

        def counted(t):
            probes[0] += 1
            return gap(t)

        ra, rb = tracing._root(counted, a, b, sign * ga, sign * gb, rtol)
        # the width test reads the final bracket's b, as bisection's does
        width = rtol * max(1.0, abs(rb), abs(hi))
        assert gap(ra) > 0.0 >= gap(rb) and rb - ra <= rtol * max(1.0, abs(rb))
        assert abs(0.5 * (ra + rb) - 0.5 * (lo + hi)) <= width
        assert probes[0] <= 2 * bisect_probes


def test_root_bisects_through_nan_and_raising_values():
    # a NaN value holds and -inf fails, as _first_exit's gap gives them: no secant step
    # can use them, and the bracket still closes on the sign change at 0.3
    def gap(t):
        return math.nan if t < 0.2 else -math.inf if t > 0.3 else 0.3 - t

    a, b = tracing._root(gap, 0.0, 1.0, math.nan, -math.inf, 1e-12)
    assert a <= 0.3 <= b and b - a <= 1e-12


def test_turnings_land_with_bisection_on_the_digest_traces():
    # the same turnings, to the width tolerance, as plain bisection on the same quartic
    for name in ("sphere", "exit_hit_lower_u"):
        trace = test_trace_digest._fixed_traces()[name]
        turns = tracing.find_turnings(trace)
        assert turns
        for s in turns:
            i = bisect.bisect_right(trace._starts, s) - 1
            seg = trace._segments[i]
            c0 = math.cos(tracing._dense(seg, seg[0])[2])
            sign = 1.0 if c0 > 0.0 else -1.0
            hi = min(seg[3], trace._t_final)
            lo, hi, _ = _bisection(lambda t: sign * math.cos(tracing._dense(seg, t)[2]),
                                   seg[0], hi, 1e-13)
            assert abs(s - 0.5 * (lo + hi)) <= 1e-13 * max(1.0, abs(hi))
