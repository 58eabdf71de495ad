"""Work ledger: pinned counts of the work a fixed set of calls does.

Plain counts that do not depend on the host's speed:

* Steps accepted and rejected, ``stats["rhs_evals"]`` and metric-kernel calls
  of the fixed traces of ``test_trace_digest.py``, and the kernel calls of
  ``critical_parallels`` and ``turning_points`` on the sphere and on a
  40-knot tabulated profile.  Kernel calls are counted by a copy of the
  surface whose ``patch.metric`` counts its calls (``SurfaceSpec._replace``).
* GK21 rules (and GK15 rules of the infinite-range transform) that QUADPACK
  applies for a fixed list of ``quadrature_v``, ``conformal_coordinate`` and
  ``embed_revolution`` calls, on a catalog profile and on a 40-knot tabulated
  one.  They are counted by wrapping ``quadpack._qk21`` and ``quadpack._qk15i``.
* The kernel calls and checked ``MetricPatch.evaluate`` calls of
  ``check_criterion_equivalence``, per surface it builds.
* The sorted ``catenary.*`` modules that each CLI subcommand leaves in
  ``sys.modules``, one fresh interpreter per subcommand, and the absence there of
  the stdlib modules it does not use: ``ast``, ``csv``, ``dataclasses``, ``dis``,
  ``inspect`` and ``logging`` after each, ``json`` after those that write no JSON;
  and the modules that importing one public name of each module loads.
* The probes of each ``tracing._root`` search of a few turnings, lookups and exits.
* The rejected steps of traces that run into a u edge, and of a stage error with no
  u limit ahead.

A change that moves a count must say why; a refactor that claims to keep the
work as it was leaves this file untouched.
"""

from __future__ import annotations

import math
import subprocess
import sys

import pytest

import test_trace_digest
from catenary import (
    CatenaryState,
    catalog_surface,
    conformal_coordinate,
    critical_parallels,
    embed_revolution,
    quadrature_v,
    tabulated_profile,
    trace_catenary,
    turning_points,
)
from catenary import quadpack, tracing, validation
from catenary.surfaces import MetricPatch


def _tabulated():
    """a = 1 + 0.3 sin 2u on the 40 knots u = 0.1 + 0.05 i: |a'| <= 0.6, realizable."""
    us = [0.1 + 0.05 * i for i in range(40)]
    return tabulated_profile([(u, 1.0 + 0.3 * math.sin(2.0 * u)) for u in us])


class _CountedKernel:
    """A metric kernel that counts its calls."""

    def __init__(self, metric):
        self.metric, self.calls = metric, 0

    def __call__(self, u, v):
        self.calls += 1
        return self.metric(u, v)


def _counted(spec):
    """A copy of spec whose ``patch.metric`` is a _CountedKernel."""
    return spec._replace(patch=spec.patch._replace(metric=_CountedKernel(spec.patch.metric)))


def _counting(tracer):
    """tracer, run on a counted copy of its surface (``trace.spec`` is that copy)."""
    return lambda spec, *args, **kwargs: tracer(_counted(spec), *args, **kwargs)


# (steps accepted, steps rejected, stats["rhs_evals"], kernel calls) per trace;
# rhs_evals counts every call of the right-hand side, so it passes the kernel count
# where a stage point outside the domain raised before reaching the kernel
TRACE_WORK = {
    "plane": (38, 0, 230, 230),
    "cylinder": (38, 0, 230, 230),
    "sphere": (93, 0, 560, 560),
    "hyperbolic": (57, 0, 344, 344),
    "cone": (49, 0, 296, 296),
    "catenoid": (44, 0, 266, 266),
    "helicoid": (44, 0, 266, 266),
    "binormal": (44, 0, 266, 266),
    "grusin": (4, 0, 26, 26),
    "cone_graph": (487, 0, 2925, 2925),
    "tabulated": (62, 111, 995, 980),
    "ruled": (18, 1, 116, 116),
    "ruled_graph": (39, 63, 419, 371),
    "exit_hit_lower_u": (95, 43, 770, 751),
    "exit_u_max": (3, 1, 24, 23),
    "exit_blow_up_u": (17, 0, 105, 105),
    "exit_blow_up_dphi": (13, 0, 89, 89),
    "exit_vertical_tangent": (526, 2, 3171, 3171),
}


def test_trace_work_is_pinned(monkeypatch):
    monkeypatch.setattr(test_trace_digest, "trace_catenary",
                        _counting(test_trace_digest.trace_catenary))
    monkeypatch.setattr(test_trace_digest, "trace_graph",
                        _counting(test_trace_digest.trace_graph))
    got = {name: (tr.stats["steps_accepted"], tr.stats["steps_rejected"],
                  tr.stats["rhs_evals"], tr.spec.patch.metric.calls)
           for name, tr in test_trace_digest._fixed_traces().items()}
    assert got == TRACE_WORK


def test_rhs_evals_count_the_stages_of_failed_steps():
    """``rhs_evals`` counts the stages a failed step ran, and the call that failed.

    The sphere meridian from u = 0.7 runs into u_max = pi/2.  Its one rejected
    step made two calls: a stage inside the domain and the stage past u_max,
    which the domain guard refuses before the kernel.  So ``rhs_evals`` reads
    one more than the 27 kernel calls.
    """
    trace = trace_catenary(_counted(catalog_surface("sphere")), 1.0,
                           CatenaryState(0.7, 0.0, 0.0), s_max=5.0)
    assert trace.termination == "left_domain"
    assert (trace.stats["steps_accepted"], trace.stats["steps_rejected"],
            trace.stats["rhs_evals"], trace.spec.patch.metric.calls) == (4, 1, 28, 27)


@pytest.mark.parametrize("u0, v0", [(0.7, 0.0), (1.2, 0.1)])
def test_a_meridian_ends_at_u_max_in_at_most_two_rejections(u0, v0):
    """A sphere meridian runs into u_max = pi/2 at unit speed.

    The stages past the edge fail; the retry is aimed at the band between
    the u limit and the edge, so the step after it ends the trace there.
    Halving h instead took 64 and 82 rejected steps.  The exit is the
    crossing of the u limit, s = u_hi - u0.
    """
    trace = trace_catenary(catalog_surface("sphere"), 1.0, CatenaryState(u0, v0, 0.0),
                           s_max=5.0)
    assert trace.termination == "left_domain" and trace.stats["steps_rejected"] <= 2
    u_hi = math.pi / 2 - tracing.LOWER_MARGIN
    last = trace.samples[-1]
    assert abs(last.s - (u_hi - u0)) <= 1e-12 and abs(last.u - u_hi) <= 1e-12
    assert (last.v, last.phi) == (v0, 0.0)


def test_a_trace_heading_for_u_zero_ends_inside_the_band():
    # the geodesic down the meridian v = 0.2 to the pole u = 0: hit_lower_u fires at
    # u_lo = LOWER_MARGIN, with the exit inside (0, u_lo]
    trace = trace_catenary(catalog_surface("sphere"), 0.0, CatenaryState(0.5, 0.2, math.pi),
                           s_max=4.0)
    assert trace.termination == "hit_lower_u" and trace.stats["steps_rejected"] <= 2
    last = trace.samples[-1]
    assert 0.0 < last.u <= tracing.LOWER_MARGIN
    assert abs(last.s - (0.5 - tracing.LOWER_MARGIN)) <= 1e-12


def test_a_stage_error_with_no_u_limit_ahead_halves_the_step():
    # every stage past u = 1.5 raises: with no u limit ahead h halves down to underflow;
    # with the limit a margin below 1.5 the retry is aimed and the trace ends there
    def f(t, u, v, phi):
        if u > 1.5:
            raise OverflowError("math range error")
        return (1.0, 0.0, 0.0, u)

    open_ = tracing._Bounds(-math.inf, math.inf, -math.inf, math.inf, math.inf, math.inf,
                            False)
    got = []
    for bounds in (open_, open_._replace(u_hi=1.5 - tracing.LOWER_MARGIN)):
        _, termination, _, stats, _, y, _ = tracing._drive(
            f, 0.0, (1.0, 0.0, 0.0), f(0.0, 1.0, 0.0, 0.0), 10.0, 1e-9, math.inf, bounds)
        assert 1.5 - 1e-9 <= y[0] <= 1.5
        got.append((termination, stats["steps_accepted"], stats["steps_rejected"]))
    assert got == [("step_underflow", 22, 113), ("left_domain", 4, 2)]


# (kind, kernel calls, MetricPatch.evaluate calls) of each catalog_surface call of
# check_criterion_equivalence: each of its 10,000 random jets per kind and 100 exact
# jets on the plane reads the kernel once, unchecked; the sphere then takes an
# uncapped alpha = 0 trace and its conformal-geodesic oracle: the trace runs into the
# pole, and each of its 7 stage failures there goes through the checked evaluate
CRITERION_WORK = [(kind, 10_000, 0) for kind in (
    "plane", "cylinder", "sphere", "hyperbolic", "cone", "catenoid", "helicoid",
    "binormal", "grusin")] + [("plane", 100, 0), ("sphere", 1222, 7)]


def test_criterion_equivalence_work_is_pinned(monkeypatch):
    kernels, evaluates = [], []
    evaluate = MetricPatch.evaluate

    def counted_surface(kind):
        spec = _counted(catalog_surface(kind))
        kernels.append((kind, spec.patch.metric))
        return spec

    def counted_evaluate(patch, u, v):
        evaluates.append(patch.metric)
        return evaluate(patch, u, v)

    monkeypatch.setattr(validation, "catalog_surface", counted_surface)
    monkeypatch.setattr(MetricPatch, "evaluate", counted_evaluate)
    validation.check_criterion_equivalence()
    got = [(kind, kernel.calls, sum(k is kernel for k in evaluates))
           for kind, kernel in kernels]
    assert got == CRITERION_WORK


# kernel calls of one root scan each
SCAN_WORK = {
    "sphere critical_parallels": 6228,
    "sphere turning_points": 6227,
    "tabulated critical_parallels": 97,
    "tabulated turning_points": 95,
}


def test_root_scan_work_is_pinned():
    sphere, tab = catalog_surface("sphere"), _tabulated()
    scans = {
        "sphere critical_parallels": (sphere, lambda s: critical_parallels(s, 1.0)),
        "sphere turning_points": (sphere, lambda s: turning_points(s, 1.0, 0.5)),
        "tabulated critical_parallels": (tab, lambda s: critical_parallels(s, 1.0)),
        "tabulated turning_points": (tab, lambda s: turning_points(s, 1.0, 1.2)),
    }
    got = {}
    for label, (spec, scan) in scans.items():
        counted = _counted(spec)
        scan(counted)
        got[label] = counted.patch.metric.calls
    assert got == SCAN_WORK


def _calls():
    """(label, thunk) of every call whose quadrature work is pinned."""
    cat, sphere, tab = catalog_surface("catenoid"), catalog_surface("sphere"), _tabulated()
    return [
        ("catenoid quadrature_v to inf", lambda: quadrature_v(cat, 1.0, 0.5, 1.5, math.inf)),
        ("catenoid quadrature_v finite", lambda: quadrature_v(cat, 1.0, 0.5, 0.8, 3.0)),
        ("sphere quadrature_v turning", lambda: quadrature_v(
            sphere, 1.0, 0.5, turning_points(sphere, 1.0, 0.5)[0], 0.85)),
        ("catenoid conformal_coordinate", lambda: conformal_coordinate(cat, 2.0)),
        ("catenoid conformal_coordinate u_ref", lambda: conformal_coordinate(cat, 0.3, 1.7)),
        ("catenoid embed_revolution", lambda: embed_revolution(cat, 1.2, 0.4)),
        ("tabulated quadrature_v", lambda: quadrature_v(tab, 1.0, 0.5, 0.6, 1.8)),
        ("tabulated quadrature_v turning", lambda: quadrature_v(
            tab, 0.0, 1.2, turning_points(tab, 0.0, 1.2)[0], 0.7)),
        ("tabulated conformal_coordinate", lambda: conformal_coordinate(tab, 1.5)),
        ("tabulated embed_revolution", lambda: embed_revolution(tab, 1.1, 0.2, 0.5)),
    ]


# (GK21 rules, GK15 rules on the transformed infinite range) per call
GK_RULES = {
    "catenoid quadrature_v to inf": (1, 3),
    "catenoid quadrature_v finite": (3, 0),
    "sphere quadrature_v turning": (3, 0),
    "catenoid conformal_coordinate": (1, 0),
    "catenoid conformal_coordinate u_ref": (1, 0),
    "catenoid embed_revolution": (1, 0),
    "tabulated quadrature_v": (25, 0),
    "tabulated quadrature_v turning": (9, 0),
    "tabulated conformal_coordinate": (28, 0),
    "tabulated embed_revolution": (12, 0),
}


def _count_rules(monkeypatch, thunk):
    counts = {"qk21": 0, "qk15i": 0}
    qk21, qk15i = quadpack._qk21, quadpack._qk15i

    def counted21(*args):
        counts["qk21"] += 1
        return qk21(*args)

    def counted15i(*args):
        counts["qk15i"] += 1
        return qk15i(*args)

    with monkeypatch.context() as patch:
        patch.setattr(quadpack, "_qk21", counted21)
        patch.setattr(quadpack, "_qk15i", counted15i)
        thunk()
    return counts["qk21"], counts["qk15i"]


def test_quadrature_rule_counts_are_pinned(monkeypatch):
    got = {label: _count_rules(monkeypatch, thunk) for label, thunk in _calls()}
    assert got == GK_RULES


_CLI = {
    "catalog": ["catalog"],
    "trace": ["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1", "--smax", "1"],
    "trace --embed": ["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1",
                      "--smax", "1", "--embed"],
    "trace-graph": ["trace-graph", "--surface", "plane", "--u0", "1", "--v1", "1"],
    "clairaut": ["clairaut", "--surface", "sphere", "--c", "0.5"],
    "stability": ["stability", "--surface", "sphere"],
    "quadrature": ["quadrature", "--surface", "catenoid", "--c", "0.5", "--u0", "1.5",
                   "--u1", "inf"],
    "validate": ["validate", "--all"],
}

# a subcommand loads the modules it uses, on top of the CLI's own: revolution only for
# Clairaut analysis and --embed, quadpack on the first integral, validation (and through
# it every other module) only for validate
_CLI_BASE = ["catenary", "catenary.cli", "catenary.errors", "catenary.surfaces"]
_CLAIRAUT = sorted(_CLI_BASE + ["catenary.revolution"])
_TRACE = sorted(_CLI_BASE + ["catenary.curvature", "catenary.tracing"])
CLI_MODULES = {
    "catalog": _CLI_BASE,
    "trace": _TRACE,
    "trace --embed": sorted(_TRACE + ["catenary.quadpack", "catenary.revolution"]),
    "trace-graph": _TRACE,
    "clairaut": _CLAIRAUT,
    "stability": _CLAIRAUT,
    "quadrature": sorted(_CLAIRAUT + ["catenary.quadpack"]),
    "validate": sorted(_TRACE + ["catenary.closed_forms", "catenary.quadpack",
                                 "catenary.revolution", "catenary.validation"]),
}


# stdlib modules these subcommands leave unloaded, json but for the two that write JSON:
# ``dataclasses`` alone pulls in ast, dis and inspect and execs generated methods for each
# record class, milliseconds of every process start; ``logging`` loads only for
# CATENARY_LOG info or debug or a non-converged integral, and ``csv`` only for --profile
_UNLOADED_STDLIB = ("ast", "csv", "dataclasses", "dis", "inspect", "json", "logging")
_WRITES_JSON = {"clairaut", "stability"}


@pytest.mark.parametrize("name", sorted(_CLI))
def test_cli_module_sets_are_pinned(name):
    code = ("import contextlib, io, sys; from catenary.cli import run\n"
            f"with contextlib.redirect_stdout(io.StringIO()): code = run({_CLI[name]!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'catenary'))\n"
            f"print([m for m in {_UNLOADED_STDLIB!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    modules, stdlib = out.stdout.strip().split("\n")
    assert modules == f"0 {CLI_MODULES[name]!r}"
    assert stdlib == repr(["json"] if name in _WRITES_JSON else [])


# the catenary.* modules a fresh interpreter holds after importing one public name of
# each module: its own module and what that imports, never a module found by a search
_BASE = ["catenary", "catenary.errors", "catenary.surfaces"]
NAME_MODULES = {
    "CatenaryError": ["catenary", "catenary.errors"],
    "catalog_surface": _BASE,
    "geodesic_curvature": sorted(_BASE + ["catenary.curvature"]),
    "trace_catenary": sorted(_BASE + ["catenary.curvature", "catenary.tracing"]),
    "quadrature_v": sorted(_BASE + ["catenary.revolution"]),
    "closed_form_family": sorted(_BASE + ["catenary.closed_forms", "catenary.curvature",
                                          "catenary.revolution"]),
}


@pytest.mark.parametrize("name", sorted(NAME_MODULES))
def test_public_name_module_sets_are_pinned(name):
    code = (f"from catenary import {name}; import sys\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'catenary'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == repr(NAME_MODULES[name])


def _probes_per_search(monkeypatch, thunk):
    """Probes of each ``tracing._root`` search that thunk makes, in order."""
    counts, root = [], tracing._root

    def counted(gap, *args):
        counts.append(0)

        def probe(t):
            counts[-1] += 1
            return gap(t)

        return root(probe, *args)

    with monkeypatch.context() as patch:
        patch.setattr(tracing, "_root", counted)
        thunk()
    return counts


def _searches():
    sphere = catalog_surface("sphere")
    flow = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=4.0)
    return {
        "sphere find_turnings": lambda: tracing.find_turnings(flow),
        "sphere u_of_v": lambda: tracing.u_of_v(trace_catenary(
            sphere, 1.0, CatenaryState(0.7, 0.0, 1.3), s_max=1.0), 0.5),
        "sphere v_at_u": lambda: tracing.v_at_u(flow, 1.0, 1.0),
        "exit_u_max": lambda: trace_catenary(sphere, 1.0, CatenaryState(1.2, 0.1, 0.0),
                                             s_max=4.0),
        "exit_hit_lower_u": lambda: trace_catenary(sphere, -1.0,
                                                   CatenaryState(1.2, 0.1, 0.3), s_max=4.0),
    }


# probes per _root search (bisection to the same widths takes about 40 each); the
# meridian's u is linear in s, so the first secant lands on the exact zero and the
# bracket then closes by bisection
ROOT_PROBES = {
    "sphere find_turnings": [29, 4],
    "sphere u_of_v": [16],
    "sphere v_at_u": [16],
    "exit_u_max": [40],
    "exit_hit_lower_u": [10],
}


def test_root_probes_are_pinned(monkeypatch):
    got = {label: _probes_per_search(monkeypatch, thunk) for label, thunk in _searches().items()}
    assert got == ROOT_PROBES
