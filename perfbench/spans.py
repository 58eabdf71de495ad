"""Spans around the public entry points of each ``catenary`` module.

The tracer wraps functions where their callers look them up: every
attribute of a loaded ``catenary`` module that is the original function is
replaced, because modules import each other's functions by name (for
example ``catenary.tracing`` holds its own reference to
``geodesic_curvature``).  Methods are wrapped on their class.

A span records its layer, start, end, parent span and op id.  Self time is
a span's duration minus the time its child spans cover.  Hot leaf layers
(metric evaluation, curvature, dense output) run hundreds of thousands of
times per run; they are folded into per-layer totals and their parent's
child time instead of being stored one by one, which keeps memory bounded.
All spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

import catenary
import catenary.cli
import catenary.curvature
import catenary.revolution
import catenary.surfaces
import catenary.tracing
import catenary.validation
from catenary.surfaces import MetricPatch
from catenary.tracing import Trace

# called hundreds of thousands of times per run: folded into totals only;
# the leaves among them call nothing traced, so they need no stack frame
HOT = {"surfaces.evaluate", "curvature", "tracing.at"}
LEAVES = {"surfaces.evaluate", "tracing.at"}

VALIDATION_CHECKS = (
    "closed_form_residuals", "trace_vs_closed_forms", "sphere_critical_parallel",
    "clairaut_conservation", "sphere_oscillation", "stability_dynamics",
    "catenoid_escape", "triple_oracle", "criterion_equivalence", "isometry",
)


class Tracer:
    """Span recorder; it records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans: list[list] = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counters = defaultdict(float)
        self._stack: list[list] = []  # [child seconds, span index or None]
        self._trace_depth = 0

    def reset(self) -> None:
        for tot in self.totals.values():
            tot[:] = [0, 0.0, 0.0]
        self.counters.clear()

    def wrap(self, layer: str, fn, after=None, count_in_trace=None):
        """Wrap fn as a span of ``layer``.

        ``after(tracer, result, args, kwargs)`` reads counts off a result;
        ``count_in_trace`` names a counter bumped per call inside a trace.
        """
        stack = self._stack
        tot = self.totals[layer]

        if layer in LEAVES:
            def leaf(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                if count_in_trace and self._trace_depth:
                    self.counters[count_in_trace] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    if stack:
                        stack[-1][0] += dur
                    tot[0] += 1
                    tot[1] += dur
                    tot[2] += dur

            return leaf

        hot = layer in HOT

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = None
            if not hot:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                index = len(self.spans)
                self.spans.append([layer, 0.0, 0.0, parent, self.op])
            frame = [0.0, index]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if index is not None:
                    self.spans[index][1:3] = [t0, t1]
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{'' if parent is None else parent},"
                         f"{'' if op is None else op}\n")


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "catenary" or name.startswith("catenary."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _after_trace(tracer, trace, args, kwargs):
    for key in ("steps_accepted", "steps_rejected", "rhs_evals"):
        tracer.counters[key] += trace.stats[key]


def _after_quad(tracer, result, args, kwargs):
    if kwargs.get("full_output"):
        tracer.counters["quadpack.neval"] += result[2]["neval"]
        if len(result) > 3:
            tracer.counters["quadpack.warnings"] += 1


def _after_emit(tracer, result, args, kwargs):
    trace, path = args[0], args[2]
    tracer.counters["cli.emit.rows"] += len(trace.samples)
    tracer.counters["cli.emit.bytes"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer; call once, before any op runs."""
    MetricPatch.evaluate = tracer.wrap("surfaces.evaluate", MetricPatch.evaluate,
                                       count_in_trace="evaluate_in_trace")
    Trace.at = tracer.wrap("tracing.at", Trace.at)

    for name in ("catalog_surface", "tabulated_profile", "profile_surface",
                 "ruled_surface", "ruled_surface_from_samples"):
        fn = getattr(catenary.surfaces, name)
        _replace_everywhere(fn, tracer.wrap("surfaces.build", fn))
    for name in ("geodesic_curvature", "catenary_residual", "catenary_target_curvature",
                 "normal_transversality", "parallel_catenary_check"):
        fn = getattr(catenary.curvature, name)
        _replace_everywhere(fn, tracer.wrap("curvature", fn))
    for name in ("trace_catenary", "trace_graph"):
        fn = getattr(catenary.tracing, name)
        _replace_everywhere(fn, _depth(tracer, tracer.wrap("tracing.trace", fn,
                                                           after=_after_trace)))
    for name in ("critical_parallels", "turning_points"):
        fn = getattr(catenary.revolution, name)
        _replace_everywhere(fn, tracer.wrap("revolution.roots", fn))
    for name in ("quadrature_v", "conformal_coordinate"):
        fn = getattr(catenary.revolution, name)
        _replace_everywhere(fn, tracer.wrap("revolution.quadrature", fn))
    fn = catenary.revolution.embed_revolution
    _replace_everywhere(fn, tracer.wrap("revolution.embed", fn))
    fn = catenary.revolution.quad
    _replace_everywhere(fn, tracer.wrap("quadpack", fn, after=_after_quad))
    for check in VALIDATION_CHECKS:
        fn = getattr(catenary.validation, f"check_{check}")
        _replace_everywhere(fn, tracer.wrap(f"validation.{check}", fn))
    fn = catenary.cli.emit_trace
    _replace_everywhere(fn, tracer.wrap("cli.emit", fn, after=_after_emit))


def _depth(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        tracer._trace_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._trace_depth -= 1

    return wrapper


def layer_metrics(ops: tuple, setup: tuple, validate: tuple) -> dict:
    """Per-layer metrics from the totals and counters of each run phase.

    ``ops`` covers the timed operations, ``setup`` the input building and
    ``validate`` the traced validation suite; each is a (totals, counters)
    pair as snapshotted from a Tracer.
    """
    totals, counters = ops

    def calls(layer):
        return totals[layer][0] if layer in totals else 0

    def ms(layer, index=2):
        return 1e3 * totals[layer][index] if layer in totals else 0.0

    def per(num, den):
        return num / den if den else 0.0

    steps_ok = counters.get("steps_accepted", 0.0)
    steps_bad = counters.get("steps_rejected", 0.0)
    rows = counters.get("cli.emit.rows", 0.0)
    build = ms("surfaces.build") + (1e3 * setup[0]["surfaces.build"][2]
                                    if "surfaces.build" in setup[0] else 0.0)
    m = {
        "surfaces.evaluate.calls": (calls("surfaces.evaluate"), "count"),
        "surfaces.evaluate.self_ms": (ms("surfaces.evaluate"), "ms"),
        "surfaces.evaluate.us_per_call": (1e3 * per(ms("surfaces.evaluate"),
                                                    calls("surfaces.evaluate")), "us"),
        "surfaces.build_ms": (build, "ms"),
        "curvature.calls": (calls("curvature"), "count"),
        "curvature.self_ms": (ms("curvature"), "ms"),
        "tracing.trace.calls": (calls("tracing.trace"), "count"),
        "tracing.trace.self_ms": (ms("tracing.trace"), "ms"),
        "tracing.steps_accepted": (steps_ok, "count"),
        "tracing.steps_rejected": (steps_bad, "count"),
        "tracing.rhs_evals": (counters.get("rhs_evals", 0.0), "count"),
        "tracing.accept_ratio": (per(steps_ok, steps_ok + steps_bad), "ratio"),
        "tracing.step_us": (1e3 * per(ms("tracing.trace"), steps_ok), "us"),
        "tracing.rhs_per_evaluate": (per(counters.get("rhs_evals", 0.0),
                                         counters.get("evaluate_in_trace", 0.0)), "ratio"),
        "tracing.at.calls": (calls("tracing.at"), "count"),
        "tracing.at.us_per_call": (1e3 * per(ms("tracing.at", 1), calls("tracing.at")),
                                   "us"),
        "revolution.roots.calls": (calls("revolution.roots"), "count"),
        "revolution.roots.self_ms": (ms("revolution.roots"), "ms"),
        "revolution.quadrature.self_ms": (ms("revolution.quadrature"), "ms"),
        "revolution.embed.calls": (calls("revolution.embed"), "count"),
        "revolution.embed.us_per_call": (1e3 * per(ms("revolution.embed", 1),
                                                    calls("revolution.embed")), "us"),
        "quadpack.calls": (calls("quadpack"), "count"),
        "quadpack.ms": (ms("quadpack", 1), "ms"),
        "quadpack.neval": (counters.get("quadpack.neval", 0.0), "count"),
        "quadpack.warnings": (counters.get("quadpack.warnings", 0.0), "count"),
        "cli.emit.ms": (ms("cli.emit"), "ms"),
        "cli.emit.rows": (rows, "count"),
        "cli.emit.bytes": (counters.get("cli.emit.bytes", 0.0), "B"),
        "cli.emit.us_per_row": (1e3 * per(ms("cli.emit"), rows), "us"),
    }
    vtotals = validate[0]
    for check in VALIDATION_CHECKS:
        layer = f"validation.{check}"
        m[f"{layer}.ms"] = (1e3 * vtotals[layer][1] if layer in vtotals else 0.0, "ms")
    return m


def snapshot(tracer: Tracer) -> tuple[dict, dict]:
    """Copy and clear the tracer's totals and counters."""
    snap = ({k: list(v) for k, v in tracer.totals.items() if v[0]}, dict(tracer.counters))
    tracer.reset()
    return snap

