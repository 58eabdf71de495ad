"""Seeded inputs, operations and correctness checks of the three workloads.

Each workload is a *deck*: a list of operations drawn once from the seed.
A run replays the deck in whole rounds (each round in its own seeded
order), so every round has the same composition and the medians of two
seeds differ only through the drawn details, not through the mix.

An operation is split in three parts so that only library work is timed:

* ``run(op)`` calls ``catenary`` and returns its raw outputs (timed);
* ``check(op, out)`` verifies the outputs against the package's own
  oracles and returns a list of failure strings (untimed);
* ``digest(op, out)`` renders the outputs at 17 significant digits for
  the run digest (untimed).

Every call into the library goes through a module attribute (``cat.x``,
``cat.validation.x``) so that the tracer in ``spans.py`` can wrap it.
"""

from __future__ import annotations

import json
import math
import os
import random

import catenary as cat
import catenary.validation
from catenary.tracing import TERMINATIONS

CONSERVATION = cat.validation.THRESHOLDS["conservation"]
CROSS_ORACLE = cat.validation.THRESHOLDS["cross_oracle"]
# a sample's residual is target minus kappa, so rounding shows up relative
# to max(1, |kappa|); near u = 0 on the Grusin plane kappa reaches 1e9.
# Correct traces stay near 1e-15; 1e-8 leaves several decades of margin.
RESIDUAL_MAX = 1e-8
CLOSED_FORM_REL = 1e-6
ROOT_SLOPE_MAX = 1e-8
ROOT_VALUE_REL = 1e-9
TOL = 1e-9

ALPHAS = (0.0, 0.5, 1.0, 2.0)


def fmt(x) -> str:
    return format(float(x), ".17g")


def _rows(values) -> str:
    return "\n".join(",".join(fmt(x) for x in row) for row in values)


class Op:
    """One deck entry: a name for reports plus the parameters it needs."""

    def __init__(self, name: str, **params):
        self.name = name
        self.__dict__.update(params)


# --------------------------------------------------------------------------
# trace_sweep
# --------------------------------------------------------------------------

_U_RANGE = {"sphere": (0.15, 1.35), "hyperbolic": (0.2, 2.0)}
# short traces stay near 10^2 steps on every kind; long ones reach a few
# 10^3 steps on the sphere, whose orbits are bounded and oscillate
_SMAX = {"short": (4.0, 8.0), "long": (45.0, 55.0)}
# the long sphere traces set the tail; more of them make it steadier
_REPS = {"short": 8, "long": 16}
_GRAPH_FAMILIES = (("euclidean", "plane"), ("cone", "cone"),
                   ("grusin_catenary", "grusin"))


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from (lo, hi), one in each of n equal strata, in seeded order.

    Per-group stratification (a Latin hypercube when several coordinates
    are drawn this way) keeps every group's spread of starts alike across
    seeds, so the medians of two seeds differ less than with plain draws.
    """
    order = list(range(n))
    rng.shuffle(order)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in order]


def trace_sweep_deck(rng: random.Random, quick: bool) -> list[Op]:
    reps, buckets, alphas, graphs = ({"short": 1}, ("short",), (1.0,), 1) if quick \
        else (_REPS, ("short", "long"), ALPHAS, 16)
    deck = []
    for kind in cat.CATALOG_KINDS:
        lo, hi = _U_RANGE.get(kind, (0.3, 3.0))
        for alpha in alphas:
            for bucket in buckets:
                n = reps[bucket]
                starts = zip(_strata(rng, n, lo, hi), _strata(rng, n, -1.0, 1.0),
                             _strata(rng, n, 0.25, math.pi - 0.25),
                             _strata(rng, n, *_SMAX[bucket]))
                for u0, v0, phi0, s_max in starts:
                    deck.append(Op(
                        f"flow[{kind},a={alpha:g},{bucket}]", mode="flow", kind=kind,
                        alpha=alpha, u0=u0, v0=v0, phi0=phi0, s_max=s_max))
    for family, kind in _GRAPH_FAMILIES:
        for _ in range(graphs):
            mu = rng.uniform(0.5, 2.0)
            if family == "euclidean":
                nu = rng.uniform(-1.0, 1.0)
                v1 = (3.0 - nu) / mu * rng.uniform(0.5, 1.0)
            elif family == "cone":
                nu = rng.uniform(-0.8, 0.8)
                v1 = (math.pi / 2 - nu) / math.sqrt(2.0) * rng.uniform(0.5, 0.85)
            else:
                nu = rng.uniform(0.5, 2.0)
                v1 = rng.uniform(1.0, 4.0)
            deck.append(Op(f"graph[{kind}]", mode="graph", kind=kind, family=family,
                           mu=mu, nu=nu, v1=v1))
    return deck


def trace_sweep_build(deck: list[Op]) -> None:
    specs = {}
    for op in deck:
        if op.kind not in specs:
            specs[op.kind] = cat.catalog_surface(op.kind)
        op.spec = specs[op.kind]
        if op.mode == "graph":
            op.closed = cat.closed_form_family(op.family, mu=op.mu, nu=op.nu)


def trace_sweep_run(op: Op) -> dict:
    if op.mode == "flow":
        trace = cat.trace_catenary(op.spec, op.alpha,
                                   cat.CatenaryState(op.u0, op.v0, op.phi0),
                                   op.s_max, TOL)
        turns = cat.validation.find_turnings(trace)
        return {"trace": trace, "turns": turns, "dense": [trace.at(s) for s in turns]}
    fam = op.closed
    trace = cat.trace_graph(op.spec, 1.0, fam.value(0.0), fam.d1(0.0), (0.0, op.v1), TOL)
    mids = [0.5 * (p.v + q.v) for p, q in zip(trace.samples, trace.samples[1:])]
    return {"trace": trace, "turns": mids, "dense": [trace.at(v) for v in mids]}


def _trace_failures(trace) -> list[str]:
    out = []
    if trace.termination not in TERMINATIONS:
        out.append(f"termination {trace.termination!r} not in TERMINATIONS")
    if not all(math.isfinite(x) for smp in trace.samples for x in smp):
        out.append("non-finite sample")
    worst = max(abs(s.residual) / max(1.0, abs(s.kappa)) for s in trace.samples)
    if not worst <= RESIDUAL_MAX:
        out.append(f"residual/max(1,|kappa|) = {worst:.3g} > {RESIDUAL_MAX:g}")
    return out


def _rho(spec, alpha):
    a = spec.profile.a
    return lambda u: u ** alpha * a(u)


def clairaut_drift_failure(spec, alpha, trace) -> list[str]:
    """Check the drift of c = rho(u) sin(phi) along a trace.

    The drift is taken relative to the local rho(u): since |c| <= rho(u),
    rho(u) is the scale of the terms that make up c, while relative to c0
    the drift is ill-conditioned on traces that run out to large rho (cone,
    hyperbolic), where it grows with rho(u)/c0.  The validation suite bounds
    the drift by 1e-6 over s = 10; the global error of the integrator grows
    with arc length, so the bound is scaled by max(1, s/10).
    """
    rho = _rho(spec, alpha)
    first = trace.samples[0]
    c0 = rho(first.u) * math.sin(first.phi)
    drift = max(abs(rho(s.u) * math.sin(s.phi) - c0) / rho(s.u) for s in trace.samples)
    bound = CONSERVATION * max(1.0, (trace.samples[-1].s - first.s) / 10.0)
    return [] if drift <= bound else [f"clairaut drift {drift:.3g} > {bound:.3g}"]


def trace_sweep_check(op: Op, out: dict) -> list[str]:
    trace = out["trace"]
    fails = _trace_failures(trace)
    if op.mode == "flow":
        fails += clairaut_drift_failure(op.spec, op.alpha, trace)
        rho = _rho(op.spec, op.alpha)
        c0 = abs(rho(op.u0) * math.sin(op.phi0))
        for s, y in zip(out["turns"], out["dense"]):
            err = abs(rho(y[0]) - c0) / c0
            if not err <= CROSS_ORACLE:
                fails.append(f"turning point s={s:.6g}: |rho(u)-|c||/|c| = {err:.3g}")
                break
        return fails
    value = op.closed.value
    err = max(abs(s.u - value(s.v)) / max(1.0, abs(value(s.v))) for s in trace.samples)
    if not err <= CLOSED_FORM_REL:
        fails.append(f"samples vs closed form {err:.3g} > {CLOSED_FORM_REL:g}")
    err = max((abs(y[0] - value(v)) / max(1.0, abs(value(v)))
               for v, y in zip(out["turns"], out["dense"])), default=0.0)
    if not err <= CROSS_ORACLE:
        fails.append(f"dense output vs closed form {err:.3g} > {CROSS_ORACLE:g}")
    return fails


def _trace_text(trace) -> str:
    return f"{trace.termination}\n{_rows(trace.samples)}"


def trace_sweep_digest(op: Op, out: dict) -> str:
    return "\n".join([_trace_text(out["trace"]), _rows([out["turns"]]),
                      _rows(out["dense"])])


# --------------------------------------------------------------------------
# profile_analysis
# --------------------------------------------------------------------------

def _profile_fn(k, rip, w, ph):
    return lambda u: math.cos(k * u) + 0.08 + rip * math.sin(w * u + ph)


def profile_analysis_deck(rng: random.Random, quick: bool) -> list[Op]:
    n = 1 if quick else 20
    deck = []
    for knots in (40, 400):
        # rho = u^alpha a(u) peaks inside (lo, hi) for every alpha drawn, and
        # a(u) = cos(k u) + 0.08 + ripple stays positive up to hi
        draws = zip(_strata(rng, n, 0.05, 0.2), _strata(rng, n, 1.3, 1.45),
                    _strata(rng, n, 0.95, 1.05), _strata(rng, n, 0.0, 0.05),
                    _strata(rng, n, 0.2, 0.9), _strata(rng, n, 0.3, 0.9))
        for i, (lo, hi, k, rip, q, conf) in enumerate(draws):
            fn = _profile_fn(k, rip, rng.uniform(3.0, 8.0), rng.uniform(0.0, 2 * math.pi))
            us = [lo + (hi - lo) * j / (knots - 1) for j in range(knots)]
            alpha = (0.5, 1.0, 2.0)[i % 3]
            grid = [lo + (hi - lo) * j / 400 for j in range(401)]
            rho_max = max(u ** alpha * fn(u) for u in grid)
            # c lies above rho at both domain edges, so rho = c has a root on
            # each side of the maximum and the band between them is accessible
            rho_edge = max(lo ** alpha * fn(lo), hi ** alpha * fn(hi))
            deck.append(Op(
                f"tabulated[{knots}]", mode="tabulated", alpha=alpha,
                samples=[(u, fn(u)) for u in us],
                c=rho_edge + (rho_max - rho_edge) * q, u_conf=lo + (hi - lo) * conf))
    vs = [-3.0 + 6.0 * j / 39 for j in range(40)]
    draws = zip(_strata(rng, n, 0.3, 0.8), _strata(rng, n, 0.5, 2.0),
                _strata(rng, n, -1.5, -0.5), _strata(rng, n, 0.6, 1.2))
    for i, (g0, u0, v0, phi0) in enumerate(draws):
        f0, f1 = rng.uniform(-0.1, 0.1), rng.uniform(0.0, 0.15)
        g1, p, q = rng.uniform(0.0, 0.5) * g0, rng.uniform(0, 6.3), rng.uniform(0, 6.3)
        deck.append(Op(
            "ruled", mode="ruled", alpha=ALPHAS[i % 4], v_samples=vs,
            f_samples=[f0 + f1 * math.sin(v + p) for v in vs],
            g_samples=[g0 + g1 * math.cos(2 * v + q) for v in vs],
            u0=u0, v0=v0, phi0=phi0, s_max=2.0, v_span=0.3))
    return deck


def profile_analysis_build(deck: list[Op]) -> None:
    for op in deck:
        if op.mode == "tabulated":
            op.spec = cat.tabulated_profile(op.samples)
        else:
            op.spec = cat.ruled_surface_from_samples(op.v_samples, op.f_samples,
                                                     op.g_samples)


def _step(out: dict, key: str, fn, *args):
    """Run one step of an operation; a raised error is kept, not re-raised.

    The operation goes on with its other steps, so its timed work does not
    shrink when a step fails; ``out["errors"]`` marks the op as failed.
    """
    try:
        out[key] = fn(*args)
    except cat.CatenaryError as exc:
        out.setdefault("errors", []).append(f"{key}: {type(exc).__name__}: {exc}")


def profile_analysis_run(op: Op) -> dict:
    spec, alpha, out = op.spec, op.alpha, {}
    if op.mode == "ruled":
        g0 = spec.patch.evaluate(op.u0, op.v0)[0]
        _step(out, "flow", cat.trace_catenary, spec, alpha,
              cat.CatenaryState(op.u0, op.v0, op.phi0), op.s_max, TOL)
        _step(out, "graph", cat.trace_graph, spec, alpha, op.u0,
              g0 * math.cos(op.phi0) / math.sin(op.phi0), (op.v0, op.v0 + op.v_span), TOL)
        return out
    _step(out, "parallels", cat.critical_parallels, spec, alpha)
    _step(out, "turning", cat.turning_points, spec, alpha, op.c)
    tp = out.get("turning", [])
    if len(tp) >= 2:
        _step(out, "dv", cat.quadrature_v, spec, alpha, op.c, tp[0], tp[1])
    if tp:
        _step(out, "trace", cat.trace_catenary, spec, alpha,
              cat.CatenaryState(tp[0], 0.0, math.pi / 2), 4.0, TOL)
        if "trace" in out:
            out["turns"] = cat.validation.find_turnings(out["trace"])
            out["dense"] = [out["trace"].at(s) for s in out["turns"]]
    return out


def _simpson_inverse(a, lo, hi, n=2000) -> float:
    h = (hi - lo) / n
    total = 1.0 / a(lo) + 1.0 / a(hi)
    for j in range(1, n):
        total += (4.0 if j % 2 else 2.0) / a(lo + j * h)
    return total * h / 3.0


def profile_analysis_check(op: Op, out: dict) -> list[str]:
    fails = []
    spec, alpha = op.spec, op.alpha
    if op.mode == "ruled":
        for key in ("flow", "graph"):
            if key in out:
                fails += [f"{key}: {f}" for f in _trace_failures(out[key])]
        if "flow" in out and "graph" in out:
            flow, v_hi = out["flow"], out["flow"].samples[-1].v
            worst = max((abs(cat.validation.u_of_v(flow, s.v) - s.u)
                         for s in out["graph"].samples[1:] if s.v < v_hi), default=0.0)
            if not worst <= CROSS_ORACLE:
                fails.append(f"flow vs graph {worst:.3g} > {CROSS_ORACLE:g}")
        return fails
    prof = spec.profile
    rho = _rho(spec, alpha)

    def rho_u(u):
        return alpha * u ** (alpha - 1.0) * prof.a(u) + u ** alpha * prof.a_u(u)

    for cp in out.get("parallels", []):
        if not abs(rho_u(cp.u)) <= ROOT_SLOPE_MAX or not math.isfinite(cp.lam):
            fails.append(f"critical parallel u={cp.u:.17g}: rho'={rho_u(cp.u):.3g}")
    for u in out.get("turning", []):
        if not abs(rho(u) - op.c) <= ROOT_VALUE_REL * op.c:
            fails.append(f"turning point u={u:.17g}: rho-c={rho(u) - op.c:.3g}")
    if "turning" in out and len(out["turning"]) < 2:
        fails.append(f"{len(out['turning'])} turning points for c={op.c:.17g}")
    if "trace" in out:
        fails += [f"trace: {f}" for f in _trace_failures(out["trace"])]
        if "dv" in out:
            if not out["dense"]:
                fails.append("trace from the lower turning point never turned")
            elif not abs(out["dense"][0][1] - out["dv"]) <= CROSS_ORACLE:
                fails.append(f"quadrature dv={out['dv']:.17g} vs trace "
                             f"{out['dense'][0][1]:.17g}")
    return fails


def conformal_probe(deck: list[Op]) -> dict:
    """Untimed probe of ``conformal_coordinate`` on every tabulated profile.

    With its default anchor it raises ``DomainError`` on many smooth
    tabulated profiles with a(u) > 0: QUADPACK reaches the integral with a
    round-off message, and ``revolution.py`` reads any message as divergence.
    Workloads must be made of ops that do not fail, so the call is kept out
    of the timed op and its outcome is reported here instead.  A value that
    is returned is checked against Simpson's rule.
    """
    raised, wrong = [], []
    probed = 0
    for i, op in enumerate(deck):
        if op.mode != "tabulated":
            continue
        probed += 1
        try:
            z = cat.conformal_coordinate(op.spec, op.u_conf)
        except cat.CatenaryError as exc:
            raised.append(f"{i}:{op.name}: {type(exc).__name__}: {exc}")
            continue
        ref = _simpson_inverse(op.spec.profile.a, op.spec.domain.u_min, op.u_conf)
        if not abs(z - ref) <= 1e-6 * max(1.0, abs(ref)):
            wrong.append(f"{i}:{op.name}: {fmt(z)} vs Simpson {fmt(ref)}")
    return {"call": "conformal_coordinate", "probed": probed,
            "raised": raised, "wrong": wrong}


def profile_analysis_digest(op: Op, out: dict) -> str:
    parts = []
    for key in ("flow", "graph", "trace"):
        if key in out:
            parts.append(f"{key}\n{_trace_text(out[key])}")
    if "parallels" in out:
        parts.append("parallels\n" + _rows([(cp.u, cp.lam) for cp in out["parallels"]])
                     + "".join(f",{cp.classification}" for cp in out["parallels"]))
    for key in ("turning", "turns"):
        if key in out:
            parts.append(f"{key}\n{_rows([out[key]])}")
    if "dv" in out:
        parts.append(f"dv {fmt(out['dv'])}")
    if "dense" in out:
        parts.append("dense\n" + _rows(out["dense"]))
    parts += out.get("errors", [])
    return "\n".join(parts)


# --------------------------------------------------------------------------
# cli_session
# --------------------------------------------------------------------------

CLI_KINDS = ("hyperbolic", "cone", "catenoid", "helicoid", "binormal", "plane")


def cli_session_deck(rng: random.Random, quick: bool) -> list[Op]:
    """A fixed mix of subcommands; the seed draws their arguments.

    The mix is already one process per subcommand, so ``quick`` keeps it.
    """
    deck = [
        Op("trace[sphere]", argv=[
            "trace", "--surface", "sphere", "--alpha", fmt(rng.choice((0.5, 1.0, 2.0))),
            "--u0", fmt(rng.uniform(0.4, 1.2)), "--phi0", fmt(rng.uniform(0.8, 2.3)),
            "--smax", fmt(rng.uniform(90.0, 110.0)), "--out", "trace_sphere.csv"],
           out="trace_sphere.csv"),
        Op("trace[other]", argv=[
            "trace", "--surface", rng.choice(CLI_KINDS), "--alpha",
            fmt(rng.choice(ALPHAS)), "--u0", fmt(rng.uniform(0.5, 2.0)),
            "--phi0", fmt(rng.uniform(0.5, 2.6)), "--smax", fmt(rng.uniform(20.0, 40.0)),
            "--out", "trace_other.csv"], out="trace_other.csv"),
        Op("trace[embed]", argv=[
            "trace", "--surface", "sphere", "--alpha", "1", "--u0",
            fmt(rng.uniform(0.4, 1.2)), "--phi0", fmt(rng.uniform(0.8, 2.3)),
            "--smax", fmt(rng.uniform(25.0, 35.0)), "--embed", "--out", "trace_embed.csv"],
           out="trace_embed.csv"),
    ]
    mu = rng.uniform(0.5, 2.0)
    nu = rng.uniform(-0.8, 0.8)
    cone = cat.closed_form_family("cone", mu=mu, nu=nu)
    v1 = (math.pi / 2 - nu) / math.sqrt(2.0) * rng.uniform(0.5, 0.85)
    deck.append(Op("trace-graph[cone]", argv=[
        "trace-graph", "--surface", "cone", "--u0", fmt(cone.value(0.0)),
        "--du0", fmt(cone.d1(0.0)), "--v1", fmt(v1), "--out", "graph.json"],
        out="graph.json", mu=mu, nu=nu))
    deck.append(Op("clairaut[profile]", argv=[
        "clairaut", "--profile", "profile.csv", "--alpha", "1",
        "--c", fmt(rng.uniform(0.2, 0.3)), "--out", "clairaut.json"], out="clairaut.json"))
    deck.append(Op("quadrature[catenoid]", argv=[
        "quadrature", "--surface", "catenoid", "--c", fmt(rng.uniform(0.3, 0.9)),
        "--u0", fmt(rng.uniform(1.0, 2.0)), "--u1", "inf"], out=None))
    deck.append(Op("validate", argv=["validate", "--all", "--out", "validate.json"],
                   out="validate.json"))
    return deck


def cli_profile_csv(rng: random.Random) -> str:
    """The tabulated profile that ``clairaut --profile`` reads."""
    fn = _profile_fn(rng.uniform(0.9, 1.05), rng.uniform(0.0, 0.05),
                     rng.uniform(3.0, 8.0), rng.uniform(0.0, 2 * math.pi))
    us = [0.1 + 1.3 * j / 39 for j in range(40)]
    return "u,a\n" + "".join(f"{fmt(u)},{fmt(fn(u))}\n" for u in us)


def cli_output_text(op: Op, workdir: str, stdout: str) -> str:
    text = stdout
    if op.out is not None:
        with open(os.path.join(workdir, op.out)) as fh:
            text += fh.read()
    return text


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def cli_check(op: Op, workdir: str, stdout: str) -> list[str]:
    """Check one CLI invocation's output against in-process library calls."""
    argv = op.argv
    cmd = argv[0]
    path = os.path.join(workdir, op.out) if op.out else None
    fails = []
    if cmd == "validate":
        with open(path) as fh:
            report = json.load(fh)
        if report["passed"] is not True:
            fails.append("validation report did not pass")
        return fails
    if cmd == "quadrature":
        spec = cat.catalog_surface(_arg(argv, "--surface"))
        ref = cat.quadrature_v(spec, float(_arg(argv, "--alpha", 1.0)),
                               float(_arg(argv, "--c")), float(_arg(argv, "--u0")), math.inf)
        if stdout.strip() != fmt(ref):
            fails.append(f"quadrature printed {stdout.strip()!r}, library gives {fmt(ref)}")
        return fails
    if cmd == "clairaut":
        with open(path) as fh:
            doc = json.load(fh)
        spec = cat.tabulated_profile(cat.load_profile_csv(os.path.join(workdir, "profile.csv")))
        alpha, c = float(_arg(argv, "--alpha")), float(_arg(argv, "--c"))
        ref_cp = cat.critical_parallels(spec, alpha)
        if [p["u"] for p in doc["critical_parallels"]] != [p.u for p in ref_cp]:
            fails.append("critical parallels differ from the library")
        if doc["turning_points"] != cat.turning_points(spec, alpha, c):
            fails.append("turning points differ from the library")
        rho = _rho(spec, alpha)
        for u in doc["turning_points"]:
            if not abs(rho(u) - c) <= ROOT_VALUE_REL * c:
                fails.append(f"turning point u={u!r}: rho-c={rho(u) - c:.3g}")
        return fails
    spec = cat.catalog_surface(_arg(argv, "--surface"))
    alpha = float(_arg(argv, "--alpha", 1.0))
    if cmd == "trace":
        ref = cat.trace_catenary(spec, alpha, cat.CatenaryState(
            float(_arg(argv, "--u0")), 0.0, float(_arg(argv, "--phi0"))),
            float(_arg(argv, "--smax")), TOL)
        columns = ["s", "u", "v", "phi", "kappa", "residual", "clairaut_c"]
        if "--embed" in argv:
            columns += ["x", "y", "z"]
        with open(path) as fh:
            lines = fh.read().splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        if lines[0].split(",") != columns:
            fails.append(f"columns {lines[0]!r}")
        if len(rows) != len(ref.samples):
            fails.append(f"{len(rows)} rows, library trace has {len(ref.samples)} samples")
        elif any(tuple(r[:6]) != tuple(s) for r, s in zip(rows, ref.samples)):
            fails.append("CSV samples differ from the library trace")
        return fails + _trace_failures(ref)
    # trace-graph
    with open(path) as fh:
        doc = json.load(fh)
    ref = cat.trace_graph(spec, alpha, float(_arg(argv, "--u0")),
                          float(_arg(argv, "--du0")), (0.0, float(_arg(argv, "--v1"))), TOL)
    if doc["columns"] != ["s", "u", "v", "phi", "kappa", "residual", "clairaut_c"]:
        fails.append(f"columns {doc['columns']!r}")
    if len(doc["samples"]) != len(ref.samples) or doc["termination"] != ref.termination:
        fails.append("graph trace differs from the library")
    value = cat.closed_form_family("cone", mu=op.mu, nu=op.nu).value
    err = max(abs(row[1] - value(row[2])) / max(1.0, abs(value(row[2])))
              for row in doc["samples"])
    if not err <= CLOSED_FORM_REL:
        fails.append(f"samples vs closed form {err:.3g} > {CLOSED_FORM_REL:g}")
    return fails + _trace_failures(ref)
