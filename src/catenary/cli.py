"""Command-line front end.

Subcommands: ``catalog`` (list built-in surfaces), ``trace`` (unit-speed
tracing), ``trace-graph`` (graph formulation u = u(v)), ``clairaut``
(critical parallels and turning points), ``stability`` (linear stability at
a parallel), ``quadrature`` (v-advance by first-integral quadrature) and
``validate`` (the self-validation suite).

Handlers pass parsed arguments straight to the library, which checks them.

Exit codes: 0 success, 1 validation failure, 2 configuration error (any NaN
or infinite number included).  Output goes to ``--out`` or else to stdout,
with the same bytes in the same ``--format``.  Output files are written
atomically (temp file + rename) and contain no timestamps, so identical
invocations produce byte-identical artifacts.
Set CATENARY_LOG to error/info/debug to control diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile

from .errors import CatenaryError, ConfigError
from .revolution import (
    CriticalParallel,
    _classify,
    _embedding,
    clairaut_constant,
    critical_parallels,
    quadrature_v,
    stability_exponent,
    turning_points,
)
from .surfaces import (
    CATALOG_KINDS,
    CATALOG_PARAMS,
    SurfaceSpec,
    catalog_surface,
    load_profile_csv,
    tabulated_profile,
)
from .tracing import CatenaryState, Trace, trace_catenary, trace_graph

__all__ = ["build_parser", "run", "main", "emit_trace"]

log = logging.getLogger("catenary")


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        try:
            params[key] = float(val)
        except ValueError:
            raise ConfigError(f"--param {key}: {val!r} is not a number") from None
    return params


def _build_surface(args) -> SurfaceSpec:
    if args.profile is not None:
        if args.surface not in (None, "revolution_profile"):
            raise ConfigError("--profile implies --surface revolution_profile")
        return tabulated_profile(load_profile_csv(args.profile),
                                 identifier=os.path.basename(args.profile))
    if args.surface is None:
        raise ConfigError("a --surface kind is required")
    if args.surface == "revolution_profile":
        raise ConfigError("revolution_profile needs --profile CSV with columns u,a")
    return catalog_surface(args.surface, _parse_params(args.param))


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write(text: str, path: str | None) -> None:
    """Write text atomically (temp file + rename) to path, or to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".catenary-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(doc, path: str | None) -> None:
    _write(json.dumps(doc, indent=2) + "\n", path)


def _trace_text(trace: Trace, format: str, embed: bool) -> str:
    if not trace.samples:
        raise ConfigError("refusing to emit an empty trace")
    columns = ["s", "u", "v", "phi", "kappa", "residual"]
    spec = trace.spec
    if spec.is_revolution:
        columns.append("clairaut_c")
    if embed:
        if not spec.is_revolution:
            raise ConfigError("--embed requires a rotationally symmetric surface")
        columns += ["x", "y", "z"]
    rows = []
    for s in trace.samples:
        row = [s.s, s.u, s.v, s.phi, s.kappa, s.residual]
        if spec.is_revolution:
            row.append(clairaut_constant(spec, trace.alpha,
                                         CatenaryState(s.u, s.v, s.phi, s.s)))
        rows.append(row)
    if embed:
        for row, xyz in zip(rows, _embedding(spec, [(s.u, s.v) for s in trace.samples])):
            row.extend(xyz)
    if format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps({
            "surface": trace.spec.identifier,
            "alpha": trace.alpha,
            "mode": trace.mode,
            "termination": trace.termination,
            "stats": trace.stats,
            "columns": columns,
            "samples": rows,
        }, indent=2) + "\n"
    raise ConfigError(f"unknown format {format!r}")


def emit_trace(trace: Trace, format: str, path: str, embed: bool = False) -> None:
    """Serialize a trace to CSV or JSON with 17 significant digits.

    The CSV columns are exactly s,u,v,phi,kappa,residual, plus clairaut_c on
    rotationally symmetric surfaces and x,y,z when ``embed`` is set.  The
    JSON variant carries the same samples plus termination and stats.
    """
    _write(_trace_text(trace, format, embed), path)


def _emit_or_print(trace: Trace, args) -> None:
    if args.format:
        format = args.format
    else:
        format = "json" if args.out and args.out.endswith(".json") else "csv"
    if args.out is None:
        _write(_trace_text(trace, format, args.embed), None)
    else:
        emit_trace(trace, format, args.out, embed=args.embed)
    log.info("trace: %d samples, termination=%s", len(trace.samples),
             trace.termination)


def _parallels_doc(parallels) -> list[dict]:
    return [{"u": cp.u, "lambda": cp.lam, "classification": cp.classification}
            for cp in parallels]


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_catalog(args) -> int:
    entries = []
    for kind in CATALOG_KINDS:
        spec = catalog_surface(kind)
        dom = spec.domain
        entries.append({
            "kind": kind,
            "identifier": spec.identifier,
            "parameters": sorted(CATALOG_PARAMS[kind]),
            "u_domain": [dom.u_min, dom.u_max],
            "revolution": spec.is_revolution,
        })
    if args.json:
        print(json.dumps(entries, indent=2))
    else:
        for e in entries:
            pars = ",".join(e["parameters"]) or "-"
            print(f"{e['kind']:<12} params: {pars:<12} "
                  f"u in ({e['u_domain'][0]:g}, {e['u_domain'][1]:g})")
    return 0


def _cmd_trace(args) -> int:
    spec = _build_surface(args)
    start = CatenaryState(u=args.u0, v=args.v0, phi=args.phi0)
    trace = trace_catenary(spec, args.alpha, start, s_max=args.smax, tol=args.tol,
                           max_step=args.max_step,
                           blowup_factor=args.blowup_factor)
    _emit_or_print(trace, args)
    return 0


def _cmd_trace_graph(args) -> int:
    spec = _build_surface(args)
    trace = trace_graph(spec, args.alpha, args.u0, args.du0, (args.v0, args.v1),
                        tol=args.tol, max_step=args.max_step)
    _emit_or_print(trace, args)
    return 0


def _cmd_clairaut(args) -> int:
    spec = _build_surface(args)
    u_range = None
    if args.umin is not None and args.umax is not None:
        u_range = (args.umin, args.umax)
    doc = {
        "surface": spec.identifier,
        "alpha": args.alpha,
        "critical_parallels": _parallels_doc(critical_parallels(spec, args.alpha,
                                                                u_range)),
    }
    if args.c is not None:
        doc["c"] = args.c
        doc["turning_points"] = turning_points(spec, args.alpha, args.c, u_range)
    _write_json(doc, args.out)
    return 0


def _cmd_stability(args) -> int:
    spec = _build_surface(args)
    if args.ustar is not None:
        lam = stability_exponent(spec, args.alpha, args.ustar)
        parallels = [CriticalParallel(args.ustar, lam, _classify(lam))]
    else:
        parallels = critical_parallels(spec, args.alpha)
    _write_json({"surface": spec.identifier, "alpha": args.alpha,
                 "parallels": _parallels_doc(parallels)}, args.out)
    return 0


def _cmd_quadrature(args) -> int:
    spec = _build_surface(args)
    print(_fmt(quadrature_v(spec, args.alpha, args.c, args.u0, args.u1)))
    return 0


def _cmd_validate(args) -> int:
    if not args.all:
        raise ConfigError("nothing to validate; pass --all")
    from .validation import THRESHOLDS, run_all

    timings: dict[str, float] = {}
    results = run_all(timings)
    for name, seconds in timings.items():
        print(f"{name}: {1e3 * seconds:.1f} ms", file=sys.stderr)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: value={r.value:.6g} threshold={r.threshold:.6g}"
              + (f" ({r.detail})" if r.detail else ""))
    passed = all(r.passed for r in results)
    report = {
        "passed": passed,
        "thresholds": THRESHOLDS,
        "results": [r.to_dict() for r in results],
    }
    if args.out:
        _write_json(report, args.out)
    print(f"{'OK' if passed else 'FAILED'}: {sum(r.passed for r in results)}"
          f"/{len(results)} checks passed")
    return 0 if passed else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _add_surface_options(sp) -> None:
    sp.add_argument("--surface", help="catalog kind or revolution_profile")
    sp.add_argument("--param", action="append", metavar="KEY=VALUE",
                    help="surface parameter (repeatable)")
    sp.add_argument("--profile", help="CSV file u,a for a tabulated profile")
    sp.add_argument("--alpha", type=float, default=1.0,
                    help="weight exponent (default 1)")


def _add_output_options(sp) -> None:
    sp.add_argument("--out", help="output path (stdout if omitted)")
    sp.add_argument("--format", choices=("csv", "json"),
                    help="output format (default: from extension, else csv)")
    sp.add_argument("--embed", action="store_true",
                    help="append x,y,z columns of the revolution embedding")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catenary",
        description="Trace and analyze critical curves of weighted length "
                    "on surfaces in semi-geodesic coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", help="list built-in surfaces")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("trace", help="trace by arc length from (u0, v0, phi0)")
    _add_surface_options(sp)
    sp.add_argument("--u0", type=float, required=True)
    sp.add_argument("--v0", type=float, default=0.0)
    sp.add_argument("--phi0", type=float, required=True,
                    help="initial tangent angle from the meridian direction")
    sp.add_argument("--smax", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-step", type=float, default=math.inf)
    sp.add_argument("--blowup-factor", type=float, default=1e6)
    _add_output_options(sp)
    sp.set_defaults(func=_cmd_trace)

    sp = sub.add_parser("trace-graph", help="integrate the graph equation u(v)")
    _add_surface_options(sp)
    sp.add_argument("--u0", type=float, required=True)
    sp.add_argument("--du0", type=float, default=0.0)
    sp.add_argument("--v0", type=float, default=0.0)
    sp.add_argument("--v1", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-step", type=float, default=math.inf)
    _add_output_options(sp)
    sp.set_defaults(func=_cmd_trace_graph)

    sp = sub.add_parser("clairaut", help="critical parallels and turning points")
    _add_surface_options(sp)
    sp.add_argument("--umin", type=float)
    sp.add_argument("--umax", type=float)
    sp.add_argument("--c", type=float, help="also list turning points for this c")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_clairaut)

    sp = sub.add_parser("stability", help="linear stability at critical parallels")
    _add_surface_options(sp)
    sp.add_argument("--ustar", type=float,
                    help="parallel to examine (default: all critical parallels)")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_stability)

    sp = sub.add_parser("quadrature", help="v-advance between two u values")
    _add_surface_options(sp)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--u0", type=float, required=True)
    sp.add_argument("--u1", type=float, required=True, help="upper u (or inf)")
    sp.set_defaults(func=_cmd_quadrature)

    sp = sub.add_parser("validate", help="run the self-validation suite")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--out", help="write the JSON report here")
    sp.set_defaults(func=_cmd_validate)

    return parser


def _configure_logging() -> None:
    level = os.environ.get("CATENARY_LOG", "error").lower()
    mapping = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    # basicConfig is a no-op once handlers exist; the level must be set anew
    log.setLevel(mapping.get(level, logging.ERROR))


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (CatenaryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
