"""Benchmark worker: one fresh process that sets up a workload and runs it.

``run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src/`` and
reads lines that start with ``@@perfbench`` from its stdout:

* ``ready`` once set-up is done: ``catenary`` imported, the seeded inputs
  built and, for the in-process workloads, one untimed warm-up op run;
* ``result`` after the timed loop, with every op's wall time, the failure
  counts, the output digest and, with ``--trace 1``, the layer metrics.

The timed loop is a closed loop with one client: it replays the deck in
whole rounds, each in a seeded order, until ``--seconds`` have passed and
at least ``min_rounds`` rounds are done.  A speed probe (``speed.py``) runs
untimed before every op, so that ``run.py`` can normalise the op times.
The first time an op runs its outputs are checked against the package's
oracles; later rounds must reproduce the first round's digest exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time

import catenary
import catenary.cli
import spans
import speed
import workloads as W

PREFIX = "@@perfbench "
OP_LIMIT_S = 30.0
CLI_LIMIT_S = 60.0
# enough rounds for at least 10 ops beyond the tail percentile and for
# every op to be checked against its own first run at least once
MIN_ROUNDS = {"trace_sweep": 2, "profile_analysis": 2, "cli_session": 4}

DECKS = {
    "trace_sweep": (W.trace_sweep_deck, W.trace_sweep_build, W.trace_sweep_run,
                    W.trace_sweep_check, W.trace_sweep_digest),
    "profile_analysis": (W.profile_analysis_deck, W.profile_analysis_build,
                         W.profile_analysis_run, W.profile_analysis_check,
                         W.profile_analysis_digest),
}


def send(event: str, **doc) -> None:
    print(PREFIX + json.dumps({"event": event, **doc}), flush=True)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded the {OP_LIMIT_S:g} s limit")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def timed_loop(deck, execute, verify, seconds, min_rounds, rng):
    """Replay the deck in whole rounds; returns the loop's raw results."""
    times, starts, names, digests, failures = [], [], [], [None] * len(deck), {}
    attempted = failed = wrong = rounds = 0
    start = time.perf_counter()
    probes = speed.Probes(start)
    while True:
        order = list(range(len(deck)))
        rng.shuffle(order)
        for i in order:
            op = deck[i]
            probes.take()
            starts.append(time.perf_counter() - start)
            dt, out, errors = execute(op, f"{rounds}.{i}", probes)
            times.append(dt)
            names.append(op.name)
            attempted += 1
            if out is None:  # the op raised, timed out or exited non-zero
                text, bad = "\n".join(["error"] + errors), []
            else:  # outputs of a partly failed op are checked all the same
                text, bad = verify(op, out, digests[i] is None)
            if digests[i] is None:
                digests[i] = _sha(text)
            elif _sha(text) != digests[i]:
                bad = bad + ["output differs from the op's first run"]
            if errors or bad:
                failed += 1
                wrong += bool(bad)
                failures.setdefault(f"{i}:{op.name}", errors + bad)
        rounds += 1
        if time.perf_counter() - start >= seconds and rounds >= min_rounds:
            break
    probes.take()
    return {
        "times": times, "starts": starts, "probe_at": probes.at, "probe_s": probes.s,
        "names": names, "attempted": attempted, "failed": failed,
        "wrong": wrong, "rounds": rounds, "deck_size": len(deck),
        "digest": _sha("".join(digests)),
        "failures": [{"op": k, "errors": v} for k, v in sorted(failures.items())],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
    rng = random.Random(f"{args.workload}:{args.seed}")
    order_rng = random.Random(f"{args.workload}:{args.seed}:order")
    min_rounds = 1 if args.quick else MIN_ROUNDS[args.workload]
    result: dict = {}

    if args.workload == "cli_session":
        deck = W.cli_session_deck(rng, args.quick)
        with open(os.path.join(args.workdir, "profile.csv"), "w") as fh:
            fh.write(W.cli_profile_csv(rng))
        os.chdir(args.workdir)
        if tracer is not None:
            tracer.active = False
            run = tracer.wrap("op", catenary.cli.run)
        send("ready")

        def execute(op, op_id, probes):
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.op, tracer.active = op_id, True
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = run(op.argv)
                    out, errors = buf.getvalue(), []
                    if code != 0:
                        out, errors = None, [f"exit code {code}"]
                except Exception as exc:  # a crash of the CLI is a failed op
                    out, errors = None, [f"{type(exc).__name__}: {exc}"]
                finally:
                    tracer.active = False
                return time.perf_counter() - t0, out, errors
            # output goes to files, so the child never blocks on a full pipe
            # while the parent probes the machine's speed
            with open("cli.stdout", "w+") as out, open("cli.stderr", "w+") as err:
                proc = subprocess.Popen([sys.executable, "-m", "catenary.cli", *op.argv],
                                        stdout=out, stderr=err)
                try:
                    code = probes.wait(proc, CLI_LIMIT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    return time.perf_counter() - t0, None, [
                        f"timed out after {CLI_LIMIT_S:g} s"]
                dt = time.perf_counter() - t0
                out.seek(0)
                err.seek(0)
                if code != 0:
                    return dt, None, [f"exit code {code}: {err.read()[-300:]}"]
                return dt, out.read(), []

        def verify(op, stdout, first):
            bad = W.cli_check(op, ".", stdout) if first else []
            return W.cli_output_text(op, ".", stdout), bad

        result = timed_loop(deck, execute, verify, args.seconds, min_rounds, order_rng)
        who = resource.RUSAGE_SELF if tracer is not None else resource.RUSAGE_CHILDREN
        if tracer is not None:
            ops = spans.snapshot(tracer)
            result["layers"] = spans.layer_metrics(ops, ({}, {}), ops)
    else:
        make_deck, build, run, check, digest = DECKS[args.workload]
        deck = make_deck(rng, args.quick)
        build(deck)
        if tracer is not None:
            tracer.active = False
            run = tracer.wrap("op", run)
        run(deck[0])
        setup = spans.snapshot(tracer) if tracer is not None else None
        send("ready")
        if args.role == "setup":
            return 0
        signal.signal(signal.SIGALRM, _alarm)

        def execute(op, op_id, probes):
            if tracer is not None:
                tracer.op, tracer.active = op_id, True
            out, errors = None, []
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            t0 = time.perf_counter()
            try:
                out = run(op)
                errors = list(out.get("errors", []))
            except Exception as exc:  # every failure of an op is counted, not fatal
                errors = [f"{type(exc).__name__}: {exc}"]
            finally:
                dt = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.active = False
            return dt, out, errors

        def verify(op, out, first):
            return digest(op, out), check(op, out) if first else []

        result = timed_loop(deck, execute, verify, args.seconds, min_rounds, order_rng)
        if args.workload == "profile_analysis":
            result["known_defects"] = [W.conformal_probe(deck)]
        who = resource.RUSAGE_SELF
        if tracer is not None:
            ops = spans.snapshot(tracer)
            tracer.active = True
            with contextlib.redirect_stdout(io.StringIO()):
                code = catenary.cli.run(["validate", "--all", "--out",
                                         os.path.join(args.workdir, "validate-traced.json")])
            tracer.active = False
            result["attempted"] += 1
            if code != 0:
                result["failed"] += 1
                result["failures"].append({"op": "validate", "errors": [f"exit code {code}"]})
            result["layers"] = spans.layer_metrics(ops, setup, spans.snapshot(tracer))

    if tracer is not None:
        tracer.write(os.path.join(os.path.dirname(args.workdir),
                                  f"spans-{args.workload}-{args.seed}.csv"))
    import numpy
    import scipy
    result.update(
        min_rounds=min_rounds,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        catenary_file=catenary.__file__,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    send("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
