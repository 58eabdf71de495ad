"""Benchmark of the ``catenary`` package: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload trace_sweep --seed 1 --seconds 20 --trace 0

Workloads: ``trace_sweep``, ``profile_analysis`` (both in one worker
process) and ``cli_session`` (one fresh ``python -m catenary.cli`` process
per op).  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead.  The line before it starts with
``perfbench-report`` and holds the details: digest, failing ops, tail
percentile, sample counts and machine facts.  See ``perfbench/README.md``.

Only the standard library is used here; ``catenary`` is imported only by
the worker processes, from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("trace_sweep", "profile_analysis", "cli_session")
N_SETUP_EACH = 3     # set-up samples before and again after the timed run
SETUP_LIMIT_S = 60.0
# every wait ends by this many seconds after start, so that a hung worker
# makes the run fail well inside the 180 s a run may take
DEADLINE_S = 165.0
START = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PREFIX = b"@@perfbench "


class BenchError(Exception):
    pass


def until(limit: float) -> float:
    """Deadline ``limit`` seconds from now, capped by the run's deadline."""
    return min(time.perf_counter() + limit, START + DEADLINE_S)


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PYTHONHOME", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Worker:
    """A worker process and a line reader over its stdout with deadlines."""

    def __init__(self, argv, env, stderr_path):
        self.stderr_path = stderr_path
        with open(stderr_path, "wb") as err:
            self.t_start = time.perf_counter()
            # its own process group, so that stop() also ends its CLI children
            self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                         stderr=err, start_new_session=True)
        self._buf = b""

    def event(self, deadline: float, probes=None) -> tuple[dict, float]:
        """Next protocol message and the time it arrived.

        With ``probes``, the machine's speed is probed while waiting.
        """
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                if line.startswith(PREFIX):
                    return json.loads(line[len(PREFIX):]), time.perf_counter()
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError("worker did not answer in time")
            if probes is not None:
                probes.take()
                left = min(left, speed.EVERY_S)
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"worker exited early:\n{self.stderr_tail()}")
                self._buf += chunk

    def stderr_tail(self) -> str:
        with open(self.stderr_path, errors="replace") as fh:
            return fh.read()[-2000:]

    def stop(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n_min: int) -> int:
    """Highest whole percentile with at least 10 of n_min samples beyond it.

    It is fixed from the guaranteed minimum op count, not from the count a
    run happens to reach, so a faster commit is compared at the same
    percentile as its parent.
    """
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n_min)))


def machine_facts(root: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "catenary")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def parse_importtime(text: str) -> dict:
    """Cumulative import milliseconds by module from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue
        out.setdefault(parts[2].strip(), cumulative / 1e3)
    return out


def time_fresh_import(env: dict, probes: speed.Probes) -> tuple[float, float]:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import catenary"], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        code = probes.wait(proc, until(SETUP_LIMIT_S) - t0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise BenchError(f"import catenary exited {code}")
    return t0, time.perf_counter() - t0


def probed(take) -> tuple[float, float]:
    """Wall and normalised seconds of ``take(probes) -> (start, seconds)``.

    The speed probe runs before and after the sample, and ``take`` probes
    while it waits.
    """
    probes = speed.Probes()
    probes.take()
    t0, seconds = take(probes)
    probes.take()
    return seconds, speed.normalise([t0], [seconds], probes)[0]


def start_worker(base, role, env, path, probes=None) -> tuple[Worker, float]:
    """A fresh worker and its set-up time, from process start to ``ready``."""
    worker = Worker(base + ["--role", role], env, path)
    try:
        msg, t_ready = worker.event(until(SETUP_LIMIT_S), probes)
        if msg["event"] != "ready":
            raise BenchError(f"unexpected worker message {msg['event']!r}")
    except BaseException:
        worker.stop()
        raise
    return worker, t_ready - worker.t_start


def finish_worker(worker: Worker) -> None:
    try:
        worker.proc.wait(timeout=max(0.0, until(SETUP_LIMIT_S) - time.perf_counter()))
        if worker.proc.returncode != 0:
            raise BenchError(f"worker exited {worker.proc.returncode}:\n"
                             f"{worker.stderr_tail()}")
    finally:
        worker.stop()


def run_workers(args, env, workdir) -> tuple[list[tuple[float, float]], dict, str]:
    """Set-up samples around one timed run; returns them, the result and its stderr.

    Half the set-up samples are taken before the timed run and half after
    it, so that they span the same stretch of time as the ops.  A sample is
    a set-up-only worker, or on ``cli_session`` a fresh ``import catenary``,
    and is returned as its wall and its normalised seconds.
    """
    base = [sys.executable]
    if args.trace:
        base += ["-X", "importtime"]
    base += [os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir]
    if args.quick:
        base.append("--quick")
    n_each = 0 if args.trace else 1 if args.quick else N_SETUP_EACH
    cli = args.workload == "cli_session"

    def setup_worker(k, probes):
        worker, seconds = start_worker(base, "setup", env,
                                       os.path.join(workdir, f"setup-{k}.stderr"), probes)
        finish_worker(worker)
        return worker.t_start, seconds

    def sample(k):
        return probed(lambda probes: time_fresh_import(env, probes) if cli
                      else setup_worker(k, probes))

    setups = [sample(k) for k in range(n_each)]
    stderr_path = os.path.join(workdir, "run.stderr")
    worker, _ = start_worker(base, "run", env, stderr_path)
    try:
        result, _ = worker.event(until(DEADLINE_S))
    except BaseException:
        worker.stop()
        raise
    finish_worker(worker)
    setups += [sample(n_each + k) for k in range(n_each)]
    with open(stderr_path, errors="replace") as fh:
        stderr = fh.read()
    return setups, result, stderr


def end_to_end(times: list[float], setups: list[float], tail_pct: int,
               peak_rss_mb: float) -> dict:
    times = sorted(times)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms.p50": (1e3 * statistics.median(times), "ms"),
        "op_ms.tail": (1e3 * percentile(times, tail_pct), "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smallest decks and one round, for the smoke test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "catenary", "__init__.py")):
        print(f"error: no catenary package under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = worker_env(src)
    workdir = os.path.join(root, ".perfbench",
                           f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups, result, stderr = run_workers(args, env, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not os.path.realpath(result["catenary_file"]).startswith(os.path.realpath(src) + os.sep):
        print(f"error: catenary imported from {result['catenary_file']}, not {src}",
              file=sys.stderr)
        return 1
    probes = speed.Probes()
    probes.at, probes.s = result["probe_at"], result["probe_s"]
    times = speed.normalise(result["starts"], result["times"], probes)
    tail_pct = tail_percentile(result["min_rounds"] * result["deck_size"])
    tail = percentile(sorted(times), tail_pct)
    tail_op = result["names"][times.index(tail)]
    wall = {} if args.trace else end_to_end(result["times"], [w for w, _ in setups],
                                            tail_pct, result["peak_rss_mb"])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": result["digest"], "rounds": result["rounds"],
        "deck_size": result["deck_size"], "ops_timed": len(result["times"]),
        "tail_percentile": tail_pct,
        "tail_op": tail_op,
        "samples_beyond_tail": sum(t > tail for t in times),
        "wall": {name: value for name, (value, _) in wall.items()},
        "probe_s_median": statistics.median(result["probe_s"]),
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_frac": result["failed"] / result["attempted"],
        "wrong": result["wrong"], "failures": result["failures"],
        "known_defects": result.get("known_defects", []),
        "setup_samples_s": [n for _, n in setups],
        "validate_samples_s": [t for t, n in zip(times, result["names"])
                               if n == "validate"],
        "catenary_file": result["catenary_file"], "versions": result["versions"],
        **machine_facts(root),
    }
    if args.trace:
        metrics = dict(result["layers"])
        imports = parse_importtime(stderr)
        metrics["import.catenary_ms"] = (imports.get("catenary", 0.0), "ms")
        metrics["import.scipy_integrate_ms"] = (imports.get("scipy.integrate", 0.0), "ms")
        metrics["op_ms.p50.traced"] = (1e3 * statistics.median(times), "ms")
    else:
        metrics = end_to_end(times, [n for _, n in setups], tail_pct,
                             result["peak_rss_mb"])
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
