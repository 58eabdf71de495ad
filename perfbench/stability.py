"""Stability check: repeated runs of the benchmark on distinct seeds.

Run from the root of a checkout::

    python3 perfbench/stability.py --seeds 10 --sets 2
    python3 perfbench/stability.py --workloads trace_sweep --seeds 5 --sets 1
    python3 perfbench/stability.py --seeds 1 --sets 1 --traced

For each workload and end-to-end metric it prints the median of each set
and the spread (distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median, next to the bound in ``BENCHMARK.json``, and for comparison the
spread of the same metric on the wall clock, before normalisation for the
machine's speed (all sets together).  A spread must stay within
the bound and should stay below a third of it; the
second set's median must not be worse than the first's by more than the
bound.  With ``--traced`` each seed is also run with ``--trace 1``, and the
digests of the two runs and the tracing overhead on ``op_ms.p50`` are
printed.  Every run's result line is kept in ``.perfbench/stability.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seeds", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    os.makedirs(".perfbench", exist_ok=True)
    log = open(os.path.join(".perfbench", "stability.jsonl"), "a")
    ok = True
    for workload in names:
        sets, walls = [], []
        for k in range(args.sets):
            runs = []
            for j in range(args.seeds):
                seed = 1 + k * args.seeds + j
                report, result = run_once(workload, seed, bench["run_seconds"], 0)
                log.write(json.dumps({"report": report, "result": result}) + "\n")
                log.flush()
                runs.append(result)
                walls.append(report["wall"])
                line = f"{workload} seed {seed}: correct={result['correct']} " \
                       f"failed={result['failed']}/{result['attempted']} " + " ".join(
                           f"{n}={v['value']:.4g}" for n, v in result["metrics"].items())
                if args.traced:
                    t_report, t_result = run_once(workload, seed, bench["run_seconds"], 1)
                    log.write(json.dumps({"report": t_report, "result": t_result}) + "\n")
                    overhead = t_result["metrics"]["op_ms.p50.traced"]["value"] \
                        - result["metrics"]["op_ms.p50"]["value"]
                    same = t_report["digest"] == report["digest"]
                    line += f" | traced digest {'==' if same else '!='} untraced," \
                            f" op_ms.p50 overhead {overhead:+.4g} ms"
                print(line, flush=True)
            sets.append(runs)
        for name, m in metrics.items():
            cells = []
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                if len(values) >= 2:
                    s = spread(values)
                    flag = "" if s < m["bound"] / 3 else (" (>bound/3)" if s <= m["bound"]
                                                          else " (>BOUND)")
                    if s > m["bound"]:
                        ok = False
                    cells.append(f"median {medians[-1]:.4g} spread {s:.3f}{flag}")
                else:
                    cells.append(f"value {medians[-1]:.4g}")
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                cells.append(f"2nd vs 1st {worse:+.3f}")
                if worse > m["bound"]:
                    ok = False
            if len(walls) >= 2:
                cells.append(f"wall-clock spread {spread([w[name] for w in walls]):.3f}")
            print(f"  {workload:16s} {name:12s} bound {m['bound']:.2f}: " + " | ".join(cells))
    log.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
