"""Smoke test of the benchmark itself; it never asserts on a timing.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at its smallest size (``--quick``), once untraced and
once traced.  The test checks the result schema, that every metric named
in BENCHMARK.json is present with its unit, and that both runs produce the
same output digest.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("perfbench-report ")
    return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_schema_metrics_and_digest(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report, result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert isinstance(result["correct"], bool)
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert report["catenary_file"].startswith(os.path.join(ROOT, "src") + os.sep)
        digests.append(report["digest"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "trace_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
