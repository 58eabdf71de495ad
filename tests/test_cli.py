import csv
import json
import math

import pytest

from catenary import CatenaryState, catalog_surface, trace_catenary
from catenary.cli import build_parser, emit_trace, run


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    return header, rows


def test_trace_command_writes_expected_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = run(["trace", "--surface", "sphere", "--alpha", "1", "--u0", "0.5",
                "--v0", "0", "--phi0", "1.2", "--smax", "20", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["s", "u", "v", "phi", "kappa", "residual", "clairaut_c"]
    assert rows[0][:4] == [0.0, 0.5, 0.0, 1.2]
    assert len(rows) > 10


def test_unknown_surface_exits_2(tmp_path, capsys):
    code = run(["trace", "--surface", "torus", "--u0", "1", "--phi0", "1",
                "--smax", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "unknown surface kind" in capsys.readouterr().err


def test_param_builds_the_given_surface(tmp_path):
    out, want = tmp_path / "cli.csv", tmp_path / "lib.csv"
    code = run(["trace", "--surface", "hyperbolic", "--param", "r=2", "--u0", "1",
                "--phi0", "0.5", "--smax", "2", "--out", str(out)])
    assert code == 0
    spec = catalog_surface("hyperbolic", r=2.0)
    emit_trace(trace_catenary(spec, 1.0, CatenaryState(1.0, 0.0, 0.5), s_max=2.0), "csv",
               str(want))
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("surface_args, message", [
    (["--surface", "hyperbolic", "--param", "r"], "--param expects key=value"),
    (["--surface", "hyperbolic", "--param", "r=x"], "is not a number"),
    (["--surface", "sphere", "--profile", "prof.csv"], "--profile implies"),
    ([], "a --surface kind is required"),
    (["--surface", "revolution_profile"], "needs --profile"),
    (["--surface", "sphere", "--param", "kind=1"], "unknown parameter(s) ['kind']"),
])
def test_bad_surface_arguments_exit_2(surface_args, message, capsys):
    code = run(["trace", *surface_args, "--u0", "1", "--phi0", "0.5", "--smax", "1"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_bad_tolerance_exits_2(tmp_path):
    code = run(["trace", "--surface", "sphere", "--u0", "0.5", "--phi0", "1",
                "--smax", "1", "--tol", "1e-2", "--out", str(tmp_path / "x.csv")])
    assert code == 2


_TRACE_ARGV = ["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1", "--smax", "3"]
_GRAPH_ARGV = ["trace-graph", "--surface", "plane", "--u0", "1", "--v1", "1"]


@pytest.mark.parametrize("argv, defaults", [
    (_TRACE_ARGV, ["--tol", "1e-9", "--max-step", "inf"]),
    (_GRAPH_ARGV, ["--tol", "1e-9", "--max-step", "inf"]),
], ids=["trace_step", "trace_graph_step"])
def test_tracer_defaults_on_the_command_line_change_nothing(argv, defaults, tmp_path):
    # the flags are not passed when absent, so the library's defaults must equal them
    plain, explicit = tmp_path / "plain.csv", tmp_path / "explicit.csv"
    assert run([*argv, "--out", str(plain)]) == 0
    assert run([*argv, *defaults, "--out", str(explicit)]) == 0
    assert plain.read_bytes() == explicit.read_bytes()


def test_absent_tracer_flags_are_not_parsed():
    # the tracers own the defaults: an absent flag leaves no attribute to pass on
    for argv in (_TRACE_ARGV, _GRAPH_ARGV):
        args = vars(build_parser().parse_args(argv))
        assert not {"tol", "max_step"} & set(args)


def test_csv_roundtrip_is_bit_exact(tmp_path):
    spec = catalog_surface("sphere")
    trace = trace_catenary(spec, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=3.0)
    out = tmp_path / "trace.csv"
    emit_trace(trace, "csv", str(out))
    _, rows = read_csv(out)
    assert len(rows) == len(trace.samples)
    for row, smp in zip(rows, trace.samples):
        assert row[0] == smp.s
        assert row[1] == smp.u
        assert row[2] == smp.v
        assert row[3] == smp.phi
        assert row[4] == smp.kappa
        assert row[5] == smp.residual


def test_identical_invocations_are_byte_identical(tmp_path):
    args = ["trace", "--surface", "catenoid", "--u0", "1", "--phi0", "0.8",
            "--smax", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_embed_columns_satisfy_sphere_identity(tmp_path):
    out = tmp_path / "emb.csv"
    code = run(["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1.0",
                "--smax", "3", "--out", str(out), "--embed"])
    assert code == 0
    header, rows = read_csv(out)
    assert header[-3:] == ["x", "y", "z"]
    for row in rows:
        x, y, z = row[-3:]
        assert abs(x * x + y * y + z * z - 1.0) < 1e-9


def test_embed_columns_match_embed_revolution(tmp_path):
    from catenary import embed_revolution

    out = tmp_path / "emb.csv"
    assert run(["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1.0",
                "--smax", "3", "--out", str(out), "--embed"]) == 0
    sphere = catalog_surface("sphere")
    trace = trace_catenary(sphere, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=3.0)
    _, rows = read_csv(out)
    assert len(rows) == len(trace.samples)
    for row, smp in zip(rows, trace.samples):
        assert row[:3] == [smp.s, smp.u, smp.v]
        assert tuple(row[-3:]) == embed_revolution(sphere, smp.u, smp.v)


def test_embed_on_singular_anchor_exits_2(capsys):
    # the Grusin slope -1/u^2 is singular at the default anchor u = 0
    code = run(["trace", "--surface", "grusin", "--u0", "2", "--phi0", "1",
                "--smax", "3", "--embed"])
    assert code == 2
    assert "no arc-length revolution embedding" in capsys.readouterr().err


def test_catenoid_json_reports_blow_up(tmp_path):
    out = tmp_path / "cat.json"
    code = run(["trace", "--surface", "catenoid", "--u0", "1", "--phi0",
                str(math.pi / 4), "--smax", "3e6", "--out", str(out),
                "--format", "json"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["termination"] == "blow_up"
    assert doc["columns"][:6] == ["s", "u", "v", "phi", "kappa", "residual"]
    v_final = doc["samples"][-1][2]
    assert 0.3 < v_final < 0.5


def test_trace_past_the_step_budget_ends_on_max_steps(tmp_path, monkeypatch):
    # --smax 1e9 once ran until it was killed; the budget, lowered here, ends it
    from catenary import tracing

    monkeypatch.setattr(tracing, "MAX_STEPS", 40)
    out = tmp_path / "long.json"
    assert run([*_TRACE_ARGV[:-1], "1e9", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["termination"] == "max_steps"
    assert doc["stats"]["steps_accepted"] + doc["stats"]["steps_rejected"] == 40


def test_trace_graph_command(tmp_path):
    out = tmp_path / "graph.csv"
    code = run(["trace-graph", "--surface", "plane", "--u0", "1", "--du0", "0",
                "--v1", "1.0", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert rows[-1][2] == pytest.approx(1.0, abs=1e-12)
    assert rows[-1][1] == pytest.approx(math.cosh(1.0), abs=1e-7)


def test_quadrature_command(capsys):
    code = run(["quadrature", "--surface", "cylinder", "--c", "1",
                "--u0", "1", "--u1", "2"])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(math.acosh(2.0), abs=1e-9)


def test_quadrature_command_improper(capsys):
    code = run(["quadrature", "--surface", "catenoid", "--c", "0.5",
                "--u0", "1", "--u1", "inf"])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.17705472353033189, abs=1e-8)


def test_clairaut_command(capsys):
    code = run(["clairaut", "--surface", "sphere", "--c", "0.5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["critical_parallels"]) == 1
    assert doc["critical_parallels"][0]["u"] == pytest.approx(0.8603335890193797,
                                                              abs=1e-10)
    assert doc["critical_parallels"][0]["classification"] == "stable"
    assert len(doc["turning_points"]) == 2


def test_clairaut_command_searches_the_given_range(capsys):
    # the sphere's one critical parallel, u = 0.8603, lies below [0.9, 1.5];
    # rho = u cos u = 0.5 has one root in it
    code = run(["clairaut", "--surface", "sphere", "--c", "0.5",
                "--umin", "0.9", "--umax", "1.5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical_parallels"] == []
    [u] = doc["turning_points"]
    assert 0.9 < u < 1.5
    assert u * math.cos(u) == pytest.approx(0.5, abs=1e-12)


def test_clairaut_command_rejects_a_range_outside_the_domain(capsys):
    # the sphere's domain ends at pi/2, where G = cos u reaches zero
    code = run(["clairaut", "--surface", "sphere", "--umin", "0.1", "--umax", "3.5",
                "--c", "0.5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(0.1, 3.5)" in captured.err


@pytest.mark.parametrize("flag", ["--umin", "--umax"])
def test_clairaut_command_rejects_a_one_sided_range(flag, capsys):
    code = run(["clairaut", "--surface", "sphere", flag, "0.9"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--umin" in captured.err and "--umax" in captured.err


def test_stability_command(capsys):
    code = run(["stability", "--surface", "sphere", "--ustar",
                "0.8603335890193797"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parallels"][0]["classification"] == "stable"
    assert doc["parallels"][0]["lambda"] > 0.0


def test_stability_command_rejects_noncritical(capsys):
    code = run(["stability", "--surface", "sphere", "--ustar", "0.5"])
    assert code == 2


def test_profile_csv_input(tmp_path, capsys):
    profile = tmp_path / "prof.csv"
    lines = ["u,a"]
    for i in range(150):
        u = 0.05 + i * (1.45 / 149)
        lines.append(f"{u!r},{math.cos(u)!r}")
    profile.write_text("\n".join(lines) + "\n")
    code = run(["clairaut", "--profile", str(profile)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["critical_parallels"]) == 1
    assert doc["critical_parallels"][0]["u"] == pytest.approx(0.86033, abs=1e-3)


def test_validate_requires_all_flag(capsys):
    assert run(["validate"]) == 2


def test_validate_times_checks_on_stderr_only(tmp_path, monkeypatch, capsys):
    from catenary import validation

    for name in validation._CHECKS:
        result = validation.CheckResult(name, True, 0.5, 1.0, "")
        monkeypatch.setattr(validation, f"check_{name}", lambda r=result: [r])
    out = tmp_path / "report.json"
    assert run(["validate", "--all", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "".join(f"PASS {name}: value=0.5 threshold=1\n"
                                   for name in validation._CHECKS) + \
        "OK: 10/10 checks passed\n"
    assert json.loads(out.read_text()) == {
        "passed": True,
        "thresholds": validation.THRESHOLDS,
        "results": [{"name": name, "passed": True, "value": 0.5, "threshold": 1.0,
                     "detail": ""} for name in validation._CHECKS],
    }
    timings = [line.split(": ") for line in captured.err.splitlines()]
    assert [name for name, _ in timings] == list(validation._CHECKS)
    assert all(ms.endswith(" ms") and float(ms[:-3]) >= 0.0 for _, ms in timings)


def test_validate_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["validate", "--all", "--out", str(a)]) == 0
    assert run(["validate", "--all", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_log_env_var_enables_diagnostics(tmp_path):
    import os
    import subprocess
    import sys

    out = tmp_path / "t.csv"
    args = [sys.executable, "-m", "catenary.cli", "trace", "--surface", "sphere",
            "--u0", "0.7", "--phi0", "1.0", "--smax", "1", "--out", str(out)]
    # The child inherits this process's environment (PYTHONPATH included) so it
    # imports the same catenary; only CATENARY_LOG, the variable under test, is
    # overridden.
    quiet = subprocess.run(args, capture_output=True, text=True,
                           env={**os.environ, "CATENARY_LOG": "error"})
    chatty = subprocess.run(args, capture_output=True, text=True,
                            env={**os.environ, "CATENARY_LOG": "info"})
    assert quiet.returncode == 0 and chatty.returncode == 0
    assert "trace:" not in quiet.stderr
    assert "trace:" in chatty.stderr


# far out on the catenoid each --embed integral over [0, u] ends on QUADPACK's round-off
# flag (ier=2), one per sample: a warning record that only info and debug print
_CATENOID_WARNINGS = "".join(
    f"WARNING catenary: integral over [0.0, {u}] did not converge (ier=2): round-off detected\n"
    for u in ("1000000.0", "1000000.1106953226", "1000000.9950041752"))


@pytest.mark.parametrize("level, stderr", [
    (None, ""),
    ("error", ""),
    ("info", _CATENOID_WARNINGS + "INFO catenary: trace: 3 samples, termination=reached_smax\n"),
    ("debug", _CATENOID_WARNINGS + "INFO catenary: trace: 3 samples, termination=reached_smax\n"),
])
def test_log_levels_print_exactly_their_diagnostics(level, stderr):
    import os
    import subprocess
    import sys

    env = {k: v for k, v in os.environ.items() if k != "CATENARY_LOG"}
    if level is not None:
        env["CATENARY_LOG"] = level
    proc = subprocess.run([sys.executable, "-m", "catenary.cli", "trace", "--surface",
                           "catenoid", "--u0", "1e6", "--phi0", "0.1", "--smax", "1", "--embed"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.count("\n") == 4
    assert proc.stderr == stderr


def test_a_quiet_run_after_a_verbose_one_in_process_logs_nothing(monkeypatch, caplog, tmp_path):
    import logging

    # a copy of the root's handlers (caplog's among them), so that any handler basicConfig
    # adds is dropped afterwards
    monkeypatch.setattr(logging.root, "handlers", logging.root.handlers[:])
    out = str(tmp_path / "t.csv")
    try:
        monkeypatch.setenv("CATENARY_LOG", "info")
        assert run(["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1.0",
                    "--smax", "1", "--out", out]) == 0
        assert "trace:" in caplog.text
        caplog.clear()
        monkeypatch.setenv("CATENARY_LOG", "error")
        assert run(["trace", "--surface", "catenoid", "--u0", "1e6", "--phi0", "0.1",
                    "--smax", "1", "--embed", "--out", out]) == 0
        assert caplog.records == []
    finally:
        logging.getLogger("catenary").setLevel(logging.NOTSET)


def test_catalog_command(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for kind in ("sphere", "grusin", "catenoid"):
        assert kind in out


def test_catalog_json(capsys):
    assert run(["catalog", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    kinds = {e["kind"] for e in entries}
    assert {"plane", "sphere", "grusin"} <= kinds


def test_single_sample_trace_emits_one_row(tmp_path):
    spec = catalog_surface("sphere")
    trace = trace_catenary(spec, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=3.0)
    trace.samples = trace.samples[:1]
    out = tmp_path / "one.csv"
    emit_trace(trace, "csv", str(out))
    header, rows = read_csv(out)
    assert header == ["s", "u", "v", "phi", "kappa", "residual", "clairaut_c"]
    assert len(rows) == 1


def test_empty_trace_emission_rejected(tmp_path):
    spec = catalog_surface("sphere")
    trace = trace_catenary(spec, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=1.0)
    trace.samples = []
    from catenary import ConfigError
    with pytest.raises(ConfigError):
        emit_trace(trace, "csv", str(tmp_path / "e.csv"))


@pytest.mark.parametrize("ruled, format, embed, message", [
    (True, "csv", True, "--embed requires a rotationally symmetric surface"),
    (False, "xml", False, "unknown format 'xml'"),
])
def test_emit_trace_rejects_what_it_cannot_write(ruled, format, embed, message, tmp_path):
    from catenary import ConfigError, ruled_surface

    spec = catalog_surface("sphere") if not ruled else \
        ruled_surface(lambda v: 0.0, lambda v: 1.0, lambda v: 0.0, lambda v: 0.0)
    trace = trace_catenary(spec, 1.0, CatenaryState(0.7, 0.0, 1.0), s_max=1.0)
    with pytest.raises(ConfigError, match=message):
        emit_trace(trace, format, str(tmp_path / "t.out"), embed=embed)
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    # the rename onto a directory fails after the text went to the temporary file
    target = tmp_path / "taken"
    target.mkdir()
    code = run(["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1.0",
                "--smax", "1", "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


def test_clairaut_on_a_profile_narrower_than_the_scan_margin(tmp_path, capsys):
    # the default scan started 1e-6 above u = 0, past the last sample
    (tmp_path / "narrow.csv").write_text("u,a\n0,1\n1e-07,1.01\n2e-07,1.02\n3e-07,1.03\n"
                                         "4e-07,1.04\n")
    code = run(["clairaut", "--profile", str(tmp_path / "narrow.csv"), "--c", "2e-7"])
    assert code == 0, capsys.readouterr().err
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical_parallels"] == [] and len(doc["turning_points"]) == 1


def test_quadrature_non_numeric_u1_exits_2(capsys):
    code = run(["quadrature", "--surface", "cylinder", "--c", "1", "--u0", "1",
                "--u1", "abc"])
    assert code == 2
    assert "invalid float value" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["quadrature", "--surface", "sphere", "--alpha", "0.5", "--c", "0.3", "--u0", "-0.5",
      "--u1", "0.5"], "outside [0.0, 1.5707963267948966]"),
    (["stability", "--surface", "sphere", "--alpha", "0.5", "--ustar", "-0.3"],
     "outside (0.0, 1.5707963267948966)"),
    (["clairaut", "--profile", "negative.csv", "--alpha", "1"], "u samples must be >= 0"),
])
def test_u_below_the_domain_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "negative.csv").write_text("u,a\n-1,1\n0,1.2\n1,1.1\n2,1\n3,1.3\n")
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_json_format_on_stdout_matches_out_file(tmp_path, capsys):
    args = ["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1.0",
            "--smax", "3", "--format", "json"]
    out = tmp_path / "t.json"
    assert run(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(args) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_metric_overflow_ends_trace_on_step_underflow(tmp_path, capsys):
    # cosh(u) overflows past u = 710.5 on the hyperbolic plane; the driver
    # rejects those steps instead of leaking the OverflowError
    out = tmp_path / "h.json"
    code = run(["trace", "--surface", "hyperbolic", "--u0", "1", "--phi0", "0",
                "--smax", "2000", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["termination"] == "step_underflow"
    assert 710.0 < doc["samples"][-1][1] < 711.0


@pytest.mark.parametrize("argv", [
    ["trace", "--surface", "plane", "--alpha", "1e200", "--u0", "1", "--phi0", "1",
     "--smax", "4"],
    ["trace", "--surface", "grusin", "--u0", "1e200", "--phi0", "0", "--smax", "4"],
    ["trace-graph", "--surface", "plane", "--alpha", "1e200", "--u0", "1", "--v1", "1"],
])
def test_trace_beyond_the_float_range_exits_2(argv, capsys):
    # an OverflowError or ZeroDivisionError of the tracer is a configuration error
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "leaves the float range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("extended, termination", [
    ("0", "left_domain"),  # u_max = pi/2
    ("1", "step_underflow"),  # u_max = pi, and G = cos u reaches 0 at pi/2
])
def test_sphere_extended_param_sets_the_domain(extended, termination, capsys):
    assert run(["trace", "--surface", "sphere", "--param", f"extended={extended}",
                "--u0", "1.5", "--phi0", "0", "--smax", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["termination"] == termination


@pytest.mark.parametrize("alpha", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1", "--smax", "1"],
    ["trace-graph", "--surface", "plane", "--u0", "1", "--v1", "1"],
    ["clairaut", "--surface", "sphere", "--c", "0.5"],
    ["stability", "--surface", "sphere"],
    ["quadrature", "--surface", "cylinder", "--c", "1", "--u0", "1", "--u1", "2"],
])
def test_non_finite_alpha_exits_2(argv, alpha, capsys):
    assert run(argv + ["--alpha", alpha]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_import_loads_no_scipy():
    import subprocess
    import sys

    # neither scipy nor numpy: trace and trace-graph processes use neither;
    # the validation suite loads only for the validate command
    code = ("import sys, catenary.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')"
            " or m == 'catenary.validation'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_validate_loads_no_scipy_integrate(tmp_path):
    import subprocess
    import sys

    # the conformal oracle has its own stepper and QUADPACK is plain Python,
    # so no numpy or scipy module is loaded at all
    code = ("import sys; from catenary.cli import run; "
            f"code = run(['validate', '--all', '--out', {str(tmp_path / 'r.json')!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    assert json.loads((tmp_path / "r.json").read_text())["passed"] is True


@pytest.mark.parametrize("argv", [
    ["quadrature", "--surface", "catenoid", "--c", "0.5", "--u0", "1.5", "--u1", "inf"],
    ["trace", "--surface", "sphere", "--u0", "0.7", "--phi0", "1", "--smax", "3", "--embed"],
    ["clairaut", "--profile", "prof.csv", "--c", "0.5"],
])
def test_quadrature_commands_load_no_numpy_or_scipy(argv, tmp_path):
    import subprocess
    import sys

    # QUADPACK runs in plain Python: integrating commands load neither package
    profile = tmp_path / "prof.csv"
    profile.write_text("u,a\n" + "".join(
        f"{0.05 + j * 1.45 / 149!r},{math.cos(0.05 + j * 1.45 / 149)!r}\n" for j in range(150)))
    argv = [str(profile) if arg == "prof.csv" else arg for arg in argv]
    code = ("import sys; from catenary.cli import run; "
            f"code = run({argv!r}); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_quadrature_past_the_profile_overflow_exits_2(capsys):
    # cosh(800) overflows in the profile: a library error, not a traceback
    code = run(["quadrature", "--surface", "hyperbolic", "--c", "0.5", "--u0", "1",
                "--u1", "800"])
    assert code == 2
    assert "profile of hyperbolic" in capsys.readouterr().err


def test_embed_on_tabulated_profile_prints_no_integration_warning(tmp_path):
    import subprocess
    import sys

    # a 40-knot profile on which one QUADPACK call per row across the knots
    # raises IntegrationWarnings
    us = [0.1 + 1.95 * j / 39 for j in range(40)]
    profile = tmp_path / "p.csv"
    profile.write_text("u,a\n" + "".join(f"{u!r},{1.0 + 0.3 * math.sin(2.0 * u)!r}\n"
                                         for u in us))
    out = tmp_path / "e.csv"
    done = subprocess.run(
        [sys.executable, "-m", "catenary.cli", "trace", "--profile", str(profile),
         "--u0", "1.0", "--phi0", "0.9", "--smax", "5", "--embed", "--out", str(out)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "Warning" not in done.stderr
    header, rows = read_csv(out)
    assert header[-3:] == ["x", "y", "z"] and len(rows) > 10
