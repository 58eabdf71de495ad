"""Pinned output of fixed traces and root scans, and the dense-output lookup of ``Trace.at``.

The trace digests are sha256 sums of the ``.17g`` text of every sample row,
the termination, the step counts and ``at()`` at fixed parameters.  They pin
the tracers bit for bit: a change to the stepper, the dense output or the
per-sample curvature that alters any number, even in its last bit, changes a
digest.  The signed-zero digest pins the sample rows and ``at()`` values of 32
traces that start at v or phi = -0.0.  The root-scan digests do the same for the ``repr`` of
``critical_parallels`` and ``turning_points``, and the report digests for
the stdout and ``--out`` JSON of ``catenary validate --all``.
"""

import bisect
import hashlib
import math
import random

import pytest

from catenary import (
    CatenaryState,
    catalog_surface,
    critical_parallels,
    ruled_surface_from_samples,
    tabulated_profile,
    trace_catenary,
    trace_graph,
    turning_points,
)
from catenary import tracing
from catenary.cli import run
from catenary.surfaces import CATALOG_KINDS
from catenary.tracing import _dense


def _fixed_traces():
    traces = {}
    for kind in CATALOG_KINDS:
        traces[kind] = trace_catenary(catalog_surface(kind), 1.0,
                                      CatenaryState(0.7, 0.1, 1.0), s_max=4.0)
    traces["cone_graph"] = trace_graph(catalog_surface("cone"), 1.0, 1.0, 0.3,
                                       (0.0, 1.5))
    us = [0.05 + 1.45 * j / 39 for j in range(40)]
    profile = tabulated_profile([(u, math.sin(u) + 0.1 * u * u) for u in us])
    traces["tabulated"] = trace_catenary(profile, 1.0, CatenaryState(0.8, 0.0, 1.2),
                                         s_max=2.0, max_step=0.05)
    vs = [-3.0 + 6.0 * j / 39 for j in range(40)]
    ruled = ruled_surface_from_samples(vs, [0.05 * math.sin(v) for v in vs],
                                       [0.5 + 0.2 * math.cos(2 * v) for v in vs])
    traces["ruled"] = trace_catenary(ruled, 0.5, CatenaryState(1.0, -1.0, 0.9),
                                     s_max=2.0)
    # ends on the v_max margin, located on the graph's parameter
    traces["ruled_graph"] = trace_graph(ruled, 1.0, 1.0, 0.1, (2.5, 3.5))
    # one trace per kind of event exit
    sphere = catalog_surface("sphere")
    traces["exit_hit_lower_u"] = trace_catenary(sphere, -1.0, CatenaryState(1.2, 0.1, 0.3),
                                                s_max=4.0)
    traces["exit_u_max"] = trace_catenary(sphere, 1.0, CatenaryState(1.2, 0.1, 0.0),
                                          s_max=4.0)
    with pytest.MonkeyPatch.context() as mp:  # the u limit, lowered to reach it
        mp.setattr(tracing, "BLOWUP_FACTOR", 2.0)
        traces["exit_blow_up_u"] = trace_catenary(catalog_surface("catenoid"), 1.0,
                                                  CatenaryState(0.7, 0.1, 0.5), s_max=4.0)
    with pytest.MonkeyPatch.context() as mp:  # the |dphi/ds| limit, lowered to reach it
        mp.setattr(tracing, "DPHI_LIMIT", 1.0)
        traces["exit_blow_up_dphi"] = trace_catenary(sphere, 1.0,
                                                     CatenaryState(1.0, 0.0, 1.2), s_max=5.0)
    traces["exit_vertical_tangent"] = trace_graph(catalog_surface("hyperbolic"), 1.0, 0.7,
                                                  -2.0, (0.0, 3.0))
    return traces


def _digest(trace):
    lines = [trace.termination]
    lines += [f"{k}={trace.stats[k]}"
              for k in ("steps_accepted", "steps_rejected", "rhs_evals")]
    lines += [",".join(format(x, ".17g") for x in smp) for smp in trace.samples]
    lo, hi = trace._segments[0][0], trace._t_final
    for j in range(-2, 23):
        t = lo + (hi - lo) * j / 20
        lines.append(",".join(format(x, ".17g") for x in trace.at(t)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


EXPECTED = {
    # tabulated, exit_hit_lower_u and exit_u_max end on a u edge after stage failures,
    # whose retries aim at the edge; ruled_graph's stage failures add to rhs_evals only
    # plane/cylinder and catenoid/helicoid/binormal are isometric pairs
    "plane": "0eb782491ae2955fd021f27bc6fe029d1de4279434041a283dad0c69b9aea395",
    "cylinder": "0eb782491ae2955fd021f27bc6fe029d1de4279434041a283dad0c69b9aea395",
    "sphere": "4f45516de1211dd922411f451cd3291d7ff92423ee6da9db87d9ba844e71acf6",
    "hyperbolic": "130193ffc64b997584aaf8c30d41efce086856d0af91c8ac0ec4f77fabf7e03e",
    "cone": "bb7d638e5c2da5d5e1a7b473dc203e0d7bf60a7ed67280e0b7c32cc44efc4719",
    "catenoid": "4c4faba1de9a14510304bc8eab67daac0745631fea94e3cc3fa4b7e2fa15a768",
    "helicoid": "4c4faba1de9a14510304bc8eab67daac0745631fea94e3cc3fa4b7e2fa15a768",
    "binormal": "4c4faba1de9a14510304bc8eab67daac0745631fea94e3cc3fa4b7e2fa15a768",
    "grusin": "9a3f82f105866d004174e19593afe9f3e364eef9edba9f42818fecc2e2c243dd",
    "cone_graph": "bd1d947985c9e2c1a8562aee75cb1dc41392993bd92d2dd41ab392b6d649b4dc",
    "tabulated": "b88b5e5d260352ba0f5227cb94e185416cdae0dbefd955f1045b8c76a22b2f36",
    "ruled": "e22af7f6e664470875fd8701d552097d005ed5fa7f43c88cdce031beeded0bf1",
    "ruled_graph": "93e3103e9e4212fccb84e138ae64f6e2e449c7eda32b1699fff05602a7c833ac",
    "exit_hit_lower_u": "ab7ebee218695e4f63afd3f275f7f3727541520be0085eac2413fd572cfc8456",
    "exit_u_max": "1204e8638222e86995a5395e3912df6d90c125cc2c3764c48aea608696493e80",
    "exit_blow_up_u": "f6b459d47f3c6a3b853c5c8442e06d4c79928fd195727d105b38879ac561e2bb",
    "exit_blow_up_dphi": "8d0ae7081e5680501c2cba5a79ecfebf4b52d7e972ce593f2c99655e1b0193bd",
    "exit_vertical_tangent":
        "96daa8d3321ebc9492f6a848229e4e933d3f95b17478603528d1787186d3a7bf",
}

# termination and "vertical_tangent" flag of the traces that end on an event;
# the digest holds the termination but not the flag
EXITS = {
    "cone_graph": ("left_domain", True),
    "tabulated": ("left_domain", False),
    "exit_hit_lower_u": ("hit_lower_u", False),
    "exit_u_max": ("left_domain", False),
    "ruled_graph": ("left_domain", False),
    "exit_blow_up_u": ("blow_up", False),
    "exit_blow_up_dphi": ("blow_up", False),
    "exit_vertical_tangent": ("left_domain", True),
}


@pytest.fixture(scope="module")
def traces():
    return _fixed_traces()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_trace_digest_is_pinned(traces, name):
    assert _digest(traces[name]) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(EXITS))
def test_pinned_trace_ends_on_its_event(traces, name):
    termination, vertical = EXITS[name]
    trace = traces[name]
    assert trace.termination == termination
    assert trace.stats.get("vertical_tangent", False) is vertical


# sha256 of the .17g sample rows and at(j/8), j = 0..8, of 32 flow traces from u = 0.7
# with v0 and/or phi0 = -0.0, s_max = 1: every signed zero the stepper makes is in it
SIGNED_ZERO_STARTS = ((-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, 1.0))
EXPECTED_SIGNED_ZEROS = "605cdb910961cb0424abeecfb5d42153280cb6e155fc89e8754a9b3010afeb2b"


def test_signed_zero_starts_are_pinned():
    lines, negative_zeros = [], 0
    for kind in ("plane", "sphere", "cone", "grusin"):
        for alpha in (0.0, 1.0):
            for v0, phi0 in SIGNED_ZERO_STARTS:
                trace = trace_catenary(catalog_surface(kind), alpha,
                                       CatenaryState(0.7, v0, phi0), s_max=1.0)
                rows = list(trace.samples) + [trace.at(j / 8) for j in range(9)]
                text = [",".join(format(x, ".17g") for x in row) for row in rows]
                negative_zeros += sum(line.split(",").count("-0") for line in text)
                lines += text
    assert negative_zeros == 191
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXPECTED_SIGNED_ZEROS


# sha256 of repr((critical_parallels, turning_points)) on the sphere with c = 0.3 and
# on a 40-knot tabulated a(u) = 1.2 + cos 3u over [0.1, 3] with c = 1
EXPECTED_ROOTS = {
    ("sphere", 0.5): "28a422f1e03b03ded9c06fbdd7bd49ce9f03483859b47d2a2cdb1649489f2cef",
    ("sphere", 1.0): "beb93b769511d4851aedf6c4ff57643aedadec03f536b404ae36954b66a3feec",
    ("sphere", 2.0): "c06e2657400ceefb875fb27f1bc7227d361b1949f717f20d5bb31e2572038845",
    ("tabulated", 0.5): "023cff5341e283929d69724523b218e5862acea89684365479181f9bc25af777",
    ("tabulated", 1.0): "491055ea27ac6a8be0ca68b627579965a0ac5bcfa2753e04f4eb1a275024d7d3",
    ("tabulated", 2.0): "03acf7e5e2e9fd1362973843fc9a9bf98d881d954bbca0f21f6e10307d3fb126",
}


@pytest.mark.parametrize("name, alpha", sorted(EXPECTED_ROOTS))
def test_root_scan_digest_is_pinned(name, alpha):
    if name == "sphere":
        spec, c = catalog_surface("sphere"), 0.3
    else:
        us = [0.1 + 2.9 * j / 39 for j in range(40)]
        spec, c = tabulated_profile([(u, 1.2 + math.cos(3.0 * u)) for u in us]), 1.0
    roots = (critical_parallels(spec, alpha), turning_points(spec, alpha, c))
    assert hashlib.sha256(repr(roots).encode()).hexdigest() == EXPECTED_ROOTS[name, alpha]


# sha256 of the stdout and of the --out JSON of ``catenary validate --all``; a change
# that moves a reported value re-pins them and says why
EXPECTED_REPORT = (
    "dec77beae7ab1ae44f13b81b8e03eba937c2eaa0cfa4680299723f8e558fce7a",
    "ef89ad6506d27a6fdcd689fbd218a0d0f080e87152d4acbdbd7ac8872b8433e1",
)


def test_validate_report_digest_is_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["validate", "--all", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert (hashlib.sha256(stdout).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest()) == EXPECTED_REPORT


def _reference_at(trace, t):
    """Dense output by a fresh bisect over the segment starts."""
    segs = trace._segments
    t = min(max(t, segs[0][0]), trace._t_final)
    starts = [seg[0] for seg in segs]
    idx = min(max(bisect.bisect_right(starts, t) - 1, 0), len(segs) - 1)
    return _dense(segs[idx], t)


def _probe_points(trace, rng):
    segs = trace._segments
    lo, hi = segs[0][0], trace._t_final
    pts = [lo - 1.0, math.nextafter(lo, -math.inf), lo, math.nextafter(hi, math.inf),
           hi, hi + 1.0, math.inf, -math.inf]
    pts += [seg[0] for seg in segs]  # exactly on each segment start
    pts += [rng.uniform(lo, hi) for _ in range(200)]
    return pts


@pytest.mark.parametrize("name", ["sphere", "cone_graph", "tabulated"])
def test_at_matches_fresh_bisect_lookup(traces, name):
    trace = traces[name]
    rng = random.Random(7)
    for t in _probe_points(trace, rng):
        assert trace.at(t) == _reference_at(trace, t), t


def test_at_on_one_segment_trace():
    plane = catalog_surface("plane")
    trace = trace_catenary(plane, 0.0, CatenaryState(1.0, 0.0, 0.5), s_max=1e-3)
    assert len(trace._segments) == 1
    rng = random.Random(3)
    for t in _probe_points(trace, rng):
        assert trace.at(t) == _reference_at(trace, t), t

