"""Work ledger: pinned counts of the work a fixed set of calls does.

Two ledgers, both plain counts that do not depend on the host's speed:

* GK21 rules (and GK15 rules of the infinite-range transform) that QUADPACK
  applies for a fixed list of ``quadrature_v``, ``conformal_coordinate`` and
  ``embed_revolution`` calls, on a catalog profile and on a 40-knot tabulated
  one.  They are counted by wrapping ``quadpack._qk21`` and ``quadpack._qk15i``.
* The sorted ``catenary.*`` modules that each CLI subcommand leaves in
  ``sys.modules``, one fresh interpreter per subcommand.

A change that moves a count must say why; a refactor that claims to keep the
work as it was leaves this file untouched.
"""

from __future__ import annotations

import math
import subprocess
import sys

import pytest

from catenary import (
    catalog_surface,
    conformal_coordinate,
    embed_revolution,
    quadrature_v,
    tabulated_profile,
    turning_points,
)
from catenary import quadpack


def _tabulated():
    """a = 1 + 0.3 sin 2u on the 40 knots u = 0.1 + 0.05 i: |a'| <= 0.6, realizable."""
    us = [0.1 + 0.05 * i for i in range(40)]
    return tabulated_profile([(u, 1.0 + 0.3 * math.sin(2.0 * u)) for u in us])


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

# every subcommand imports the package; quadpack loads on the first integral and
# validation only for validate
_PACKAGE = ["catenary", "catenary.cli", "catenary.closed_forms", "catenary.curvature",
            "catenary.errors", "catenary.revolution", "catenary.surfaces", "catenary.tracing"]
CLI_MODULES = {
    "catalog": _PACKAGE,
    "trace": _PACKAGE,
    "trace --embed": sorted(_PACKAGE + ["catenary.quadpack"]),
    "trace-graph": _PACKAGE,
    "clairaut": _PACKAGE,
    "stability": _PACKAGE,
    "quadrature": sorted(_PACKAGE + ["catenary.quadpack"]),
    "validate": sorted(_PACKAGE + ["catenary.quadpack", "catenary.validation"]),
}


@pytest.mark.parametrize("name", sorted(_CLI))
def test_cli_module_sets_are_pinned(name):
    code = ("import contextlib, io, sys; from catenary.cli import run\n"
            f"with contextlib.redirect_stdout(io.StringIO()): code = run({_CLI[name]!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'catenary'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == f"0 {CLI_MODULES[name]!r}"
