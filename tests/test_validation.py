"""The validation suite's own shortcuts against the public functions and oracles."""

import math
import subprocess
import sys
from types import SimpleNamespace

import pytest

from catenary import (
    CatenaryState,
    CurveJet2,
    SingularJetError,
    catalog_surface,
    catenary_residual,
    catenary_target_curvature,
    geodesic_curvature,
)
from catenary import validation
import oracles
from oracles import conformal_geodesic_oracle


def _recording(fn, log):
    """fn, appending (args, result) of each call to log."""
    def recorder(*args):
        result = fn(*args)
        log.append((args, result))
        return result
    return recorder


def test_jet_criteria_match_public_functions_bit_for_bit(monkeypatch):
    # the check's own kappa, residual and target on the first 300 jets of each
    # surface, recorded as the check runs: each jet forms one target, and its own
    # (kappa, residual) comes before those of its twins, which differ only in ddv
    targets, criteria = [], []
    monkeypatch.setattr(validation, "_target", _recording(validation._target, targets))
    monkeypatch.setattr(validation, "_kappa_residual",
                        _recording(validation._kappa_residual, criteria))
    assert validation.check_criterion_equivalence()[0].passed
    jets = [(args[4:], result) for k, (args, result) in enumerate(criteria)
            if k == 0 or args[4:8] != criteria[k - 1][0][4:8]]
    per_surface = validation._JETS_PER_SURFACE
    assert len(jets) == len(targets) == 9 * per_surface + 100
    for j, kind in enumerate(validation._JET_BOXES):
        spec = catalog_surface(kind)
        for k in range(j * per_surface, j * per_surface + 300):
            (jet, (kappa, r)), target = jets[k], targets[k][1]
            public = CurveJet2(*jet)
            want = (catenary_residual(spec, 1.0, public), geodesic_curvature(spec, public),
                    catenary_target_curvature(spec, 1.0, public))
            assert [x.hex() for x in (r, kappa, target)] == [x.hex() for x in want], (kind, jet)


@pytest.mark.parametrize("kind", sorted(validation._JET_BOXES))
def test_jet_boxes_lie_inside_their_domains(kind):
    # the check reads the kernel unchecked at u in [u_lo, u_hi), v in [-3, 3)
    u_lo, u_hi = validation._JET_BOXES[kind]
    u_min, u_max, v_min, v_max = catalog_surface(kind).domain
    assert u_min < u_lo < u_hi < u_max
    assert (v_min, v_max) == (-math.inf, math.inf)


def test_criterion_equivalence_loads_no_numpy():
    # the random jets come from random.Random, so the check needs no numpy
    code = ("import sys; from catenary.validation import check_criterion_equivalence; "
            "results = check_criterion_equivalence(); "
            "print(all(r.passed for r in results), results[0].detail, "
            "sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "True 0 disagreements out of 108100 jets []"


def test_jet_criteria_reject_zero_velocity(monkeypatch):
    monkeypatch.setattr(validation, "_jet_draws",
                        lambda rng, u_lo, u_hi: iter([(u_lo, 0.0, 0.0, 0.0, 1.0, 0.0)]))
    with pytest.raises(SingularJetError):
        validation.check_criterion_equivalence()


@pytest.mark.parametrize("kind, alpha, start, s_span", [
    ("sphere", 1.0, CatenaryState(0.7, 0.0, math.pi / 2), 2.0),
    ("catenoid", 1.0, CatenaryState(1.0, 0.0, math.pi / 4), 2.0),
    ("sphere", 0.0, CatenaryState(0.7, 0.0, 1.0), 3.0),
])
def test_arc_length_conformal_geodesic_matches_affine_oracle(kind, alpha, start, s_span):
    spec = catalog_surface(kind)
    geodesic = validation.conformal_geodesic(spec, alpha, start, s_span)
    oracle = conformal_geodesic_oracle(spec, alpha, start.u, start.v, start.phi, s_span)
    for k in range(20):
        s = s_span * k / 19
        (u, v), (ou, ov) = geodesic(s), oracle(s)
        assert abs(u - ou) < 1e-9 and abs(v - ov) < 1e-9, s
    with pytest.raises(ValueError, match="too short"):
        geodesic(1.01 * s_span)


@pytest.mark.parametrize("start", [CatenaryState(0.7, 0.0, 1.0), CatenaryState(0.2, 0.5, 2.5)])
def test_conformal_geodesic_on_sphere_is_great_circle(start):
    # alpha = 0 on the unit sphere (u latitude): x(s) = x0 cos s + t0 sin s
    def point(u, v):
        return (math.cos(u) * math.cos(v), math.cos(u) * math.sin(v), math.sin(u))

    u0, v0, phi0 = start.u, start.v, start.phi
    x0 = point(u0, v0)
    t0 = (-math.cos(phi0) * math.sin(u0) * math.cos(v0) - math.sin(phi0) * math.sin(v0),
          -math.cos(phi0) * math.sin(u0) * math.sin(v0) + math.sin(phi0) * math.cos(v0),
          math.cos(phi0) * math.cos(u0))
    sphere = catalog_surface("sphere")
    geodesic = validation.conformal_geodesic(sphere, 0.0, start, 3.0)
    for k in range(61):
        s = 3.0 * k / 60
        got = point(*geodesic(s))
        want = [a * math.cos(s) + b * math.sin(s) for a, b in zip(x0, t0)]
        assert max(abs(p - q) for p, q in zip(got, want)) < 1e-9, s
    # a query below the last one starts again from s = 0, as a fresh oracle does
    assert geodesic(1.5) == validation.conformal_geodesic(sphere, 0.0, start, 3.0)(1.5)


def test_conformal_geodesic_rounds_the_cone_apex_by_the_clairaut_sweep():
    # phi = pi in floats leaves c = rho(u) sin(phi) of about 1e-18: the curve
    # turns at u of about 1e-9 instead of meeting the apex, where v sweeps by
    # int 2c du / (a sqrt(rho^2 - c^2)) = pi / (2 slope) for rho = slope u^2
    cone = catalog_surface("cone")
    slope = cone.params["slope"]
    start = CatenaryState(0.1, 0.0, math.pi)
    geodesic = validation.conformal_geodesic(cone, 1.0, start, 0.5)
    assert 0.0 < geodesic(0.1)[0] < 1e-8  # closest to the apex; v is mid-sweep here
    u, v = geodesic(0.5)
    assert u == pytest.approx(0.4, abs=1e-8)
    assert v == pytest.approx(math.pi / (2.0 * slope), abs=1e-9)


def test_conformal_geodesic_stops_on_nan_metric():
    # a metric that turns NaN past u = 0.8: every step there is rejected
    # until the step size underflows, which ends the oracle
    patch = SimpleNamespace(metric=lambda u, v: (math.nan if u > 0.8 else 1.0, 0.0, 0.0))
    geodesic = validation.conformal_geodesic(SimpleNamespace(patch=patch), 0.0,
                                             CatenaryState(0.7, 0.0, 0.0), 1.0)
    assert geodesic(0.05) == pytest.approx((0.75, 0.0), abs=1e-12)
    with pytest.raises(ValueError, match="too short"):
        geodesic(0.2)


def test_sphere_reference_root_is_the_correctly_rounded_root():
    import mpmath

    with mpmath.workdps(50):
        root = mpmath.findroot(lambda u: mpmath.cos(u) - u * mpmath.sin(u), 0.86)
    assert validation._USTAR == oracles.USTAR == float(root)
