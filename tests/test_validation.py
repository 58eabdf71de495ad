"""The validation suite's own shortcuts against the public functions and oracles."""

import math
from itertools import islice

import numpy as np
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
from oracles import conformal_geodesic_oracle


def test_jet_criteria_match_public_functions_bit_for_bit():
    # the first 300 jets of each surface, drawn as check_criterion_equivalence draws them
    rng = np.random.default_rng(validation._JET_SEED)
    for kind, box in validation._JET_BOXES.items():
        spec = catalog_surface(kind)
        for jet in islice(validation._jet_draws(rng, *box), 300):
            g, gu, gv = spec.patch.evaluate(jet[0], jet[1])
            got = validation._jet_criteria(g, gu, gv, *jet)
            public = CurveJet2(*jet)
            want = (catenary_residual(spec, 1.0, public), geodesic_curvature(spec, public),
                    catenary_target_curvature(spec, 1.0, public))
            assert [x.hex() for x in got] == [x.hex() for x in want], (kind, jet)


def test_jet_criteria_reject_zero_velocity():
    g, gu, gv = catalog_surface("sphere").patch.evaluate(0.7, 0.0)
    with pytest.raises(SingularJetError):
        validation._jet_criteria(g, gu, gv, 0.7, 0.0, 0.0, 0.0, 1.0, 0.0)


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
