import math

import numpy as np
import pytest

from catenary import (
    ConfigError,
    CurveJet2,
    DomainError,
    SingularJetError,
    catalog_surface,
    catenary_residual,
    catenary_target_curvature,
    closed_form_family,
    geodesic_curvature,
    normal_transversality,
    parallel_catenary_check,
)
from oracles import USTAR, bisect


def circle_jet(t, radius=1.0, center=2.0):
    # (u, v) = (center + r cos t, r sin t): an ordinary plane circle
    return CurveJet2(
        u=center + radius * math.cos(t), v=radius * math.sin(t),
        du=-radius * math.sin(t), dv=radius * math.cos(t),
        ddu=-radius * math.cos(t), ddv=-radius * math.sin(t),
    )


def graph_jet(u, v, du, ddu):
    return CurveJet2(u=u, v=v, du=du, dv=1.0, ddu=ddu, ddv=0.0)


def random_jets(kind, n, seed=11):
    spec = catalog_surface(kind)
    hi = 1.4 if kind == "sphere" else 4.0
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield spec, CurveJet2(
            u=float(rng.uniform(0.1, hi)), v=float(rng.uniform(-3.0, 3.0)),
            du=float(rng.normal()), dv=float(rng.normal()),
            ddu=float(rng.normal()), ddv=float(rng.normal()),
        )


def test_plane_circle_has_curvature_minus_one():
    plane = catalog_surface("plane")
    for t in (0.0, 0.7, 2.0, 4.5):
        assert geodesic_curvature(plane, circle_jet(t)) == pytest.approx(-1.0, abs=1e-12)


def test_meridian_jets_are_geodesics():
    for kind in ("sphere", "catenoid", "grusin", "cone"):
        spec = catalog_surface(kind)
        jet = CurveJet2(u=0.8, v=0.3, du=1.7, dv=0.0, ddu=0.4, ddv=0.0)
        assert geodesic_curvature(spec, jet) == 0.0


def test_sphere_parallel_curvature_is_tan():
    sphere = catalog_surface("sphere")
    for u0 in (0.3, USTAR, 1.2):
        jet = CurveJet2(u=u0, v=0.0, du=0.0, dv=1.0, ddu=0.0, ddv=0.0)
        assert geodesic_curvature(sphere, jet) == pytest.approx(math.tan(u0), rel=1e-14)


def test_target_curvature_examples():
    plane = catalog_surface("plane")
    assert catenary_target_curvature(plane, 1.0, graph_jet(2.0, 0.0, 5.0, 0.0)) != 0.0
    # meridian direction: proportional to dv
    jet = CurveJet2(u=2.0, v=0.0, du=1.0, dv=0.0, ddu=0.0, ddv=0.0)
    assert catenary_target_curvature(plane, 1.0, jet) == 0.0
    # unit-speed horizontal jet on the plane at u = 2
    jet = CurveJet2(u=2.0, v=0.0, du=0.0, dv=1.0, ddu=0.0, ddv=0.0)
    assert catenary_target_curvature(plane, 1.0, jet) == pytest.approx(0.5, abs=1e-15)
    # unit-speed parallel on the sphere at the critical parallel
    jet = CurveJet2(u=USTAR, v=0.0, du=0.0, dv=1.0 / math.cos(USTAR), ddu=0.0, ddv=0.0)
    assert catenary_target_curvature(catalog_surface("sphere"), 1.0, jet) == \
        pytest.approx(1.0 / USTAR, rel=1e-14)
    assert 1.0 / USTAR == pytest.approx(1.162, abs=5e-4)


def test_residual_vanishes_on_euclidean_solution():
    plane = catalog_surface("plane")
    for t in np.linspace(-2.0, 2.0, 25):
        jet = graph_jet(math.cosh(t), float(t), math.sinh(t), math.cosh(t))
        assert abs(catenary_residual(plane, 1.0, jet)) < 1e-14


def test_residual_vanishes_on_meridians():
    for kind in ("sphere", "catenoid", "grusin"):
        spec = catalog_surface(kind)
        jet = CurveJet2(u=1.1, v=0.2, du=-0.6, dv=0.0, ddu=1.9, ddv=0.0)
        assert catenary_residual(spec, 2.3, jet) == 0.0


def test_residual_of_horizontal_line_is_alpha_over_u():
    plane = catalog_surface("plane")
    jet = graph_jet(2.0, 0.0, 0.0, 0.0)
    assert catenary_residual(plane, 1.0, jet) == pytest.approx(0.5, abs=1e-15)
    # a geodesic, but not a weighted critical curve
    assert geodesic_curvature(plane, jet) == 0.0


def test_normal_transversality_examples():
    plane = catalog_surface("plane")
    jet = CurveJet2(u=1.0, v=0.0, du=2.0, dv=0.0, ddu=0.0, ddv=0.0)
    assert normal_transversality(plane, jet) == 0.0
    sphere = catalog_surface("sphere")
    g = math.cos(0.9)
    jet = CurveJet2(u=0.9, v=0.0, du=0.0, dv=1.0 / g, ddu=0.0, ddv=0.0)
    assert normal_transversality(sphere, jet) == pytest.approx(-1.0, abs=1e-15)
    r = 1.0 / math.sqrt(2.0)
    jet = CurveJet2(u=1.0, v=0.0, du=r, dv=r, ddu=0.0, ddv=0.0)
    assert normal_transversality(plane, jet) == pytest.approx(-r, abs=1e-15)


def test_parallel_check_sphere_cylinder_cone():
    vs = np.linspace(-3.0, 3.0, 17)
    sphere = catalog_surface("sphere")
    root = bisect(lambda u: math.cos(u) - u * math.sin(u), 0.5, 1.5)
    assert parallel_catenary_check(sphere, 1.0, root, vs)
    assert not parallel_catenary_check(sphere, 1.0, 0.5, vs)
    assert not parallel_catenary_check(catalog_surface("cylinder"), 1.0, 1.7, vs)
    assert not parallel_catenary_check(catalog_surface("cone"), 1.0, 2.2, vs)
    with pytest.raises(DomainError):
        parallel_catenary_check(sphere, 1.0, -1.0, vs)


def test_grusin_every_parallel_is_critical():
    # alpha*G + u*G_u = 1/u - 1/u vanishes identically for alpha = 1
    grusin = catalog_surface("grusin")
    vs = np.linspace(-2.0, 2.0, 9)
    for u0 in (0.3, 1.0, 4.2):
        assert parallel_catenary_check(grusin, 1.0, u0, vs)
        assert not parallel_catenary_check(grusin, 2.0, u0, vs)


def test_singular_jet_rejected():
    plane = catalog_surface("plane")
    jet = CurveJet2(u=1.0, v=0.0, du=0.0, dv=0.0, ddu=1.0, ddv=0.0)
    for fn in (geodesic_curvature,
               lambda s, j: catenary_target_curvature(s, 1.0, j),
               lambda s, j: catenary_residual(s, 1.0, j),
               normal_transversality):
        with pytest.raises(SingularJetError):
            fn(plane, jet)


def test_reparametrization_invariance():
    for kind in ("plane", "sphere", "catenoid", "grusin", "hyperbolic"):
        for spec, jet in random_jets(kind, 60):
            for c in (0.5, 2.0, 7.3):
                scaled = CurveJet2(u=jet.u, v=jet.v, du=c * jet.du, dv=c * jet.dv,
                                   ddu=c * c * jet.ddu, ddv=c * c * jet.ddv)
                for fn in (geodesic_curvature,
                           lambda s, j: catenary_target_curvature(s, 1.0, j),
                           lambda s, j: catenary_residual(s, 1.0, j)):
                    a, b = fn(spec, jet), fn(spec, scaled)
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-13)


def test_residual_equals_target_minus_curvature():
    for kind in ("plane", "sphere", "catenoid", "grusin"):
        for spec, jet in random_jets(kind, 100, seed=5):
            r = catenary_residual(spec, 1.0, jet)
            k = geodesic_curvature(spec, jet)
            t = catenary_target_curvature(spec, 1.0, jet)
            assert r == pytest.approx(t - k, rel=1e-10, abs=1e-12)


def test_alpha_zero_residual_is_minus_curvature():
    for spec, jet in random_jets("catenoid", 100, seed=9):
        r = catenary_residual(spec, 0.0, jet)
        k = geodesic_curvature(spec, jet)
        assert r == pytest.approx(-k, rel=1e-10, abs=1e-12)


def test_curvature_equals_normal_relation_on_solutions():
    # kappa = -alpha * <n, X> / u whenever the residual vanishes
    plane = catalog_surface("plane")
    fam = closed_form_family("euclidean", mu=1.3, nu=0.2)
    for t in np.linspace(-1.5, 1.5, 21):
        jet = graph_jet(fam.value(t), float(t), fam.d1(t), fam.d2(t))
        k = geodesic_curvature(plane, jet)
        n_dot = normal_transversality(plane, jet)
        assert k == pytest.approx(-1.0 * n_dot / jet.u, rel=1e-12)


@pytest.mark.parametrize("call, message", [
    ("parallel_catenary_check(sphere, math.nan, 0.5, [0.0])", "alpha=nan must be finite"),
    ("parallel_catenary_check(sphere, 1.0, 0.5, [0.0], tol=math.nan)", "tol=nan must be finite"),
    ("parallel_catenary_check(sphere, 'x', 0.5, [0.0])", "alpha='x' is not a number"),
    ("parallel_catenary_check(sphere, 1.0, 0.86, 5)",
     "v_samples of type int is not a sequence of numbers"),
    ("parallel_catenary_check(sphere, 1.0, 0.86, 10**5000)",
     "v_samples of type int is not a sequence of numbers"),
    ("catenary_target_curvature(sphere, math.nan, CurveJet2(0.5, 0.0, 1.0, 0.0, 0.0, 0.0))",
     "alpha=nan must be finite"),
    ("catenary_residual(sphere, 1.0, CurveJet2(0.5, 0.0, 1.0, math.inf, 0.0, 0.0))",
     "dv=inf must be finite"),
    ("catenary_residual(sphere, 'x', CurveJet2(0.5, 0.0, 1.0, 0.0, 0.0, 0.0))",
     "alpha='x' is not a number"),
    ("normal_transversality(sphere, CurveJet2(0.5, 0.0, 1.0, math.nan, 0.0, 0.0))",
     "dv=nan must be finite"),
    ("geodesic_curvature(sphere, CurveJet2(0.5, 0.0, 'x', 0.0, 0.0, 0.0))",
     "du='x' is not a number"),
])
def test_curvature_checks_its_numbers(call, message):
    # these once returned True (a wrong answer), nan, raised SingularJetError or
    # leaked a TypeError
    with pytest.raises(ConfigError) as info:
        eval(call, globals(), {"sphere": catalog_surface("sphere")})
    assert str(info.value) == message
