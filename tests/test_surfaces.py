import math

import numpy as np
import pytest

from catenary import (
    ConfigError,
    DegenerateMetricError,
    DomainError,
    catalog_surface,
    christoffel,
    eval_metric,
    load_profile_csv,
    ruled_metric,
    ruled_surface_from_samples,
    tabulated_profile,
)
from catenary.surfaces import _pchip
from oracles import fd1


def test_sphere_near_reference_curve():
    sphere = catalog_surface("sphere")
    g, gu, gv = eval_metric(sphere, 1e-12, 0.37)
    assert g == 1.0
    assert abs(gu) < 1e-9
    assert gv == 0.0


def test_catenoid_metric_at_one():
    catenoid = catalog_surface("catenoid")
    g, gu, gv = eval_metric(catenoid, 1.0, 2.0)
    assert g == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert gu == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert gv == 0.0


def test_grusin_metric_at_two():
    grusin = catalog_surface("grusin")
    assert eval_metric(grusin, 2.0, -1.0) == (0.5, -0.25, 0.0)


def test_eval_rejects_points_outside_domain():
    sphere = catalog_surface("sphere")
    with pytest.raises(DomainError):
        eval_metric(sphere, 0.0, 0.0)
    with pytest.raises(DomainError):
        eval_metric(sphere, -0.3, 0.0)
    with pytest.raises(DomainError):
        eval_metric(sphere, math.pi / 2, 0.0)


def test_extended_sphere_rejects_negative_G():
    extended = catalog_surface("sphere", extended=True)
    default = catalog_surface("sphere")
    assert eval_metric(extended, 1.5, 0.0)[0] == math.cos(1.5)
    # beyond pi/2 the point is in the extended domain but G = cos(u) <= 0
    with pytest.raises(DegenerateMetricError):
        eval_metric(extended, 1.8, 0.0)
    with pytest.raises(DomainError):
        eval_metric(default, 1.8, 0.0)


def test_christoffel_plane_vanishes():
    plane = catalog_surface("plane")
    assert christoffel(plane, 1.3, -0.7) == (0.0, 0.0, 0.0)


def test_christoffel_sphere_quarter():
    sphere = catalog_surface("sphere")
    c1, c2, c3 = christoffel(sphere, math.pi / 4, 0.0)
    assert c1 == pytest.approx(0.5, abs=1e-15)
    assert c2 == pytest.approx(-1.0, abs=1e-15)
    assert c3 == 0.0


def test_christoffel_grusin_unit():
    grusin = catalog_surface("grusin")
    assert christoffel(grusin, 1.0, 5.0) == (1.0, -1.0, 0.0)


def test_christoffel_algebraic_identities():
    rng = np.random.default_rng(7)
    for kind in ("sphere", "catenoid", "grusin", "hyperbolic", "cone"):
        spec = catalog_surface(kind)
        hi = 1.4 if kind == "sphere" else 4.0
        for _ in range(50):
            u = float(rng.uniform(0.1, hi))
            v = float(rng.uniform(-3.0, 3.0))
            g, gu, _ = eval_metric(spec, u, v)
            c1, c2, _ = christoffel(spec, u, v)
            assert c1 * c2 == pytest.approx(-gu * gu, rel=1e-12, abs=1e-15)
            assert c2 == pytest.approx(gu / g, rel=1e-12, abs=1e-15)


def test_catalog_matches_expected_profiles():
    sphere = catalog_surface("sphere")
    assert eval_metric(sphere, 0.9, 0.0)[0] == math.cos(0.9)
    assert sphere.domain.u_max == math.pi / 2

    helicoid = catalog_surface("helicoid")
    assert eval_metric(helicoid, 0.9, 0.0)[0] == math.sqrt(1 + 0.81)

    hyp = catalog_surface("hyperbolic", r=1.0)
    assert eval_metric(hyp, 0.9, 0.0)[0] == math.cosh(0.9)

    hyp2 = catalog_surface("hyperbolic", r=2.0)
    assert eval_metric(hyp2, 0.9, 0.0)[0] == math.cosh(0.45)

    grusin = catalog_surface("grusin")
    assert grusin.domain.u_min == 0.0
    assert grusin.domain.u_max == math.inf


def test_catalog_rejects_bad_input():
    with pytest.raises(ConfigError):
        catalog_surface("torus")
    with pytest.raises(ConfigError):
        catalog_surface("hyperbolic", r=-1.0)
    with pytest.raises(ConfigError):
        catalog_surface("cone", slope=0.0)
    with pytest.raises(ConfigError):
        catalog_surface("plane", r=1.0)


def test_finite_difference_partials_match_analytic():
    # 1000 random interior points per catalog surface
    rng = np.random.default_rng(42)
    boxes = {
        "plane": (0.1, 5.0), "cylinder": (0.1, 5.0), "sphere": (0.05, 1.5),
        "hyperbolic": (0.1, 3.0), "cone": (0.1, 5.0), "catenoid": (0.1, 5.0),
        "helicoid": (0.1, 5.0), "binormal": (0.1, 5.0), "grusin": (0.1, 5.0),
    }
    for kind, (lo, hi) in boxes.items():
        spec = catalog_surface(kind)
        us = rng.uniform(lo, hi, 1000)
        vs = rng.uniform(-3.0, 3.0, 1000)
        for u, v in zip(us, vs):
            u, v = float(u), float(v)
            _, gu, gv = eval_metric(spec, u, v)
            gu_fd = fd1(lambda x: spec.patch.metric(x, v)[0], u)
            gv_fd = fd1(lambda x: spec.patch.metric(u, x)[0], v)
            assert abs(gu - gu_fd) < 1e-6
            assert abs(gv - gv_fd) < 1e-6


def test_richardson_convergence_of_partials():
    # halving h divides the central-difference error by about four
    sphere = catalog_surface("sphere")
    for u in (0.3, 0.8, 1.2):
        _, gu, _ = eval_metric(sphere, u, 0.0)
        e1 = abs(fd1(lambda x: sphere.patch.metric(x, 0.0)[0], u, h=1e-3) - gu)
        e2 = abs(fd1(lambda x: sphere.patch.metric(x, 0.0)[0], u, h=5e-4) - gu)
        assert 2.0 < e1 / e2 < 8.0


def test_helicoid_catenoid_identical_metric():
    helicoid = catalog_surface("helicoid")
    catenoid = catalog_surface("catenoid")
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = float(rng.uniform(0.05, 8.0))
        v = float(rng.uniform(-5.0, 5.0))
        assert eval_metric(helicoid, u, v) == eval_metric(catenoid, u, v)


def test_binormal_tau_one_is_helicoid():
    helicoid = catalog_surface("helicoid")
    binormal = catalog_surface("binormal", tau=1.0)
    for u in (0.1, 0.7, 1.9, 6.3):
        assert eval_metric(binormal, u, 0.0) == eval_metric(helicoid, u, 0.0)


def test_ruled_metric_examples():
    # cylindrical: f = g = 0 gives the plane metric
    assert ruled_metric(lambda v: 0.0, lambda v: 0.0, 3.7, -1.0) == 1.0
    # helicoid: f = 0, g = 1
    assert ruled_metric(lambda v: 0.0, lambda v: 1.0, 1.0, 0.0) == math.sqrt(2.0)
    # binormal with constant torsion 2 at u = 1
    binormal = catalog_surface("binormal", tau=2.0)
    assert eval_metric(binormal, 1.0, 0.4)[0] == pytest.approx(math.sqrt(5.0), abs=1e-15)


def test_ruled_metric_degenerate():
    with pytest.raises(DegenerateMetricError):
        ruled_metric(lambda v: -1.0, lambda v: 0.0, 0.5, 0.0)


def test_ruled_surface_from_samples_partials():
    vs = np.linspace(-3.0, 3.0, 200)
    spec = ruled_surface_from_samples(vs, 0.3 * np.sin(vs), 0.5 + 0.2 * np.cos(vs))
    assert not spec.is_revolution
    for u, v in ((0.5, 0.1), (1.2, -1.33), (0.8, 2.0)):
        _, gu, gv = eval_metric(spec, u, v)
        assert abs(gu - fd1(lambda x: spec.patch.metric(x, v)[0], u)) < 1e-6
        assert abs(gv - fd1(lambda x: spec.patch.metric(u, x)[0], v)) < 1e-5


def test_tabulated_profile_matches_sphere():
    us = np.linspace(0.05, 1.5, 100)
    spec = tabulated_profile(list(zip(us, np.cos(us))))
    assert not spec.profile_warning
    sphere = catalog_surface("sphere")
    # interior grid: endpoint cells use one-sided derivative estimates
    for u in np.linspace(0.08, 1.47, 300):
        u = float(u)
        assert abs(eval_metric(spec, u, 0.0)[0] - eval_metric(sphere, u, 0.0)[0]) < 1e-6


def test_tabulated_profile_matches_cone():
    us = np.linspace(0.2, 3.0, 400)
    spec = tabulated_profile(list(zip(us, us / math.sqrt(2.0))))
    cone = catalog_surface("cone")
    for u in np.linspace(0.25, 2.9, 100):
        u = float(u)
        got = eval_metric(spec, u, 0.0)
        want = eval_metric(cone, u, 0.0)
        assert abs(got[0] - want[0]) < 1e-9
        assert abs(got[1] - want[1]) < 1e-7


def test_tabulated_profile_rejects_bad_samples():
    with pytest.raises(ConfigError):
        tabulated_profile([(0.1, 1.0), (0.2, -1.0), (0.3, 1.0), (0.4, 1.0)])
    with pytest.raises(ConfigError):
        tabulated_profile([(0.1, 1.0), (0.3, 1.0), (0.2, 1.0), (0.4, 1.0)])
    with pytest.raises(ConfigError):
        tabulated_profile([(0.1, 1.0), (0.2, 1.0), (0.3, 1.0)])


def test_tabulated_profile_realizability_warning():
    us = np.linspace(0.1, 2.0, 50)
    steep = tabulated_profile(list(zip(us, 2.0 * us)))  # a' = 2 > 1
    assert steep.profile_warning


def test_profile_csv_roundtrip(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("u,a\n0.1,1.0\n0.2,1.1\n0.3,1.15\n0.4,1.18\n")
    samples = load_profile_csv(path)
    assert samples == [(0.1, 1.0), (0.2, 1.1), (0.3, 1.15), (0.4, 1.18)]
    spec = tabulated_profile(samples)
    assert eval_metric(spec, 0.2, 0.0)[0] == pytest.approx(1.1, abs=1e-12)


def test_profile_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u,a\n0.1,one\n")
    with pytest.raises(ConfigError):
        load_profile_csv(path)


def test_catalog_positive_on_domain_grid():
    for kind in ("plane", "cylinder", "sphere", "hyperbolic", "cone",
                 "catenoid", "helicoid", "binormal", "grusin"):
        spec = catalog_surface(kind)
        hi = 1.5 if kind == "sphere" else 6.0
        for u in np.linspace(0.01, hi, 40):
            assert spec.patch.metric(float(u), 0.3)[0] > 0.0


def test_metric_overflow_is_degenerate_metric_error():
    # cosh(800) overflows; evaluate turns the OverflowError into a library error
    with pytest.raises(DegenerateMetricError):
        eval_metric(catalog_surface("hyperbolic"), 800.0, 0.0)


def test_tabulated_profile_rejects_non_finite_samples():
    for bad in ((math.inf, 1.0), (0.4, math.inf), (0.4, math.nan)):
        with pytest.raises(ConfigError, match="must be finite"):
            tabulated_profile([(0.1, 1.0), (0.2, 1.0), (0.3, 1.0), bad])
    for bad in (("x", 1.0), (0.4, "x"), (0.4, None), (0.4, 1.0, 2.0), 0.4):
        with pytest.raises(ConfigError, match="pairs of numbers"):
            tabulated_profile([(0.1, 1.0), (0.2, 1.0), (0.3, 1.0), bad])


def test_ruled_surface_from_samples_rejects_bad_samples():
    vs = [0.0, 0.5, 1.0, 1.5, 2.0]
    fs = [0.1, 0.2, 0.1, 0.0, -0.1]
    gs = [0.5, 0.4, 0.6, 0.5, 0.5]
    for bad in (math.nan, math.inf, -math.inf):
        for which in range(3):
            columns = [list(vs), list(fs), list(gs)]
            columns[which][2] = bad
            with pytest.raises(ConfigError, match="must be finite"):
                ruled_surface_from_samples(*columns)
    for columns in ((vs, fs[:-1], gs), (vs, fs, gs + [0.5]), (vs[:-1], fs, gs)):
        with pytest.raises(ConfigError, match="one f and one g sample per v"):
            ruled_surface_from_samples(*columns)
    for which in range(3):
        columns = [list(vs), list(fs), list(gs)]
        columns[which][3] = "x"
        with pytest.raises(ConfigError, match="sequences of numbers"):
            ruled_surface_from_samples(*columns)
    with pytest.raises(ConfigError, match="sequences of numbers"):
        ruled_surface_from_samples([0, 1, 2, "x"], fs[:4], gs[:4])


def _random_profile(rng, n):
    x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
    y = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-3, 4, n)
    flat = rng.random(n) < 0.2  # flat runs: repeat the previous value
    for k in range(1, n):
        if flat[k]:
            y[k] = y[k - 1]
    y[rng.random(n) < 0.1] = 0.0  # exact zeros, slope sign changes around them
    return x, y


@pytest.mark.parametrize("seed", range(6))
def test_pchip_matches_scipy_bit_for_bit(seed):
    # scipy serves only as the oracle here: the library never imports it
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(seed)
    for n in (4, 5, 6, 13, 40, 400, *rng.integers(4, 401, 4)):
        x, y = _random_profile(rng, int(n))
        ref = PchipInterpolator(x, y)
        pts = np.concatenate([
            x,
            rng.uniform(x[0], x[-1], 50),
            rng.uniform(x[0] - 2.0, x[0], 5),  # outside the knots
            rng.uniform(x[-1], x[-1] + 2.0, 5),
        ])
        a, a_u, a_uu, metric = _pchip(x, y)
        for fn, oracle in zip((a, a_u, a_uu), (ref, ref.derivative(), ref.derivative(2))):
            got = np.array([fn(t) for t in pts.tolist()])
            np.testing.assert_array_equal(got.view(np.int64), oracle(pts).view(np.int64))
        # the fused kernel a tabulated profile's patch uses: (a, a', 0.0) per point
        got = np.array([metric(t, v) for t, v in zip(pts.tolist(), pts[::-1].tolist())])
        want = np.stack([ref(pts), ref.derivative()(pts), np.zeros(len(pts))], axis=1)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
