import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from catenary import (
    ConfigError,
    DegenerateMetricError,
    DomainError,
    NotRealizableError,
    catalog_surface,
    embed_revolution,
    eval_metric,
    load_profile_csv,
    profile_surface,
    ruled_surface,
    ruled_surface_from_samples,
    tabulated_profile,
)
from catenary.surfaces import _linspace, _pchip
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


def test_numbers_of_other_types_are_coordinates():
    # Decimal is refused (tests/test_api.py); these compare with and add to floats
    hyperbolic = catalog_surface("hyperbolic")
    for u in (Fraction(3, 10), np.float64(0.3), np.float32(0.3), np.int64(1), True, 1):
        assert eval_metric(hyperbolic, u, 0.0)[0] > 0.0


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
    # every parameter goes through float(), as the CLI's strings do
    from_text = catalog_surface("hyperbolic", r="2")
    assert (from_text.params, from_text.identifier) == ({"r": 2.0}, hyp2.identifier)
    assert eval_metric(from_text, 0.9, 0.3) == eval_metric(hyp2, 0.9, 0.3)

    grusin = catalog_surface("grusin")
    assert grusin.domain.u_min == 0.0
    assert grusin.domain.u_max == math.inf


def test_catalog_rejects_bad_input():
    with pytest.raises(ConfigError):
        catalog_surface("torus")
    # an unhashable kind leaked TypeError from the lookup
    with pytest.raises(ConfigError, match="unknown surface kind"):
        catalog_surface([])
    with pytest.raises(ConfigError):
        catalog_surface("hyperbolic", r=-1.0)
    with pytest.raises(ConfigError):
        catalog_surface("cone", slope=0.0)
    with pytest.raises(ConfigError):
        catalog_surface("plane", r=1.0)
    with pytest.raises(ConfigError, match="not a number"):
        catalog_surface("cone", slope="x")
    with pytest.raises(ConfigError, match="must be finite"):
        catalog_surface("cone", slope=math.inf)
    # the kind is positional only, so a parameter named kind is just unknown
    with pytest.raises(ConfigError, match="unknown parameter"):
        catalog_surface("sphere", kind=1.0)


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


def _ruled(f, g):
    return ruled_surface(lambda v: f, lambda v: g, lambda v: 0.0, lambda v: 0.0)


def test_ruled_metric_examples():
    # cylindrical: f = g = 0 gives the plane metric
    assert eval_metric(_ruled(0.0, 0.0), 3.7, -1.0) == (1.0, 0.0, 0.0)
    # helicoid: f = 0, g = 1
    assert eval_metric(_ruled(0.0, 1.0), 1.0, 0.0)[0] == math.sqrt(2.0)
    # binormal with constant torsion 2 at u = 1
    binormal = catalog_surface("binormal", tau=2.0)
    assert eval_metric(binormal, 1.0, 0.4)[0] == pytest.approx(math.sqrt(5.0), abs=1e-15)


def test_ruled_metric_degenerate():
    with pytest.raises(DegenerateMetricError):
        eval_metric(_ruled(-1.0, 0.0), 0.5, 0.0)


CATALOG_CASES = [
    ("plane", {}), ("cylinder", {}), ("sphere", {}), ("sphere", {"extended": True}),
    ("hyperbolic", {}), ("hyperbolic", {"r": 2.0}), ("cone", {}), ("cone", {"slope": 0.5}),
    ("catenoid", {}), ("helicoid", {}), ("binormal", {}), ("binormal", {"tau": 2.0}),
    ("grusin", {}), ("cone", {"slope": 2.0}), ("binormal", {"tau": 0.5}),
]


# each catalog kind's a(u) in closed form, for mpmath
CLOSED_FORM_A = {
    "plane": lambda u, p: mpmath.mpf(1), "cylinder": lambda u, p: mpmath.mpf(1),
    "sphere": lambda u, p: mpmath.cos(u), "hyperbolic": lambda u, p: mpmath.cosh(u / p["r"]),
    "cone": lambda u, p: p["slope"] * u, "catenoid": lambda u, p: mpmath.sqrt(1 + u * u),
    "helicoid": lambda u, p: mpmath.sqrt(1 + u * u),
    "binormal": lambda u, p: mpmath.sqrt(1 + (p["tau"] * u) ** 2),
    "grusin": lambda u, p: 1 / u,
}


@pytest.mark.parametrize("kind, params", CATALOG_CASES)
def test_catalog_kernel_and_a_uu_match_mpmath_derivatives(kind, params):
    # the kernel's a and a' and the profile's a'' against the closed form's derivatives,
    # taken by mpmath at 40 digits at the exact float u
    spec = catalog_surface(kind, **params)
    a, top = CLOSED_FORM_A[kind], min(spec.domain.u_max, 30.0)
    rng = np.random.default_rng(20261020)
    us = [*rng.uniform(0.0, top, 190).tolist(), *(10.0 ** rng.uniform(-9, 0, 10)).tolist()]
    with mpmath.workdps(40):
        for u in us:
            g, g_u, g_v = spec.patch.metric(u, 0.3)
            assert g_v == 0.0
            for order, value in enumerate((g, g_u, spec.profile.a_uu(u))):
                want = mpmath.diff(lambda t: a(t, spec.params), mpmath.mpf(u), order)
                assert abs(value - want) <= 2e-15 * abs(want), (u, order)


@pytest.mark.parametrize("kind, params", CATALOG_CASES)
def test_catalog_profile_warning_is_max_slope_above_one(kind, params):
    # hyperbolic sinh(u/r)/r is unbounded, Grusin's 1/u^2 exceeds 1 below u = 1, the
    # cone's slope is constant and the binormal a' tends to tau; sin u stays <= 1
    spec = catalog_surface(kind, **params)
    top = min(spec.domain.u_max, 30.0)
    slope_max = max(abs(spec.profile.a_u(top * k / 3000)) for k in range(1, 3000))
    assert spec.profile_warning == (slope_max > 1.0)


def test_ruled_surface_from_samples_partials():
    vs = np.linspace(-3.0, 3.0, 200)
    spec = ruled_surface_from_samples(vs, 0.3 * np.sin(vs), 0.5 + 0.2 * np.cos(vs))
    assert not spec.is_revolution
    for u, v in ((0.5, 0.1), (1.2, -1.33), (0.8, 2.0)):
        _, gu, gv = eval_metric(spec, u, v)
        assert abs(gu - fd1(lambda x: spec.patch.metric(x, v)[0], u)) < 1e-6
        assert abs(gv - fd1(lambda x: spec.patch.metric(u, x)[0], v)) < 1e-5


def test_fused_ruled_kernel_matches_four_callables_bit_for_bit():
    from catenary import CatenaryState, trace_catenary, trace_graph

    # the samples look like a profile_analysis ruled op: 40 v samples on [-3, 3]
    vs = [-3.0 + 6.0 * j / 39 for j in range(40)]
    fs = [0.04 + 0.1 * math.sin(v + 2.1) for v in vs]
    gs = [0.6 + 0.2 * math.cos(2 * v + 0.7) for v in vs]
    fused = ruled_surface_from_samples(vs, fs, gs)
    (f_jet, *_), (g_jet, *_) = _pchip(vs, fs), _pchip(vs, gs)
    f, f_v = (lambda v: f_jet(v, 0.0)[0]), (lambda v: f_jet(v, 0.0)[1])
    g, g_v = (lambda v: g_jet(v, 0.0)[0]), (lambda v: g_jet(v, 0.0)[1])
    separate = ruled_surface(f, g, f_v, g_v, v_range=(vs[0], vs[-1]))
    pts = [(0.05 + 2.9 * i / 36, -2.99 + 5.98 * j / 70) for i in range(37) for j in range(71)]
    pts += [(0.7, v) for v in vs[1:-1]]  # on the knots
    got = np.array([fused.patch.evaluate(u, v) for u, v in pts])
    want = np.array([separate.patch.evaluate(u, v) for u, v in pts])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    # the same expressions as sqrt(1 + 2 u f + u^2 g) and its partials
    for (u, v), row in zip(pts, got.tolist()):
        root = math.sqrt(1.0 + 2.0 * u * f(v) + u * u * g(v))
        assert row == [root, (f(v) + u * g(v)) / root,
                       (u * f_v(v) + 0.5 * u * u * g_v(v)) / root]
    flows = [trace_catenary(spec, 1.0, CatenaryState(1.2, -1.0, 0.9), 2.0, 1e-9)
             for spec in (fused, separate)]
    graphs = [trace_graph(spec, 1.0, 1.2, 0.4, (-1.0, -0.7), 1e-9)
              for spec in (fused, separate)]
    for a, b in (flows, graphs):
        assert len(a.samples) > 10
        assert (a.samples, a.stats, a.termination) == (b.samples, b.stats, b.termination)


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


def test_tabulated_profile_rejects_negative_u():
    # u is a distance, as profile_surface requires; at u < 0 the Clairaut
    # constant came out complex and the root scan had no range to run on
    with pytest.raises(ConfigError, match="u samples must be >= 0"):
        tabulated_profile([(-1.0, 1.0), (0.0, 1.2), (1.0, 1.1), (2.0, 1.0), (3.0, 1.3)])
    assert tabulated_profile([(0.0, 1.2), (1.0, 1.1), (2.0, 1.0), (3.0, 1.3)]).domain.u_min == 0.0


def test_tabulated_profile_realizability_warning():
    us = np.linspace(0.1, 2.0, 50)
    steep = tabulated_profile(list(zip(us, 2.0 * us)))  # a' = 2 > 1
    assert steep.profile_warning


def test_realizability_warning_sees_a_slope_peak_inside_a_piece():
    # secants 0.1, 1, 0.1: the knot slopes stay near 0.18 and a' peaks at
    # u = 1.5, the vertex of the middle piece.  Scaled so that the peak is
    # 1 + 1e-9, it escapes a 2000-point grid over [0, 3].
    shape = [(0.0, 0.0), (1.0, 0.1), (2.0, 1.1), (3.0, 1.2)]
    peak = tabulated_profile([(u, 2.0 + a) for u, a in shape]).profile.a_u(1.5)
    scale = (1.0 + 1e-9) / peak
    spec = tabulated_profile([(u, 2.0 + scale * a) for u, a in shape])
    assert spec.profile_warning
    a_u = spec.profile.a_u
    assert 1.0 + 5e-10 < abs(a_u(1.5)) < 1.0 + 2e-9
    assert max(abs(a_u(u)) for u in np.linspace(0.0, 3.0, 2000).tolist()) < 1.0
    assert max(abs(a_u(u)) for u in (0.0, 1.0, 2.0, 3.0)) < 0.5
    flatter = tabulated_profile([(u, 2.0 + (1.0 - 1e-9) / peak * a) for u, a in shape])
    assert not flatter.profile_warning


def test_profile_csv_roundtrip(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("u,a\n0.1,1.0\n0.2,1.1\n\n0.3,1.15\n0.4,1.18\n")  # a blank row is skipped
    samples = load_profile_csv(path)
    assert samples == [(0.1, 1.0), (0.2, 1.1), (0.3, 1.15), (0.4, 1.18)]
    spec = tabulated_profile(samples)
    assert eval_metric(spec, 0.2, 0.0)[0] == pytest.approx(1.1, abs=1e-12)


def test_profile_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    for text, message in (("u,a\n0.1,one\n", "non-numeric value"), ("", "empty profile file"),
                          ("u,a\n0.1,1.0\n0.2\n", ":3: expected two columns")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_profile_csv(path)


@pytest.mark.parametrize("a, u_range, message", [
    (math.cos, (-0.5, 1.0), "bad profile u-range"),
    (math.cos, (1.0, 1.0), "bad profile u-range"),
    (math.cos, (0.0, math.nan), "bad profile u-range"),
    (math.cos, (0.0, 2.0), "must be positive"),  # cos u < 0 past pi/2
    (lambda u: 0.0, (0.0, 1.0), "must be positive"),
    # an unbounded domain is probed out to max(100, 10 u_min): a turns negative
    # at u = 20, and cosh overflows past u = 710
    (lambda u: 1.0 - u / 20.0, (0.0, math.inf), "must be positive"),
    (math.cosh, (800.0, math.inf), "profile callables fail on a probe"),
])
def test_profile_surface_rejects_bad_input(a, u_range, message):
    with pytest.raises(ConfigError, match=message):
        profile_surface(a, lambda u: -math.sin(u), lambda u: -math.cos(u), u_range)


@pytest.mark.parametrize("callables", [
    (math.cos, None, lambda u: -math.cos(u)),  # leaked TypeError from the first probe
    (math.cos, lambda u: -math.sin(u), 3),  # a spec that failed at its first use
    ("cos", lambda u: -math.sin(u), lambda u: -math.cos(u)),
])
def test_profile_surface_requires_callables(callables):
    with pytest.raises(ConfigError, match="must be callables"):
        profile_surface(*callables, (0.1, 1.0))


def test_profile_surface_flags_steep_slopes_near_and_far():
    # a' = u/50 passes 1 at u = 50, far beyond u_min + 10
    spec = profile_surface(lambda u: 1.0 + u * u / 100.0, lambda u: u / 50.0,
                           lambda u: 0.02, (0.0, math.inf))
    assert spec.profile_warning
    with pytest.raises(NotRealizableError):
        embed_revolution(spec, 60.0, 0.0)
    # a' peaks at 100 on a width of about 0.02 around u = 1.25: [0, 10] keeps
    # its probes 0.05 apart, so the far probes do not thin them out
    narrow = profile_surface(lambda u: 2.0 + math.tanh(100.0 * (u - 1.25)),
                             lambda u: 100.0 * (1.0 - math.tanh(100.0 * (u - 1.25)) ** 2),
                             lambda u: 0.0, (0.0, math.inf))
    assert narrow.profile_warning


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
    for columns, message in (((vs[:3], fs[:3], gs[:3]), "at least 4 samples"),
                             (([0.0, 0.5, 0.5, 1.0, 2.0], fs, gs), "strictly increasing"),
                             (([0.0, 1.0, 0.5, 1.5, 2.0], fs, gs), "strictly increasing"),
                             ((vs, fs, [0.5, 0.4, -0.1, 0.5, 0.5]), "nonnegative")):
        with pytest.raises(ConfigError, match=message):
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
            [math.inf, -math.inf, math.nan],
        ])
        metric, a_uu, slope_max, _ = _pchip(x, y)
        want = np.stack([ref(pts), ref.derivative()(pts), np.zeros(len(pts)),
                         ref.derivative(2)(pts)], axis=1)
        # sorted, reversed and shuffled: the lookup's last piece hits, and its bisection
        # runs from every piece
        for order in (np.argsort(pts), np.argsort(pts)[::-1], rng.permutation(len(pts))):
            got = np.array([(*metric(t, v), a_uu(t))
                            for t, v in zip(pts[order].tolist(), pts.tolist())])
            np.testing.assert_array_equal(got.view(np.int64), want[order].view(np.int64))
        # the exact maximum of |a'| over the knots' range bounds every sampled |a'|
        inside = [t for t in pts.tolist() if x[0] <= t <= x[-1]]
        assert max(abs(metric(t, 0.0)[1]) for t in inside) <= slope_max * (1.0 + 1e-12)


def test_linspace_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(20261019)
    cases = [(0.0, 1.0, 2), (1.0, 0.0, 201), (-2.0, 2.0, 100), (-0.45, 4.0, 100)]
    for n in (2, 201, 257, 513, *rng.integers(3, 2000, 4).tolist()):
        for _ in range(37):
            scale = 10.0 ** rng.uniform(-9.0, 9.0)
            a, b = (rng.uniform(-1.0, 1.0, 2) * scale).tolist()  # reversed or negative too
            if rng.random() < 0.3:  # a range far from 0: a narrow span at a large offset
                a, b = a + 1e3 * scale, b + 1e3 * scale
            cases.append((a, b, n))
    assert len(cases) >= 300
    for a, b, n in cases:
        got = np.array(_linspace(a, b, n))
        want = np.linspace(a, b, n)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_tabulated_profile_loads_no_numpy():
    # building data-backed surfaces, their root scans and a ruled graph trace
    # need neither numpy nor scipy
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent("""
        import math, sys
        import catenary as cat
        cat.tabulated_profile([(0.1, 1.0), (0.2, 1.1), (0.3, 1.15), (0.4, 1.18)])
        us = [0.1 + 1.3 * j / 39 for j in range(40)]
        profile = cat.tabulated_profile([(u, math.cos(u) + 0.1) for u in us])
        assert cat.critical_parallels(profile, 1.0)
        assert len(cat.turning_points(profile, 1.0, 0.5)) == 2
        cat.profile_surface(math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u),
                            (0.0, 1.5))
        vs = [-3.0 + 6.0 * j / 39 for j in range(40)]
        ruled = cat.ruled_surface_from_samples(vs, [0.05 * math.sin(v) for v in vs],
                                               [0.5 + 0.2 * math.cos(2 * v) for v in vs])
        assert cat.trace_graph(ruled, 1.0, 1.0, 0.1, (-1.0, 1.0)).samples
        print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("build", [
    lambda: profile_surface(math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u), 5),
    lambda: profile_surface(math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u),
                            ("x", 1.0)),
    lambda: ruled_surface(lambda v: 0.0, lambda v: 1.0, lambda v: 0.0, lambda v: 0.0,
                          u_range=5),
    lambda: ruled_surface(lambda v: 0.0, lambda v: 1.0, lambda v: 0.0, lambda v: 0.0,
                          v_range=(1.0, 0.0)),
    lambda: ruled_surface(lambda v: 0.0, lambda v: 1.0, lambda v: 0.0, lambda v: 0.0,
                          u_range=(math.nan, 1.0)),
    lambda: ruled_surface_from_samples([0.0, 1.0, 2.0, 3.0], [0.0] * 4, [1.0] * 4,
                                       u_range=("x", 1.0)),
], ids=["profile_int", "profile_str", "ruled_int", "ruled_decreasing", "ruled_nan",
        "ruled_samples_str"])
def test_surface_ranges_are_pairs_of_numbers(build):
    # these leaked TypeError or ValueError, or built a surface whose domain
    # check leaked TypeError later
    with pytest.raises(ConfigError, match="need a pair of numbers lo < hi"):
        build()
