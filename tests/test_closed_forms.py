import math

import pytest

from catenary import (
    CatenaryState,
    ConfigError,
    DomainError,
    InaccessibleRegionError,
    catalog_surface,
    closed_form_family,
    cone_catenary,
    euclidean_catenary,
    grusin_catenary,
    grusin_geodesic,
    hyperbolic_quadrature,
    trace_catenary,
    trace_graph,
    validate_closed_form,
)
from catenary.surfaces import _linspace


def test_euclidean_values():
    assert euclidean_catenary(1.0, 0.0, 0.0) == 1.0
    assert euclidean_catenary(1.0, 0.0, 1.0) == pytest.approx(1.5430806348152437, abs=1e-15)
    assert euclidean_catenary(2.0, 0.5, 0.3) == pytest.approx(math.cosh(1.1) / 2.0, rel=1e-15)
    with pytest.raises(ConfigError):
        euclidean_catenary(-1.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        euclidean_catenary(0.0, 0.0, 0.0)


def test_euclidean_solves_plane_equation():
    # alpha/u = u'' / (1 + u'^2), checked directly from the derivatives
    fam = closed_form_family("euclidean", mu=1.4, nu=-0.3)
    for t in _linspace(-2.0, 2.0, 100):
        u, du, ddu = fam.value(t), fam.d1(t), fam.d2(t)
        assert abs(1.0 / u - ddu / (1.0 + du * du)) < 1e-12


def test_euclidean_first_integral_constant():
    # 1 + u'^2 = mu^2 u^2 along the solution (weighted-length first integral)
    fam = closed_form_family("euclidean", mu=1.0, nu=0.0)
    vals = [(1.0 + fam.d1(t) ** 2) / fam.value(t) ** 2
            for t in _linspace(-2.0, 2.0, 50)]
    assert max(vals) - min(vals) < 1e-10


def test_cone_values_and_domain():
    assert cone_catenary(1.0, 0.0, 0.0) == 1.0
    edge = (math.pi / 2) / math.sqrt(2.0)
    assert cone_catenary(1.0, 0.0, 0.999 * edge) > 10.0
    with pytest.raises(DomainError):
        cone_catenary(1.0, 0.0, edge)
    with pytest.raises(ConfigError):
        cone_catenary(-2.0, 0.0, 0.0)


def test_cone_family_holds_up_to_its_open_edges():
    # sqrt(2) v + nu rounded past +-pi/2 at floats just inside the formula's edges
    # (-+pi/2 - nu)/sqrt(2): value raised ConfigError and d1, d2 leaked TypeError (a
    # negative base to a fractional power).  A fixed sweep of nu over [-3, 3]: the float
    # outside each edge and the edge raise DomainError, the three floats inside give
    # finite numbers.
    for nu in [-3.0 + i / 100 for i in range(601)]:
        fam = closed_form_family("cone", nu=nu)
        for edge, inward in zip(fam.domain, (math.inf, -math.inf)):
            t = math.nextafter(edge, -inward)
            for k in range(5):
                for fn in (fam.value, fam.d1, fam.d2):
                    if k < 2:
                        with pytest.raises(DomainError):
                            fn(t)
                    else:
                        assert math.isfinite(fn(t)), (nu, t)
                t = math.nextafter(t, inward)
    # the float next to the formula's upper edge at this nu now lies outside the domain
    with pytest.raises(DomainError):
        cone_catenary(1.0, -1.0038288878392254, 1.820534948281658)


def test_cone_solves_cone_equation():
    # u u'' = 3 u'^2 + u^2 for the 45-degree cone at alpha = 1
    fam = closed_form_family("cone", mu=0.8, nu=0.2)
    lo, hi = fam.domain
    for v in _linspace(lo + 0.05, hi - 0.05, 100):
        u, du, ddu = fam.value(v), fam.d1(v), fam.d2(v)
        assert abs(u * ddu - 3.0 * du * du - u * u) < 1e-10


def test_grusin_values_and_domain():
    assert grusin_catenary(1.0, 1.0, 0.0) == 1.0
    assert grusin_catenary(2.0, 0.5, 1.0) == pytest.approx(2.0 * math.sqrt(2.5), rel=1e-15)
    with pytest.raises(DomainError):
        grusin_catenary(1.0, 1.0, -0.5)


def test_grusin_solves_reduced_equation():
    # u u'' + u'^2 = 0; substitution gives -mu^2/(2v+nu) + mu^2/(2v+nu)
    fam = closed_form_family("grusin_catenary", mu=1.3, nu=0.7)
    for v in _linspace(-0.3, 4.0, 100):
        u, du, ddu = fam.value(v), fam.d1(v), fam.d2(v)
        assert abs(u * ddu + du * du) < 1e-12


def test_grusin_conformal_image_is_line():
    # under ubar = u^2, vbar = 2v the solution is ubar = mu^2 (vbar + nu)
    mu, nu = 1.7, 0.4
    for v in _linspace(0.0, 3.0, 20):
        ubar = grusin_catenary(mu, nu, v) ** 2
        vbar = 2.0 * v
        assert ubar == pytest.approx(mu * mu * (vbar + nu), rel=1e-14)


def test_grusin_geodesic_values_and_odes():
    u0, v0 = 1.3, 0.5
    assert grusin_geodesic(u0, v0, 0.0) == (u0, v0)
    fam = closed_form_family("grusin_geodesic", u0=u0, v0=v0)
    for s in _linspace(-1.9, 1.9, 100):
        u, _ = fam.value(s)
        du, dv = fam.d1(s)
        ddu, ddv = fam.d2(s)
        assert abs(ddu + dv * dv / u ** 3) < 1e-10
        assert abs(ddv - 2.0 * du * dv / u) < 1e-10
        # unit speed in the metric du^2 + dv^2/u^2
        assert abs(du * du + (dv / u) ** 2 - 1.0) < 1e-12
    with pytest.raises(DomainError):
        grusin_geodesic(1.0, 0.0, 2.0)


def test_grusin_horizontal_lines_are_geodesics():
    # u(s) = u0 + s, v = v0 satisfies both geodesic equations trivially
    for u0 in (0.5, 2.0):
        for s in (0.0, 0.7):
            u, du, ddu, dv, ddv = u0 + s, 1.0, 0.0, 0.0, 0.0
            assert ddu + dv * dv / u ** 3 == 0.0
            assert ddv - 2.0 * du * dv / u == 0.0


def test_validate_closed_form_families():
    plane = catalog_surface("plane")
    cone = catalog_surface("cone")
    grusin = catalog_surface("grusin")
    cases = [
        (closed_form_family("euclidean"), plane, 1.0, _linspace(-2, 2, 100)),
        (closed_form_family("cone"), cone, 1.0, _linspace(-0.9, 0.9, 100)),
        (closed_form_family("grusin_catenary", nu=1.0), grusin, 1.0,
         _linspace(-0.45, 4, 100)),
        (closed_form_family("grusin_geodesic", u0=1.0), grusin, 0.0,
         _linspace(-1.4, 1.4, 100)),
    ]
    for fam, spec, alpha, grid in cases:
        assert validate_closed_form(fam, spec, alpha, grid) < 1e-10


@pytest.mark.parametrize("kind", ["plane", "sphere"])
def test_validate_closed_form_geodesic_reads_the_surface(kind):
    # the geodesic residuals were the Grusin equations whatever the surface: 4.4e-16
    fam = closed_form_family("grusin_geodesic", u0=1.0)
    assert validate_closed_form(fam, catalog_surface(kind), 0.0, _linspace(-1.4, 1.4, 100)) > 0.5


@pytest.mark.parametrize("alpha", [1.0, 7.0])
def test_validate_closed_form_geodesic_needs_alpha_zero(alpha):
    # geodesics are critical for length, weight u^0: any other alpha was ignored
    fam = closed_form_family("grusin_geodesic", u0=1.0)
    with pytest.raises(ConfigError, match=r"geodesics are critical for alpha = 0$"):
        validate_closed_form(fam, catalog_surface("grusin"), alpha, [0.0, 0.5])


def test_validate_rejects_wrong_alpha():
    plane = catalog_surface("plane")
    fam = closed_form_family("euclidean")
    worst = validate_closed_form(fam, plane, 2.0, _linspace(-1.0, 1.0, 100))
    assert worst > 1e-3


def test_validate_rejects_empty_grid():
    with pytest.raises(ConfigError):
        validate_closed_form(closed_form_family("euclidean"),
                             catalog_surface("plane"), 1.0, [])


def test_validate_reads_any_iterable_grid():
    # a number leaked TypeError from len(), and so did a generator
    fam, plane = closed_form_family("euclidean"), catalog_surface("plane")
    with pytest.raises(ConfigError, match=r"^grid of type int is not a sequence of numbers$"):
        validate_closed_form(fam, plane, 1.0, 5)
    grid = [0.1 * k for k in range(-10, 11)]
    assert validate_closed_form(fam, plane, 1.0, (t for t in grid)) == \
        validate_closed_form(fam, plane, 1.0, grid)


def test_family_matches_graph_trace():
    # graph traces started from family data reproduce the family
    plane = catalog_surface("plane")
    fam = closed_form_family("euclidean", mu=1.2, nu=0.1)
    tr = trace_graph(plane, 1.0, fam.value(0.0), fam.d1(0.0), (0.0, 1.5), tol=1e-9)
    assert max(abs(s.u - fam.value(s.v)) for s in tr.samples) < 1e-8

    cone = catalog_surface("cone")
    famc = closed_form_family("cone", mu=1.0, nu=-0.4)
    trc = trace_graph(cone, 1.0, famc.value(0.0), famc.d1(0.0), (0.0, 0.8), tol=1e-9)
    assert max(abs(s.u - famc.value(s.v)) for s in trc.samples) < 1e-8


def test_hyperbolic_quadrature_basics():
    assert hyperbolic_quadrature(1.0, 1.0, 0.5, 1.0, 1.0) == 0.0
    d1 = hyperbolic_quadrature(1.0, 1.0, 0.5, 0.8, 1.2)
    d2 = hyperbolic_quadrature(1.0, 1.0, 0.5, 0.8, 1.6)
    assert 0.0 < d1 < d2  # positive integrand, monotone in the upper limit
    with pytest.raises(ConfigError):
        hyperbolic_quadrature(-1.0, 1.0, 0.5, 0.8, 1.2)
    with pytest.raises(ConfigError):
        hyperbolic_quadrature(1.0, 1.0, 0.0, 0.8, 1.2)
    with pytest.raises(InaccessibleRegionError):
        hyperbolic_quadrature(1.0, 1.0, 0.8, 0.1, 1.2)


def test_hyperbolic_quadrature_matches_trace():
    # trace a hyperbolic-plane curve from a turning point and compare dv
    hyp = catalog_surface("hyperbolic", r=1.0)
    u0, u1 = 0.5, 1.0
    c = u0 * math.cosh(u0)  # rho(u0), turning point by construction
    tr = trace_catenary(hyp, 1.0, CatenaryState(u0, 0.0, math.pi / 2),
                        s_max=3.0, tol=1e-9, max_step=0.02)
    a, b = tr.samples[0].s, tr.samples[-1].s
    assert tr.at(b)[0] > u1
    while (b - a) > 1e-13:
        mid = 0.5 * (a + b)
        if tr.at(mid)[0] < u1:
            a = mid
        else:
            b = mid
    dv_trace = tr.at(0.5 * (a + b))[1]
    dv_quad = hyperbolic_quadrature(1.0, 1.0, c, u0, u1)
    assert abs(dv_trace - dv_quad) < 1e-5


@pytest.mark.parametrize("family, params", [
    ("euclidean", {"mu": 0.0}),
    ("euclidean", {"mu": -1.0}),
    ("cone", {"mu": 0.0}),
    ("cone", {"mu": math.nan}),
    ("grusin_catenary", {"mu": -2.0}),
    ("grusin_geodesic", {"u0": 0.0}),
    ("grusin_geodesic", {"u0": -1.0}),
    ("euclidean", {"mu": 1.0, "lam": 2.0}),
    ("grusin_geodesic", {"u0": 1.0, "nu": 0.0}),
    ("cone", {"nu": math.inf}),
    ("catenoid", {}),
    ("grusin_geodesic", {"u0": 1.0, "v0": math.nan}),
    ("grusin_geodesic", {}),
    ("grusin_catenary", {"mu": None}),
    ("euclidean", {"mu": "abc"}),
])
def test_family_rejects_bad_parameters(family, params):
    with pytest.raises(ConfigError):
        closed_form_family(family, **params)


@pytest.mark.parametrize("family, params, message", [
    ("grusin_geodesic", {"v0": 1.0}, "parameter 'u0' is required for family 'grusin_geodesic'"),
    ("cone", {"mu": "x"}, "parameter mu='x' is not a number"),
    ("euclidean", {"kappa": 1.0}, "unknown parameter(s) ['kappa'] for family 'euclidean'"),
    ("nope", {}, "unknown closed-form family: 'nope'"),
    ([], {}, "unknown closed-form family: []"),  # an unhashable name leaked TypeError
])
def test_family_parameter_errors_name_the_parameter(family, params, message):
    with pytest.raises(ConfigError) as info:
        closed_form_family(family, **params)
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    ("euclidean_catenary(math.inf, 0.0, 1.0)", "mu=inf must be finite"),
    ("grusin_geodesic(math.inf, 0.0, 0.1)", "u0=inf must be finite"),
    ("euclidean_catenary('x', 0.0, 1.0)", "mu='x' is not a number"),
    ("hyperbolic_quadrature(1.0, 1.0, 'x', 0.5, 1.0)", "c='x' is not a number"),
])
def test_solutions_check_every_argument(call, message):
    # these once returned nan, (inf, nan) and leaked a TypeError
    with pytest.raises(ConfigError) as info:
        eval(call)
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    ("euclidean_catenary(1.0, 0.0, 1000.0)", "euclidean.value(1000.0) leaves the float range"),
    ("closed_form_family('euclidean').d1(1000.0)", "euclidean.d1(1000.0) leaves the float range"),
    ("grusin_catenary(1e300, 0.0, 1e300)",
     "grusin_catenary.value(1e+300) leaves the float range"),
    ("validate_closed_form(closed_form_family('euclidean'), catalog_surface('plane'), 1.0,"
     " [1000.0])", "euclidean.value(1000.0) leaves the float range"),
])
def test_solutions_past_the_float_range_raise_config_error(call, message):
    # these once leaked OverflowError or returned inf
    with pytest.raises(ConfigError) as info:
        eval(call)
    assert str(info.value) == message


def test_geodesic_outside_its_arch_raises_domain_error():
    # the arch of u0 = 1e-320 is |s| < pi u0/2; s/u0 overflowed to inf and cos(inf) was
    # a math domain error, reported as leaving the float range
    with pytest.raises(DomainError) as info:
        grusin_geodesic(1e-320, 0.0, 0.5)
    assert str(info.value) == "grusin_geodesic.value: t=0.5 outside (-1.571e-320, 1.571e-320)"


@pytest.mark.parametrize("family, t", [("cone", 2.0), ("grusin_catenary", -1.0),
                                       ("grusin_geodesic", 3.0)])
def test_family_derivatives_check_their_domain(family, t):
    # the cone's once returned a complex number, the Grusin catenary's leaked ValueError
    fam = closed_form_family(family, **({"u0": 1.0} if family == "grusin_geodesic" else {}))
    for derivative in (fam.d1, fam.d2):
        with pytest.raises(DomainError, match="outside"):
            derivative(t)


def _raises_domain_error(fn, t):
    try:
        fn(t)
    except DomainError:
        return True
    except ConfigError:  # a derivative that overflows next to the edge is still inside
        pass
    return False


_SOLUTIONS = {"euclidean": euclidean_catenary, "cone": cone_catenary,
              "grusin_catenary": grusin_catenary, "grusin_geodesic": grusin_geodesic}


@pytest.mark.parametrize("family", ["cone", "grusin_catenary", "grusin_geodesic", "euclidean"])
def test_family_value_checks_the_domain_as_its_derivatives_do(family):
    # at s = pi/2 the Grusin geodesic's value returned (6.1e-17, ...) while d1 and d2
    # raised DomainError; the public solution, at the family's default parameters
    # (1, 0), is the family's value
    fam = closed_form_family(family, **({"u0": 1.0} if family == "grusin_geodesic" else {}))
    solution = _SOLUTIONS[family]
    points = [0.0]  # inside every family's domain but grusin_catenary's, whose edge it is
    for edge in filter(math.isfinite, fam.domain):
        points += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    for t in points:
        outside = not fam.domain[0] < t < fam.domain[1]
        assert _raises_domain_error(fam.value, t) == outside, t
        assert _raises_domain_error(lambda t: solution(1.0, 0.0, t), t) == outside, t
        assert _raises_domain_error(fam.d1, t) == _raises_domain_error(fam.d2, t) == outside, t
