import math

import numpy as np
import pytest

from catenary import (
    CatenaryState,
    ConfigError,
    DegenerateMetricError,
    DomainError,
    InaccessibleRegionError,
    KindError,
    NotCriticalError,
    NotRealizableError,
    catalog_surface,
    clairaut_constant,
    conformal_coordinate,
    critical_parallels,
    embed_revolution,
    profile_surface,
    quadrature_v,
    ruled_surface_from_samples,
    stability_exponent,
    tabulated_profile,
    trace_catenary,
    turning_points,
)
from catenary.revolution import _scan_range
from catenary.validation import bisect_oracle
from oracles import (
    CATENOID_IMPROPER_HALF,
    RHO_STAR,
    UM_BIG,
    UM_HALF,
    USTAR,
    bisect,
    raw_quadrature,
)


def bump_profile():
    # rho = u^3 - 4u^2 + 5u has a maximum at u=1 and a minimum at u=5/3
    return profile_surface(lambda u: 1.0 + (u - 2.0) ** 2,
                           lambda u: 2.0 * (u - 2.0),
                           lambda u: 2.0, (0.05, 60.0), identifier="bump")


def test_clairaut_constant_examples():
    sphere = catalog_surface("sphere")
    assert clairaut_constant(sphere, 1.0, CatenaryState(0.8, 0.0, 0.0)) == 0.0
    # parallel state: c = rho(u0)
    assert clairaut_constant(sphere, 1.0, CatenaryState(0.8, 0.0, math.pi / 2)) == \
        pytest.approx(0.8 * math.cos(0.8), rel=1e-15)
    # cylinder vertex of the unit-mu solution: c = 1/sqrt(mu) = 1
    cyl = catalog_surface("cylinder")
    assert clairaut_constant(cyl, 1.0, CatenaryState(1.0, 0.0, math.pi / 2)) == 1.0


def test_clairaut_constant_conserved_on_cylinder_catenary():
    # along u = cosh(v): 1 + u'^2 = mu u^2 with mu = 1, so c = 1 throughout
    cyl = catalog_surface("cylinder")
    tr = trace_catenary(cyl, 1.0, CatenaryState(1.0, 0.0, math.pi / 2),
                        s_max=4.0, tol=1e-10)
    for s in tr.samples:
        c = clairaut_constant(cyl, 1.0, CatenaryState(s.u, s.v, s.phi, s.s))
        assert c == pytest.approx(1.0, abs=1e-8)


def test_cylinder_clairaut_constant_is_inverse_sqrt_mu():
    # along solutions of 1 + u'^2 = mu u^2 the constant is 1/sqrt(mu);
    # the family cosh(k v + nu)/k has mu = k^2, so c = 1/k
    from catenary import closed_form_family, trace_graph

    cyl = catalog_surface("cylinder")
    for k in (1.0, 2.0, 0.7):
        fam = closed_form_family("euclidean", mu=k, nu=0.0)
        mu_fi = (1.0 + fam.d1(0.3) ** 2) / fam.value(0.3) ** 2
        assert mu_fi == pytest.approx(k * k, rel=1e-12)
        tr = trace_graph(cyl, 1.0, fam.value(0.0), fam.d1(0.0), (0.0, 1.0),
                         tol=1e-10)
        for s in tr.samples:
            c = clairaut_constant(cyl, 1.0, CatenaryState(s.u, s.v, s.phi, s.s))
            assert c == pytest.approx(1.0 / math.sqrt(mu_fi), abs=1e-8)


def test_clairaut_requires_rotational_symmetry():
    vs = np.linspace(-3.0, 3.0, 64)
    ruled = ruled_surface_from_samples(vs, 0.3 * np.sin(vs), 0.5 + 0.2 * np.cos(vs))
    with pytest.raises(KindError):
        clairaut_constant(ruled, 1.0, CatenaryState(0.5, 0.0, 1.0))
    with pytest.raises(KindError):
        critical_parallels(ruled, 1.0)


def test_sphere_critical_parallel_matches_bisection_oracle():
    sphere = catalog_surface("sphere")
    oracle = bisect(lambda u: math.cos(u) - u * math.sin(u), 0.5, 1.5)
    assert oracle == pytest.approx(USTAR, abs=1e-13)
    found = critical_parallels(sphere, 1.0)
    assert len(found) == 1
    assert abs(found[0].u - oracle) < 1e-10
    assert abs(found[0].u - 0.86) < 5e-3
    assert found[0].lam > 0.0
    assert found[0].classification == "stable"


def test_cone_and_catenoid_have_no_critical_parallels():
    assert critical_parallels(catalog_surface("cone"), 1.0) == []
    assert critical_parallels(catalog_surface("catenoid"), 1.0) == []


def test_bump_profile_critical_parallels():
    spec = bump_profile()
    assert spec.profile_warning  # |a'| > 1 near the domain edges
    found = critical_parallels(spec, 1.0, (0.1, 4.0))
    assert len(found) == 2
    stable, unstable = found
    assert stable.u == pytest.approx(1.0, abs=1e-10)
    assert stable.classification == "stable"
    assert stable.lam == pytest.approx(2.0, rel=1e-9)
    assert unstable.u == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert unstable.classification == "unstable"
    assert unstable.lam == pytest.approx(-0.7776, rel=1e-9)


def test_stability_exponent_requires_critical_point():
    sphere = catalog_surface("sphere")
    with pytest.raises(NotCriticalError):
        stability_exponent(sphere, 1.0, 0.5)
    lam = stability_exponent(sphere, 1.0, USTAR)
    assert lam > 0.0
    # independent evaluation: lambda = -2 rho rho'' a^2 / c^4 at the root
    a, a_u = math.cos(USTAR), -math.sin(USTAR)
    rho = USTAR * a
    rho_uu = -2.0 * math.sin(USTAR) - USTAR * math.cos(USTAR)
    lam_direct = -2.0 * rho * (a * a * rho_uu) / rho ** 4
    assert lam == pytest.approx(lam_direct, rel=1e-10)


def test_stability_exponent_signs_on_bump_profile():
    spec = bump_profile()
    assert stability_exponent(spec, 1.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert stability_exponent(spec, 1.0, 5.0 / 3.0) == pytest.approx(-0.7776, rel=1e-12)


def test_turning_points_sphere():
    sphere = catalog_surface("sphere")
    om = bisect(lambda u: u * math.cos(u) - 0.5, 0.3, USTAR)
    oM = bisect(lambda u: u * math.cos(u) - 0.5, USTAR, 1.5)
    assert om == pytest.approx(UM_HALF, abs=1e-12)
    assert oM == pytest.approx(UM_BIG, abs=1e-12)
    tp = turning_points(sphere, 1.0, 0.5)
    assert len(tp) == 2
    assert tp[0] == pytest.approx(om, abs=1e-10)
    assert tp[1] == pytest.approx(oM, abs=1e-10)
    assert tp[0] < USTAR < tp[1]


def test_turning_points_tangent_case_single_root():
    sphere = catalog_surface("sphere")
    tp = turning_points(sphere, 1.0, RHO_STAR)
    assert len(tp) == 1
    assert tp[0] == pytest.approx(USTAR, abs=1e-9)


@pytest.mark.parametrize("k", range(2, 10))
def test_turning_points_near_critical_pair_straddles_parallel(k):
    # both roots of rho = c can lie within one scan cell of u*; the monotone
    # pieces on either side of the critical parallel still find each of them
    sphere = catalog_surface("sphere")
    c = RHO_STAR * (1.0 - 10.0 ** -k)
    tp = turning_points(sphere, 1.0, c)
    assert len(tp) == 2
    assert tp[0] < USTAR < tp[1]

    def gap(u):
        return u * math.cos(u) - c

    assert tp[0] == pytest.approx(bisect_oracle(gap, 0.3, USTAR), abs=1e-12)
    assert tp[1] == pytest.approx(bisect_oracle(gap, USTAR, 1.5), abs=1e-12)


@pytest.mark.parametrize("k", [10, 11, 12, 14, 16, math.inf])
def test_turning_points_within_tangential_tolerance_give_one_root(k):
    # |rho* - c| <= 1e-10 max(1, c): the critical parallel is the one root
    sphere = catalog_surface("sphere")
    tp = turning_points(sphere, 1.0, RHO_STAR * (1.0 - 10.0 ** -k))
    assert tp == [critical_parallels(sphere, 1.0)[0].u]


@pytest.mark.parametrize("c", [0.0, -0.5])
def test_turning_points_need_a_positive_c(c):
    with pytest.raises(ConfigError, match="must be positive"):
        turning_points(catalog_surface("sphere"), 1.0, c)


def test_turning_points_cylinder():
    cyl = catalog_surface("cylinder")
    tp = turning_points(cyl, 1.0, 2.0)
    assert len(tp) == 1
    assert tp[0] == pytest.approx(2.0, abs=1e-10)


def test_quadrature_empty_interval_is_zero():
    assert quadrature_v(catalog_surface("sphere"), 1.0, 0.5, 0.7, 0.7) == 0.0


def test_quadrature_cylinder_closed_form():
    # rho = u, c = 1: dv = du/sqrt(u^2-1), antiderivative arccosh(u)
    cyl = catalog_surface("cylinder")
    dv = quadrature_v(cyl, 1.0, 1.0, 1.0, 2.0)
    assert dv == pytest.approx(math.acosh(2.0), abs=1e-10)
    # orientation: swapped limits negate
    assert quadrature_v(cyl, 1.0, 1.0, 2.0, 1.0) == pytest.approx(-dv, rel=1e-12)


def test_quadrature_from_the_axis_closed_form():
    # alpha = -1 on the plane: rho = 1/u is infinite at the end u = 0, which is
    # no turning point; c = 1: dv = u du/sqrt(1-u^2), antiderivative -sqrt(1-u^2)
    dv = quadrature_v(catalog_surface("plane"), -1.0, 1.0, 0.0, 0.5)
    assert dv == pytest.approx(1.0 - math.sqrt(0.75), rel=1e-13)


def test_quadrature_catenoid_improper():
    catenoid = catalog_surface("catenoid")
    got = quadrature_v(catenoid, 1.0, 0.5, 1.0, math.inf)
    assert got == pytest.approx(CATENOID_IMPROPER_HALF, abs=1e-9)
    # independent scipy evaluation of the raw integrand
    ref = raw_quadrature(lambda t: math.sqrt(1.0 + t * t), 1.0, 0.5, 1.0, math.inf)
    assert got == pytest.approx(ref, abs=1e-9)


def test_quadrature_rejects_inaccessible_interval():
    sphere = catalog_surface("sphere")
    with pytest.raises(InaccessibleRegionError):
        quadrature_v(sphere, 1.0, 0.5, 0.3, 1.0)  # rho(0.3) < 0.5


def test_quadrature_rejects_a_turning_end_on_a_critical_parallel():
    # rho = cosh(u)/u has a minimum at u*: with c = rho(u*) the curve winds
    # onto the parallel and v diverges, at either end of the interval
    spec = catalog_surface("hyperbolic")
    [parallel] = critical_parallels(spec, -1.0)
    c = math.cosh(parallel.u) / parallel.u
    for u0, u1 in ((parallel.u, 2.0), (2.0, parallel.u)):
        with pytest.raises(ConfigError, match=f"u={parallel.u!r} for c={c!r}"):
            quadrature_v(spec, -1.0, c, u0, u1)


def test_quadrature_limits_must_lie_in_the_closed_domain():
    # below u = 0 rho = u^alpha cos u is complex or negative: at alpha = 0.5 a
    # TypeError leaked from comparing it, at alpha = 1 rho(-0.498) < 0 was quoted
    sphere = catalog_surface("sphere")
    for alpha, u0, u1 in ((0.5, -0.5, 0.5), (1.0, -0.5, 0.5), (1.0, 0.5, 2.0), (1.0, 2.0, 0.5)):
        with pytest.raises(DomainError, match="outside"):
            quadrature_v(sphere, alpha, 0.3, u0, u1)
    # the ends themselves are fine: the axis u = 0 and u1 = inf where u_max = inf
    assert quadrature_v(catalog_surface("plane"), -1.0, 1.0, 0.0, 0.5) > 0.0
    assert quadrature_v(catalog_surface("catenoid"), 1.0, 0.5, 1.0, math.inf) > 0.0


def test_stability_exponent_needs_u_inside_the_domain():
    # at u = -0.3 rho' was complex, and NotCriticalError quoted it
    with pytest.raises(DomainError, match="outside"):
        stability_exponent(catalog_surface("sphere"), 0.5, -0.3)


def test_clairaut_constant_and_anchors_need_u_inside_the_domain():
    # past pi/2 the sphere's G = cos u < 0, and c came out as -0.7003
    sphere = catalog_surface("sphere")
    for u in (2.0, math.pi / 2, 0.0):
        with pytest.raises(DomainError, match="outside"):
            clairaut_constant(sphere, 1.0, CatenaryState(u, 0.0, 1.0))
        with pytest.raises(DomainError, match="outside"):
            conformal_coordinate(sphere, u)
        with pytest.raises(DomainError, match="outside"):
            embed_revolution(sphere, u, 0.0)
    # an anchor at u < 0 integrated through u < 0 (z = 1.0445); one past pi/2
    # was reported as "1/a is not integrable"
    for u_ref in (-0.5, 2.0):
        with pytest.raises(DomainError, match="u_ref"):
            conformal_coordinate(sphere, 0.5, u_ref=u_ref)
        with pytest.raises(DomainError, match="u_ref"):
            embed_revolution(sphere, 0.5, 0.0, u_ref=u_ref)
    # the anchor may sit on either end of the closed domain
    assert conformal_coordinate(sphere, 0.5, u_ref=0.0) == conformal_coordinate(sphere, 0.5)
    assert embed_revolution(sphere, 0.5, 0.0, u_ref=math.pi / 2)[2] == \
        pytest.approx(math.sin(0.5) - 1.0, abs=1e-9)


def test_scan_range_must_lie_inside_the_domain():
    # past pi/2 the sphere's G = cos u turns negative: no parallel lives there
    sphere = catalog_surface("sphere")
    for u_range in ((0.1, 3.5), (0.0, 1.0), (-0.5, 1.0), (1.0, 0.5), (0.5, 0.5),
                    (0.1, math.pi / 2)):
        with pytest.raises(DomainError):
            critical_parallels(sphere, 1.0, u_range)
        with pytest.raises(DomainError):
            turning_points(sphere, 1.0, 0.5, u_range)
    [inside] = critical_parallels(sphere, 1.0, (0.5, 1.2))
    assert inside.u == pytest.approx(USTAR, abs=1e-11)


def test_default_scan_range_keeps_its_margins():
    # 1e-6 off u = 0, 1e-9 (relative above u = 0) off a finite edge, u <= 100 on an unbounded
    # domain: the ranges every catalog kind and wide profile were scanned on
    for kind in ("plane", "cylinder", "sphere", "hyperbolic", "cone", "catenoid", "helicoid",
                 "binormal", "grusin"):
        spec = catalog_surface(kind)
        hi = spec.domain.u_max - 1e-9 if math.isfinite(spec.domain.u_max) else 100.0
        assert _scan_range(spec, None) == (1e-6, hi)
    for u_range in ((0.0, 1e-3), (0.5, 3.0), (9.5, math.inf)):
        spec = profile_surface(lambda u: 2.0, lambda u: 0.0, lambda u: 0.0, u_range)
        lo = u_range[0] + (1e-6 if u_range[0] == 0.0 else 1e-9 * (1.0 + u_range[0]))
        assert _scan_range(spec, None) == \
            (lo, u_range[1] - 1e-9 if math.isfinite(u_range[1]) else 100.0)


def _quadratic_profile(u_range):
    return profile_surface(lambda u: 1.0 + u * u, lambda u: 2.0 * u, lambda u: 2.0, u_range)


def test_default_scan_range_reaches_past_a_domain_start_above_100():
    # the scan stopped at u = 100, below the domain's start: "bad scan range"
    spec = _quadratic_profile((200.0, math.inf))
    assert critical_parallels(spec, 1.0) == []  # rho = u + u^3 is increasing
    [u] = turning_points(spec, 1.0, 300.0 * (1.0 + 300.0 ** 2))
    assert u == pytest.approx(300.0, rel=1e-12)


@pytest.mark.parametrize("spec", [
    _quadratic_profile((0.0, 5e-7)),
    tabulated_profile([(k * 1e-7, 1.0 + 0.01 * k) for k in range(5)]),
], ids=["analytic", "tabulated"])
def test_default_scan_range_fits_a_domain_narrower_than_its_margin(spec):
    # u_min + 1e-6 lay past u_max: "bad scan range"
    assert critical_parallels(spec, 1.0) == []
    [u] = turning_points(spec, 1.0, 2e-7 * spec.profile.a(2e-7))
    assert u == pytest.approx(2e-7, rel=1e-9)


def test_bisect_oracle_ends_and_brackets():
    assert bisect_oracle(lambda u: u - 1.0, 1.0, 2.0) == 1.0
    assert bisect_oracle(lambda u: u - 2.0, 1.0, 2.0) == 2.0
    with pytest.raises(ValueError, match="no sign change"):
        bisect_oracle(lambda u: u, 1.0, 2.0)


def test_quadrature_rejects_divergent_tail():
    cyl = catalog_surface("cylinder")
    with pytest.raises(ConfigError):
        quadrature_v(cyl, 1.0, 1.0, 2.0, math.inf)  # integrand ~ 1/t


def test_conformal_coordinate_closed_forms():
    cyl = catalog_surface("cylinder")
    assert conformal_coordinate(cyl, 1.7) == pytest.approx(1.7, abs=1e-12)
    sphere = catalog_surface("sphere")
    assert conformal_coordinate(sphere, 1.0) == \
        pytest.approx(math.log(math.tan(0.5 + math.pi / 4)), abs=1e-12)
    catenoid = catalog_surface("catenoid")
    assert conformal_coordinate(catenoid, 1.0) == pytest.approx(math.asinh(1.0), abs=1e-12)


def test_conformal_coordinate_is_increasing():
    sphere = catalog_surface("sphere")
    zs = [conformal_coordinate(sphere, u) for u in (0.2, 0.6, 1.0, 1.4)]
    assert all(b > a for a, b in zip(zs, zs[1:]))


def test_conformal_coordinate_cone_needs_explicit_anchor():
    from catenary import DomainError

    cone = catalog_surface("cone")
    # 1/a = sqrt(2)/u diverges at the default anchor u_min = 0
    with pytest.raises(DomainError):
        conformal_coordinate(cone, 1.0)
    z = conformal_coordinate(cone, 2.0, u_ref=1.0)
    assert z == pytest.approx(math.sqrt(2.0) * math.log(2.0), rel=1e-12)


def test_embed_cylinder_and_sphere():
    cyl = catalog_surface("cylinder")
    assert embed_revolution(cyl, 1.0, 0.0) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)
    sphere = catalog_surface("sphere")
    x, y, z = embed_revolution(sphere, 1e-9, 0.0)
    assert (x, y, z) == pytest.approx((1.0, 0.0, 0.0), abs=1e-8)
    rng = np.random.default_rng(12)
    for _ in range(20):
        u = float(rng.uniform(0.05, 1.5))
        v = float(rng.uniform(-3.0, 3.0))
        x, y, z = embed_revolution(sphere, u, v)
        assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-9)
        assert z == pytest.approx(math.sin(u), abs=1e-9)


def test_embed_rejects_steep_profiles():
    steep = profile_surface(lambda u: 1.0 + 1.2 * u, lambda u: 1.2,
                            lambda u: 0.0, (0.0, 10.0))
    with pytest.raises(NotRealizableError):
        embed_revolution(steep, 1.0, 0.0)
    # sinh u > 1 past u = 0.88, as the hyperbolic plane's profile_warning says
    hyperbolic = catalog_surface("hyperbolic")
    assert hyperbolic.profile_warning
    with pytest.raises(NotRealizableError):
        embed_revolution(hyperbolic, 1.0, 0.0, u_ref=0.1)
    # abstract metrics remain valid for everything else
    assert clairaut_constant(steep, 1.0, CatenaryState(1.0, 0.0, 1.0)) > 0.0


def test_grusin_embeddable_above_one():
    grusin = catalog_surface("grusin")
    x, y, z = embed_revolution(grusin, 2.0, 0.0, u_ref=1.5)
    assert x == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(NotRealizableError):
        embed_revolution(grusin, 0.5, 0.0, u_ref=1.5)


def test_singular_or_non_finite_slope_is_not_realizable():
    # a' = -1/u^2 of the Grusin profile divides by zero at the anchor u = 0
    with pytest.raises(NotRealizableError):
        embed_revolution(catalog_surface("grusin"), 2.0, 0.0)
    # a NaN slope once passed the |a'| <= 1 test and gave a flat height
    nan_below = profile_surface(lambda u: 1.0, lambda u: math.nan if u < 0.5 else 0.0,
                                lambda u: 0.0, (0.0, 10.0))
    with pytest.raises(NotRealizableError):
        embed_revolution(nan_below, 1.0, 0.0)
    assert embed_revolution(nan_below, 2.0, 0.0, u_ref=1.0) == (1.0, 0.0, 1.0)


def test_slope_peak_between_scan_points_is_not_realizable():
    # |a'| exceeds 1 only within 3.2e-5 of u = 0.5025, between the 257 scan
    # points; the height integrand sees it
    spec = profile_surface(lambda u: 1.0 + u, lambda u: 1 + 1e-9 - (u - 0.5025) ** 2,
                           lambda u: 0.0, (0.0, 1.0))
    with pytest.raises(NotRealizableError):
        embed_revolution(spec, 0.6, 0.0, u_ref=0.4)


def test_conservation_along_traces():
    for kind, start in (("sphere", CatenaryState(0.7, 0.0, 1.0)),
                        ("cone", CatenaryState(1.0, 0.0, 0.9)),
                        ("catenoid", CatenaryState(1.0, 0.0, math.pi / 4))):
        spec = catalog_surface(kind)
        tr = trace_catenary(spec, 1.0, start, s_max=10.0, tol=1e-9)
        cs = [clairaut_constant(spec, 1.0, CatenaryState(s.u, s.v, s.phi, s.s))
              for s in tr.samples]
        drift = max(abs(x - cs[0]) for x in cs) / max(abs(cs[0]), 1e-12)
        assert drift < 1e-6


def test_confinement_to_accessible_region():
    sphere = catalog_surface("sphere")
    start = CatenaryState(UM_HALF, 0.0, math.pi / 2)
    c0 = clairaut_constant(sphere, 1.0, start)
    tr = trace_catenary(sphere, 1.0, start, s_max=60.0, tol=1e-9)
    assert all(s.u * math.cos(s.u) >= c0 - 1e-6 for s in tr.samples)  # rho = u cos u


def test_quadrature_agrees_with_trace_half_period():
    # v-advance between consecutive turning points
    sphere = catalog_surface("sphere")
    tr = trace_catenary(sphere, 1.0, CatenaryState(UM_HALF, 0.0, math.pi / 2),
                        s_max=10.0, tol=1e-9, max_step=0.02)
    turn_s = []
    for i in range(len(tr.samples) - 1):
        c0 = math.cos(tr.samples[i].phi)
        c1 = math.cos(tr.samples[i + 1].phi)
        if (c0 < 0.0) != (c1 < 0.0):
            a, b = tr.samples[i].s, tr.samples[i + 1].s
            while (b - a) > 1e-13:
                mid = 0.5 * (a + b)
                if (math.cos(tr.at(mid)[2]) < 0.0) != (c0 < 0.0):
                    b = mid
                else:
                    a = mid
            turn_s.append(0.5 * (a + b))
    assert len(turn_s) >= 2
    v0 = tr.samples[0].v
    v1 = tr.at(turn_s[0])[1]
    v2 = tr.at(turn_s[1])[1]
    dv_quad = quadrature_v(sphere, 1.0, 0.5, UM_HALF, UM_BIG)
    assert abs((v1 - v0) - dv_quad) < 1e-5
    assert abs((v2 - v1) - dv_quad) < 1e-5


@pytest.mark.parametrize("call", [
    "quadrature_v(sphere, 1, 0.5, math.nan, 1)",
    "quadrature_v(sphere, 1, 0.5, 0.6, -math.inf)",
    "critical_parallels(sphere, math.nan)",
    "critical_parallels(sphere, 1, (0.1, math.inf))",
    "turning_points(sphere, 1, math.inf)",
    "stability_exponent(sphere, 1, math.nan)",
    "clairaut_constant(sphere, 1, CatenaryState(0.5, 0.0, math.nan))",
    "embed_revolution(sphere, 0.5, math.nan)",
])
def test_non_finite_inputs_raise_config_error(call):
    # each of these once returned NaN, [] or a wrong root without complaint
    with pytest.raises(ConfigError, match="must be finite"):
        eval(call, globals(), {"sphere": catalog_surface("sphere")})


def test_conformal_coordinate_accepts_accurate_value_despite_roundoff_flag():
    from scipy.integrate import quad

    from catenary import DomainError, tabulated_profile

    # one QUADPACK call over the whole range flags round-off here although its
    # error estimate is ~7e-12; the value must be accepted either way
    us = [0.1 + 1.3 * j / 39 for j in range(40)]
    spec = tabulated_profile([(u, math.cos(0.95 * u) + 0.08) for u in us])
    knots = [u for u in us if u < 1.2] + [1.2]
    ref = sum(quad(lambda t: 1.0 / spec.profile.a(t), lo, hi)[0]
              for lo, hi in zip(knots, knots[1:]))
    assert conformal_coordinate(spec, 1.2) == pytest.approx(ref, abs=1e-10)
    # the cone's default anchor diverges for real and still raises
    with pytest.raises(DomainError):
        conformal_coordinate(catalog_surface("cone"), 1.0)


def _ripple_profile(lo, hi, k, rip, w, ph, n=40):
    from catenary import tabulated_profile

    us = [lo + (hi - lo) * j / (n - 1) for j in range(n)]
    return us, tabulated_profile(
        [(u, math.cos(k * u) + 0.08 + rip * math.sin(w * u + ph)) for u in us])


def _gauss_legendre(fn, knots, lo, hi, order=20):
    # reference integral: a high-order Gauss-Legendre rule on each smooth piece
    x, w = np.polynomial.legendre.leggauss(order)
    cuts = [lo, *(k for k in knots if lo < k < hi), hi]
    return sum(0.5 * (b - a) * sum(wi * fn(0.5 * (b - a) * xi + 0.5 * (a + b))
                                   for xi, wi in zip(x.tolist(), w.tolist()))
               for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("u", [0.888, 1.2])
def test_conformal_coordinate_integrates_tabulated_profiles_between_knots(u):
    # one QUADPACK call across all knots reports abserr ~6e-9 on this profile,
    # above the coordinate's bound, although a(u) > 0 on the whole of it
    us, spec = _ripple_profile(0.156, 1.345, 0.999, 0.038, 3.082, 5.999)
    ref = _gauss_legendre(lambda t: 1.0 / spec.profile.a(t), us, us[0], u)
    assert conformal_coordinate(spec, u) == pytest.approx(ref, rel=1e-13, abs=0.0)
    # from another anchor, downward and upward
    for u_ref in (0.5, 1.3):
        z = conformal_coordinate(spec, u, u_ref=u_ref)
        ref_from = _gauss_legendre(lambda t: 1.0 / spec.profile.a(t), us, *sorted((u_ref, u)))
        assert z == pytest.approx(ref_from if u > u_ref else -ref_from, abs=1e-12)


def test_tabulated_embedding_height_matches_reference():
    from catenary import tabulated_profile
    from catenary.revolution import _embedding

    # one QUADPACK call per row across all knots is off by up to 6.5e-7 at
    # these points (at u = 2.0 and 1.75)
    us = [0.1 + 1.95 * j / 39 for j in range(40)]
    spec = tabulated_profile([(u, 1.0 + 0.3 * math.sin(2.0 * u)) for u in us])
    points = [(u, 0.25 * j)
              for j, u in enumerate((1.9, 0.1 + 1e-9, 0.7, us[17], 1.3, 0.7, 2.0, 1.75))]
    rows = _embedding(spec, points)
    assert embed_revolution(spec, 1.3, 1.0)[2] == pytest.approx(rows[4][2], abs=1e-15)
    for (u, v), (x, y, z) in zip(points, rows):
        a = spec.profile.a(u)
        assert (x, y) == (a * math.cos(v), a * math.sin(v))
        ref = _gauss_legendre(lambda t: math.sqrt(1.0 - spec.profile.a_u(t) ** 2),
                              us, us[0], u)
        assert abs(z - ref) <= 1e-12


def test_fused_pchip_kernel_gives_the_same_results_as_the_generic_one():
    # the same PCHIP data behind the fused kernel of tabulated_profile and
    # behind profile_surface's kernel built from (a, a_u): the same bits out,
    # but for the quadrature
    us, fused = _ripple_profile(0.1, 1.4, 1.0, 0.04, 5.0, 1.0)
    p = fused.profile
    generic = profile_surface(p.a, p.a_u, p.a_uu, (us[0], us[-1]))
    pts = [*us, *(0.5 * (s + t) for s, t in zip(us, us[1:]))]
    assert repr([fused.patch.metric(t, 0.0) for t in pts]) == \
        repr([generic.patch.metric(t, 0.0) for t in pts])
    for alpha in (0.5, 1.0, 2.0):
        assert repr(critical_parallels(fused, alpha)) == repr(critical_parallels(generic, alpha))
        rho = [u ** alpha * p.a(u) for u in us]
        c = 0.5 * (max(rho) + max(rho[0], rho[-1]))  # rho = c on both sides of the top
        tp = turning_points(fused, alpha, c)
        assert len(tp) >= 2 and repr(tp) == repr(turning_points(generic, alpha, c))
        # the knots of the tabulated spec are QUADPACK breakpoints, and the
        # generic spec has none: the same integral, computed differently
        assert quadrature_v(fused, alpha, c, tp[0], tp[1]) == \
            pytest.approx(quadrature_v(generic, alpha, c, tp[0], tp[1]), rel=1e-10, abs=0.0)
        start = CatenaryState(tp[0], 0.0, math.pi / 2)
        one, two = (trace_catenary(spec, alpha, start, 4.0, 1e-10) for spec in (fused, generic))
        assert repr((one.samples, one.stats, one.termination)) == \
            repr((two.samples, two.stats, two.termination))


def test_quadrature_takes_the_scaled_integrand_where_rho_over_c_squared_overflows():
    hyp = catalog_surface("hyperbolic")
    # rho/c reaches 1e306 near u = 700; beyond u = 300 the integrand adds nothing
    far = quadrature_v(hyp, 1.0, 0.5, 1.0, 700.0)
    assert far == pytest.approx(quadrature_v(hyp, 1.0, 0.5, 1.0, 300.0), rel=1e-12)
    assert far == pytest.approx(0.0865545, rel=1e-6)
    # c = 1e-200 puts rho/c past 1e200 in the tail test; v scales with c when c is tiny
    cat = catalog_surface("catenoid")
    assert quadrature_v(cat, 1.0, 1e-200, 1.0, math.inf) == pytest.approx(
        1e-100 * quadrature_v(cat, 1.0, 1e-100, 1.0, math.inf), rel=1e-12)


def test_profile_overflow_raises_degenerate_metric_error():
    # cosh(u) overflows past u = 710: in the accessibility scan of quadrature_v,
    # in 1/a and in the root scans
    hyp = catalog_surface("hyperbolic")
    with pytest.raises(DegenerateMetricError, match="quadrature_v"):
        quadrature_v(hyp, 1.0, 0.5, 1.0, 800.0)
    with pytest.raises(DegenerateMetricError, match="conformal_coordinate"):
        conformal_coordinate(hyp, 800.0)
    with pytest.raises(DegenerateMetricError, match="critical_parallels"):
        critical_parallels(hyp, 1.0, (1.0, 800.0))
    with pytest.raises(DegenerateMetricError, match="turning_points"):
        turning_points(hyp, 1.0, 0.5, (1.0, 800.0))
    with pytest.raises(DegenerateMetricError, match="stability_exponent"):
        stability_exponent(hyp, 1.0, 750.0)
