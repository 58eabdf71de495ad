"""``revolution.quad`` against ``scipy.integrate.quad``, bit for bit.

The library runs its own plain-Python port of QUADPACK (``catenary.quadpack``);
scipy's ``quad``, on its compiled QUADPACK, is the oracle here.  ``quad``
returns (value, abserr) and logs a warning, with QUADPACK's ier, where scipy
raises ``IntegrationWarning``.
"""

import logging
import math
import re
import struct
import subprocess
import sys
import warnings

import pytest
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad

import catenary.revolution as revolution
from catenary import (
    DomainError,
    catalog_surface,
    conformal_coordinate,
    critical_parallels,
    quadrature_v,
    turning_points,
)
from catenary.revolution import quad

TOLS = {"epsabs": 1e-12, "epsrel": 1e-11, "limit": 200}
# the start of scipy's warning for each ier that QUADPACK reports without failing
SCIPY_WARNINGS = {1: "The maximum number of subdivisions", 2: "The occurrence of roundoff",
                  3: "Extremely bad integrand", 4: "The algorithm does not converge",
                  5: "The integral is probably divergent", 7: "Abnormal termination"}


def _bits(x):
    return struct.pack("<d", x)


def _assert_same(caplog, fn, a, b, points=(), **options):
    """(value, abserr) equal scipy's bit for bit; one warning is logged iff scipy warns.

    The logged warning names the ier of scipy's warning.

    Points strictly inside (a, b) go to scipy's ``points=`` as well, with its
    ``limit`` raised by their number; without them scipy takes QAGS or QAGI.
    Returns quad's result and the messages it logged.
    """
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="catenary"):
        got = quad(fn, a, b, points=points, **options)
    logged = [r.getMessage() for r in caplog.records if r.name == "catenary"]
    inner = {p for p in points if min(a, b) < p < max(a, b)}
    if inner:
        options.update(points=points, limit=options.get("limit", 50) + len(inner))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        want = scipy_quad(fn, a, b, **options)
    warned = [w for w in caught if issubclass(w.category, IntegrationWarning)]
    assert len(got) == 2
    assert (_bits(got[0]), _bits(got[1])) == (_bits(want[0]), _bits(want[1]))
    assert len(logged) == len(warned) <= 1
    for message, warning in zip(logged, warned):
        ier = int(re.search(r"\(ier=(\d)\)", message).group(1))
        assert str(warning.message).startswith(SCIPY_WARNINGS[ier])
    return got, logged


@pytest.mark.parametrize("fn, a, b", [
    (math.sin, 0.0, 1.0),                           # finite interval
    (math.sin, 1.0, 0.0),                           # swapped limits
    (lambda x: math.exp(-x), 0.0, math.inf),        # improper upper limit
    (lambda x: 1.0 / (1.0 + x * x), math.inf, 1.0),  # improper, swapped
    (lambda x: x ** -0.9, 0.0, 1.0),                # endpoint singularity
])
@pytest.mark.parametrize("options", [{}, TOLS])
def test_quad_matches_scipy(fn, a, b, options, caplog):
    _, logged = _assert_same(caplog, fn, a, b, **options)
    assert not logged


def test_empty_interval_is_zero_without_a_call():
    def fail(x):
        raise AssertionError("integrand called")

    for b in (2.0, math.inf):
        assert quad(fail, b, b) == (0.0, 0.0)
        assert quad(fail, b, b, points=[b], **TOLS) == (0.0, 0.0)
    # scipy gives the same bits (recent scipy takes this shortcut too)
    assert [_bits(x) for x in scipy_quad(math.exp, 2.0, 2.0)] == [_bits(0.0)] * 2


@pytest.mark.parametrize("fn, a, b", [
    (lambda x: 1.0 / x, 0.0, 1.0),
    (lambda x: math.sin(1.0 / x), 1e-8, 1.0),
])
def test_quad_matches_scipy_when_it_does_not_converge(fn, a, b, caplog):
    _, [message] = _assert_same(caplog, fn, a, b)
    assert "did not converge (ier=" in message


def _kink(x):
    return abs(x - 0.3) + math.sin(5.0 * x)


@pytest.mark.parametrize("a, b, points", [
    (0.0, 1.0, [0.3]),                      # a breakpoint on the kink
    (1.0, 0.0, [0.7, 0.3, 0.3, 2.0]),       # swapped limits, unsorted, repeated, outside
    (0.0, 1.0, [k / 80 for k in range(81)]),  # more breakpoints than limit=50
])
@pytest.mark.parametrize("options", [{}, TOLS])
def test_quad_with_breakpoints_matches_scipy(a, b, points, options, caplog):
    _, logged = _assert_same(caplog, _kink, a, b, points, **options)
    assert not logged


@pytest.mark.parametrize("points", [[0.0, 1.0], [-1.0, 2.0]])
def test_breakpoints_at_or_outside_the_ends_keep_qags(points, caplog):
    # no breakpoint inside (a, b): the very QAGS call made without points
    got, _ = _assert_same(caplog, _kink, 0.0, 1.0, points, **TOLS)
    assert [_bits(x) for x in got] == [_bits(x) for x in quad(_kink, 0.0, 1.0, **TOLS)]
    with pytest.raises(ValueError, match="finite"):
        quad(math.exp, 0.0, math.inf, points=[1.0])


def _tabulated():
    from catenary import tabulated_profile

    us = [0.1 + 1.3 * j / 39 for j in range(40)]
    return tabulated_profile([(u, math.cos(u) + 0.08 + 0.03 * math.sin(5.0 * u)) for u in us])


@pytest.mark.parametrize("kind, c, u0, u1", [
    ("sphere", 0.5, "turning", "turning"),     # between the two turning points
    ("catenoid", 1.0, "turning", 2.0),         # from the turning point to a finite u
    ("catenoid", 0.5, 1.5, math.inf),          # improper upper limit
    ("tabulated", 0.45, "turning", "turning"),  # knots as breakpoints
])
def test_quadrature_v_integrands_match_scipy(kind, c, u0, u1, monkeypatch, caplog):
    spec = _tabulated() if kind == "tabulated" else catalog_surface(kind)
    turning = turning_points(spec, 1.0, c)
    u0, u1 = (turning[0] if u0 == "turning" else u0), (turning[-1] if u1 == "turning" else u1)
    calls = []

    def record(fn, a, b, **options):
        calls.append((fn, a, b, options))
        return quad(fn, a, b, **options)

    monkeypatch.setattr(revolution, "quad", record)
    quadrature_v(spec, 1.0, c, u0, u1)
    assert len(calls) == (2 if u1 == math.inf else 3)  # both ends and the middle
    if kind == "tabulated":  # every piece is split at the knots inside it
        assert all(any(a < p < b for p in options["points"]) for _, a, b, options in calls)
    for fn, a, b, options in calls:
        _assert_same(caplog, fn, a, b, **options)


def test_quadrature_v_logs_what_did_not_converge(caplog):
    # a turning end 1e-6 off an unstable critical parallel (rho = cosh(u)/u
    # has a minimum) is no critical parallel itself, but its integrand is
    # nearly singular there and QUADPACK says that it did not converge
    spec = catalog_surface("hyperbolic")
    [parallel] = critical_parallels(spec, -1.0)
    c = math.cosh(parallel.u) / parallel.u
    with caplog.at_level(logging.WARNING, logger="catenary"):
        quadrature_v(spec, -1.0, c, parallel.u + 1e-6, 2.0)
    assert caplog.records and all(r.name == "catenary" for r in caplog.records)
    assert "did not converge" in caplog.records[0].getMessage()


def test_invalid_limit_raises_value_error():
    with pytest.raises(ValueError):
        scipy_quad(math.sin, 0.0, 1.0, limit=0)
    with pytest.raises(ValueError):
        quad(math.sin, 0.0, 1.0, limit=0)


def test_quad_works_without_scipy(monkeypatch):
    want = quad(_kink, 0.0, 1.0, points=[0.3], **TOLS)
    for name in ("scipy", "numpy"):  # importing either now raises ImportError
        monkeypatch.setitem(sys.modules, name, None)
    assert quad(_kink, 0.0, 1.0, points=[0.3], **TOLS) == want
    assert quad(math.sin, 0.0, 1.0)[0] == pytest.approx(1.0 - math.cos(1.0), abs=1e-14)
    assert quad(lambda x: math.exp(-x), 0.0, math.inf)[0] == pytest.approx(1.0, abs=1e-14)


def test_non_converged_integral_logs_a_warning(caplog):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any Python warning fails the test
        with caplog.at_level(logging.WARNING, logger="catenary"):
            value, abserr = quad(lambda x: 1.0 / x, 0.0, 1.0)
    assert value > 0.0 and abserr > 0.0
    [record] = caplog.records
    assert record.name == "catenary" and record.levelno == logging.WARNING
    assert "ier=" in record.getMessage() and "[0.0, 1.0]" in record.getMessage()


def test_conformal_coordinate_logs_before_its_domain_error(caplog):
    # 1/a = 1/(k u) is not integrable from the cone's apex: QUADPACK runs out of
    # subintervals, which is logged as for any caller, and the error estimate decides
    with caplog.at_level(logging.WARNING, logger="catenary"):
        with pytest.raises(DomainError, match="not integrable"):
            conformal_coordinate(catalog_surface("cone"), 1.0)
    [record] = caplog.records
    assert "integral over [0.0, 1.0] did not converge (ier=1)" in record.getMessage()


def test_embedding_logs_non_converged_height(caplog):
    from catenary import embed_revolution, profile_surface

    # a' oscillates ever faster towards u = 0, so QUADPACK runs out of subintervals
    spec = profile_surface(lambda u: 1.0, lambda u: 0.9 * math.sin(1.0 / u),
                           lambda u: 0.0, (0.0, 2.0))
    with caplog.at_level(logging.WARNING, logger="catenary"):
        x, y, z = embed_revolution(spec, 1.0, 0.0, u_ref=1e-4)
    assert (x, y) == (1.0, 0.0) and 0.4 < z < 1.0
    [record] = caplog.records
    assert "ier=1" in record.getMessage() and "[0.0001, 1.0]" in record.getMessage()


def test_quadrature_and_embedding_import_no_scipy_integrate():
    # the quadrature is plain Python: no numpy or scipy module is loaded at all
    code = (
        "import math, sys\n"
        "from catenary import catalog_surface, embed_revolution, quadrature_v\n"
        "quadrature_v(catalog_surface('catenoid'), 1, 0.5, 1.5, math.inf)\n"
        "embed_revolution(catalog_surface('sphere'), 0.5, 0.1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"

