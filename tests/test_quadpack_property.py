"""Property test of ``revolution.quad`` against ``scipy.integrate.quad``, bit for bit.

Needs hypothesis; the examples are derandomized so the suite stays
deterministic.  The comparison is ``test_quadpack._assert_same``.
"""

import math

import pytest

from test_quadpack import _assert_same

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def integrands(draw):
    """A smooth, endpoint-singular or oscillatory f, integrable or not, on drawn limits.

    Returns (f, a, b, points); b = inf, or a = inf for swapped limits, comes
    without points, since breakpoints need finite limits.
    """
    lo = draw(st.floats(-5.0, 5.0))
    hi = lo + draw(st.floats(1e-3, 10.0))
    infinite = draw(st.booleans())
    if infinite:
        hi = math.inf
    k = draw(st.floats(0.1, 3.0))
    w = draw(st.floats(0.5, 120.0))
    p = draw(st.floats(0.05, 1.2))  # p >= 1 makes the singularity non-integrable
    s = lo if infinite else draw(st.sampled_from([lo, hi]))
    kind = draw(st.sampled_from(["smooth", "power", "log", "oscillatory"]))
    if kind == "smooth":
        def f(x):
            return math.exp(-k * x * x) + 1.0 / (1.0 + (k * x) ** 2)
    elif kind == "power":  # |x - s|^-p: singular at the end s
        def f(x):
            d = abs(x - s)
            return d ** -p / (1.0 + d * d) if d else 0.0
    elif kind == "log":
        def f(x):
            d = abs(x - s)
            return math.log(d) / (1.0 + d * d) if d else 0.0
    else:
        def f(x):
            return math.cos(w * x) / (1.0 + k * (x - lo) ** 2)
    points = []
    if not infinite:
        width = hi - lo
        points = draw(st.lists(st.one_of(
            st.floats(lo, hi),                                  # inside, or at an end
            st.sampled_from([lo, hi]),                          # at an end
            st.floats(lo - width, lo), st.floats(hi, hi + width)), max_size=5))
    if draw(st.booleans()):
        lo, hi = hi, lo
    return f, lo, hi, points


# _assert_same clears caplog for each example
@hypothesis.settings(derandomize=True, max_examples=250, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(case=integrands(), limit=st.one_of(st.integers(1, 5), st.integers(50, 200)),
                  tols=st.sampled_from([{}, {"epsabs": 1e-12, "epsrel": 1e-11},
                                        {"epsabs": 0.0, "epsrel": 1e-10}]))
def test_quad_matches_scipy_on_drawn_integrands(caplog, case, limit, tols):
    f, a, b, points = case
    _assert_same(caplog, f, a, b, points, limit=limit, **tols)
