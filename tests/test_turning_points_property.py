"""Property test of ``turning_points`` on random tabulated profiles.

Needs hypothesis; the examples are derandomized so the suite stays
deterministic.
"""

import math

import numpy as np
import pytest

from catenary import critical_parallels, profile_surface, tabulated_profile, turning_points

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def profiles(draw):
    """Samples of a(u) = cos(k u) + 0.08 + ripple, positive on the drawn range."""
    n = draw(st.integers(4, 60))
    lo = draw(st.floats(0.05, 0.2))
    hi = draw(st.floats(1.3, 1.45))
    k = draw(st.floats(0.95, 1.05))
    rip = draw(st.floats(0.0, 0.05))
    w = draw(st.floats(3.0, 8.0))
    ph = draw(st.floats(0.0, 2.0 * math.pi))
    us = [lo + (hi - lo) * j / (n - 1) for j in range(n)]
    return [(u, math.cos(k * u) + 0.08 + rip * math.sin(w * u + ph)) for u in us]


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(profiles(), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 1.0))
def test_turning_points_find_every_root_on_tabulated_profiles(samples, alpha, q):
    spec = tabulated_profile(samples)
    grid = np.linspace(samples[0][0], samples[-1][0], 4001)[1:-1]
    cell = grid[1] - grid[0]
    rho = [float(u) ** alpha * spec.profile.a(float(u)) for u in grid]
    c = min(rho) + q * (max(rho) - min(rho))
    roots = turning_points(spec, alpha, c)
    for r in roots:
        assert abs(r ** alpha * spec.profile.a(r) - c) <= 1e-9 * max(1.0, c)
    for i in range(len(grid) - 1):
        if (rho[i] < c) != (rho[i + 1] < c):
            assert any(grid[i] - 2 * cell <= r <= grid[i + 1] + 2 * cell for r in roots), \
                (grid[i], roots)
    # the same PCHIP callables without piece data: the full root scan
    p = spec.profile
    full = profile_surface(p.a, p.a_u, p.a_uu, (samples[0][0], samples[-1][0]))
    assert repr(critical_parallels(spec, alpha)) == repr(critical_parallels(full, alpha))
