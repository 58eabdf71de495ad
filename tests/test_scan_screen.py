"""Root scans on tabulated profiles skip the knot pieces whose cubic cannot vanish.

The reference is always ``profile_surface`` over the same PCHIP callables: it
has no piece data, so its scans evaluate rho' at every grid point.
"""

import math
import random

import numpy as np
import pytest

from catenary import critical_parallels, profile_surface, tabulated_profile, turning_points
from catenary.surfaces import MetricPatch


def _reference(spec):
    p = spec.profile
    return profile_surface(p.a, p.a_u, p.a_uu, (spec.domain.u_min, spec.domain.u_max))


def _random_samples(rng, n, uniform):
    lo = rng.uniform(0.0, 0.3)
    hi = lo + rng.uniform(0.5, 4.0)
    if uniform:
        us = [lo + (hi - lo) * j / (n - 1) for j in range(n)]
    else:
        us = sorted({lo, hi, *(rng.uniform(lo, hi) for _ in range(n - 2))})
    k, rip, w, ph = rng.uniform(0.3, 1.05), rng.uniform(0.0, 0.3), rng.uniform(1.0, 20.0), \
        rng.uniform(0.0, 2.0 * math.pi)
    return [(u, abs(math.cos(k * u)) + 0.38 + rip * math.sin(w * u + ph)) for u in us]


def test_screened_root_scans_match_the_full_scan():
    rng = random.Random(20261019)
    profiles = [_random_samples(rng, n, uniform) for n in (4, 5, 7, 13, 40, 100, 400)
                for uniform in (True, False, True, False)]
    constant = [(0.1 + 0.3 * j, 1.3) for j in range(7)]  # rho' = alpha a / u
    # a tabulated cone: at alpha = -1 rho is constant, and rho' is rounding noise
    cones = [[(u, k * u) for u in sorted({lo, *(rng.uniform(lo, 2.0) for _ in range(n))})]
             for n, k, lo in ((5, 0.7, 0.1), (12, 1.3, 0.2), (40, 0.45, 0.05), (40, 2.9, 0.3))]
    found = 0
    for samples in [*profiles, constant, *cones]:
        spec = tabulated_profile(samples)
        ref = _reference(spec)
        us = [u for u, _ in samples]
        for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
            # the default range, then one that cuts two pieces
            i, j = sorted(rng.sample(range(len(us) - 1), 2))
            cut = (us[i] + 0.3 * (us[i + 1] - us[i]), us[j] + 0.6 * (us[j + 1] - us[j]))
            for u_range in (None, cut):
                want = critical_parallels(ref, alpha, u_range)
                assert repr(critical_parallels(spec, alpha, u_range)) == repr(want)
                found += len(want) if samples in profiles else 0
                lo, hi = u_range or (us[0] + 1e-3, us[-1] - 1e-3)
                rho = [u ** alpha * spec.profile.a(u) for u in (lo, 0.5 * (lo + hi), hi)]
                c = 0.5 * (min(rho) + max(rho))
                assert repr(turning_points(spec, alpha, c, u_range)) == \
                    repr(turning_points(ref, alpha, c, u_range))
    assert found > 400  # not counting the noise roots of constant rho


def test_screen_evaluates_a_small_part_of_the_grid():
    spec = tabulated_profile(_random_samples(random.Random(7), 400, True))
    calls = []

    def counted(u, v):
        calls.append(u)
        return spec.patch.metric(u, v)

    patch = MetricPatch(spec.identifier, counted, spec.domain)
    counts = []
    for probe in (spec, _reference(spec)):
        calls.clear()
        critical_parallels(probe._replace(patch=patch), 1.0)
        counts.append(len(calls))
    screened, full = counts
    assert full >= 1000 and screened < full / 5


def test_two_roots_inside_one_piece_are_both_found():
    # on the piece [1.1, 1.6] u^2 rho' = -a + u a' is negative at both knots and
    # changes sign twice inside: the end values alone would skip the piece
    us, ys = [0.6, 1.1, 1.6, 3.0], [1.3, 0.7, 2.6, 1.3]
    spec = tabulated_profile(list(zip(us, ys)))
    alpha = -1.0
    x, x1, (y, d, c1, c0, *_) = us[1], us[2], spec.profile.pieces[1]
    cubic = [(alpha + 3) * c0, (alpha + 2) * c1 + 3 * x * c0, (alpha + 1) * d + 2 * x * c1,
             alpha * y + x * d]
    assert np.polyval(cubic, 0.0) < 0.0 and np.polyval(cubic, x1 - x) < 0.0
    want = sorted(x + s.real for s in np.roots(cubic) if 0.0 < s.real < x1 - x)
    got = critical_parallels(spec, alpha)
    assert len(want) == 2 and [p.u for p in got] == pytest.approx(want, abs=1e-9)
    assert repr(got) == repr(critical_parallels(_reference(spec), alpha))


def test_piece_data_reproduce_the_interpolant_bit_for_bit():
    samples = _random_samples(random.Random(3), 40, False)
    spec = tabulated_profile(samples)
    p = spec.profile
    assert len(p.pieces) == len(p.knots) - 1
    checks = [(x, x, piece) for x, piece in zip(p.knots, p.pieces)]
    checks += [(x, 0.5 * (x + x1), piece) for x, x1, piece in zip(p.knots, p.knots[1:], p.pieces)]
    checks.append((p.knots[-2], p.knots[-1], p.pieces[-1]))  # the last knot ends the last piece
    for x, t, (y, d, c1, c0, *_) in checks:
        s = t - x
        assert repr(0.0 + y + d * s + c1 * (s * s) + c0 * (s * s * s)) == repr(p.a(t))
        assert repr(0.0 + d + (2.0 * c1) * s + (3.0 * c0) * (s * s)) == repr(p.a_u(t))
