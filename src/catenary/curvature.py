"""Signed geodesic curvature and the weighted-curve criteria.

In semi-geodesic coordinates the signed geodesic curvature of a curve
(u(t), v(t)) is

    kappa = -[vd*(G_v*ud*vd + 2*G_u*ud^2 + G^2*G_u*vd^2)
              + G*(ud*vdd - udd*vd)] / (ud^2 + G^2*vd^2)^(3/2)

and a regular curve with u > 0 is a critical point of the weighted length
integral of u^alpha ds exactly when kappa equals the target value
alpha*G*vd / (u*||gamma'||).  The residual returned here is the difference
between the two sides of that equation, normalized by ||gamma'||^3 so that
it does not depend on the parametrization speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import SingularJetError
from .surfaces import SurfaceSpec, eval_metric

__all__ = [
    "CurveJet2",
    "geodesic_curvature",
    "catenary_target_curvature",
    "catenary_residual",
    "normal_transversality",
    "parallel_catenary_check",
]


@dataclass(frozen=True)
class CurveJet2:
    """Second-order jet of a parametrized curve: position, velocity, acceleration."""

    u: float
    v: float
    du: float
    dv: float
    ddu: float
    ddv: float


def _speed_sq(g, u, v, du, dv):
    """Squared speed du^2 + G^2 dv^2; SingularJetError unless it is positive."""
    speed_sq = du * du + (g * dv) * (g * dv)
    if not speed_sq > 0.0:
        raise SingularJetError(f"zero-velocity jet at (u={u!r}, v={v!r})")
    return speed_sq


def _target(alpha, g, u, dv, speed_sq):
    """Target curvature alpha*G*vd/(u*speed) from G and the squared speed."""
    return alpha * g * dv / (u * math.sqrt(speed_sq))


def _kappa_residual(alpha, g, gu, gv, u, v, du, dv, ddu, ddv):
    """(kappa, residual) of a jet from one metric evaluation (G, G_u, G_v).

    With alpha None only kappa is formed, so u may be zero.
    """
    speed_sq = du * du + (g * dv) * (g * dv)
    if not speed_sq > 0.0:
        raise SingularJetError(f"zero-velocity jet at (u={u!r}, v={v!r})")
    bend = dv * (gv * du * dv + 2.0 * gu * du * du + g * g * gu * dv * dv)
    turn = g * (du * ddv - ddu * dv)
    kappa = -(bend + turn) / math.sqrt(speed_sq) ** 3
    if alpha is None:
        return kappa, None
    return kappa, ((alpha * dv * g / u) * speed_sq + bend + turn) / speed_sq ** 1.5


def geodesic_curvature(spec: SurfaceSpec, jet: CurveJet2) -> float:
    """Signed geodesic curvature of the jet; zero exactly for geodesics."""
    g, gu, gv = eval_metric(spec, jet.u, jet.v)
    return _kappa_residual(None, g, gu, gv, jet.u, jet.v, jet.du, jet.dv, jet.ddu, jet.ddv)[0]


def catenary_target_curvature(spec: SurfaceSpec, alpha: float, jet: CurveJet2) -> float:
    """Curvature a weighted critical curve must have: alpha*G*vd/(u*speed)."""
    g = eval_metric(spec, jet.u, jet.v)[0]
    return _target(alpha, g, jet.u, jet.dv, _speed_sq(g, jet.u, jet.v, jet.du, jet.dv))


def catenary_residual(spec: SurfaceSpec, alpha: float, jet: CurveJet2) -> float:
    """Scale-invariant defect of the weighted-curve equation; 0 iff the jet solves it.

    Equals (target - kappa) for regular jets, so both criteria share one
    tolerance.
    """
    g, gu, gv = eval_metric(spec, jet.u, jet.v)
    return _kappa_residual(alpha, g, gu, gv, jet.u, jet.v, jet.du, jet.dv, jet.ddu, jet.ddv)[1]


def normal_transversality(spec: SurfaceSpec, jet: CurveJet2) -> float:
    """Inner product <n, d/du> of the unit normal with the distance gradient.

    With the normal n = (-vd*G, ud/G)/||gamma'|| this is -vd*G/||gamma'||.
    """
    g = eval_metric(spec, jet.u, jet.v)[0]
    return -jet.dv * g / math.sqrt(_speed_sq(g, jet.u, jet.v, jet.du, jet.dv))


def parallel_catenary_check(spec: SurfaceSpec, alpha: float, u0: float,
                            v_samples: Sequence[float], tol: float = 1e-9) -> bool:
    """Whether the coordinate circle u = u0 is itself a weighted critical curve.

    True iff alpha*G + u0*G_u vanishes (within ``tol``) at every v sample.
    """
    for v in v_samples:
        g, gu, _ = eval_metric(spec, u0, v)
        if abs(alpha * g + u0 * gu) >= tol:
            return False
    return True
