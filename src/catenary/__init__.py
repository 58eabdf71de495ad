"""Critical curves of weighted length on Riemannian surfaces.

Surfaces are described in semi-geodesic coordinates ds^2 = du^2 + G^2 dv^2,
where u is the distance to the reference curve u = 0.  The library traces
the critical curves of the functional int u^alpha ds (alpha = 1 is the
hanging chain, alpha = 0 gives geodesics), analyzes rotationally symmetric
metrics through their Clairaut radius, and validates itself against the
closed-form solution families it ships.
"""

from .closed_forms import (
    ClosedFormFamily,
    closed_form_family,
    cone_catenary,
    euclidean_catenary,
    grusin_catenary,
    grusin_geodesic,
    hyperbolic_quadrature,
    validate_closed_form,
)
from .curvature import (
    CurveJet2,
    catenary_residual,
    catenary_target_curvature,
    geodesic_curvature,
    normal_transversality,
    parallel_catenary_check,
)
from .errors import (
    CatenaryError,
    ConfigError,
    DegenerateMetricError,
    DomainError,
    InaccessibleRegionError,
    KindError,
    NotCriticalError,
    NotRealizableError,
    SingularJetError,
)
from .revolution import (
    CriticalParallel,
    clairaut_constant,
    conformal_coordinate,
    critical_parallels,
    embed_revolution,
    quadrature_v,
    stability_exponent,
    turning_points,
)
from .surfaces import (
    CATALOG_KINDS,
    Domain,
    MetricPatch,
    RevolutionProfile,
    SurfaceSpec,
    catalog_surface,
    eval_metric,
    load_profile_csv,
    profile_surface,
    ruled_surface,
    ruled_surface_from_samples,
    tabulated_profile,
)
from .tracing import (
    CatenaryState,
    Trace,
    TraceSample,
    trace_catenary,
    trace_graph,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
