"""Critical curves of weighted length on Riemannian surfaces.

Surfaces are described in semi-geodesic coordinates ds^2 = du^2 + G^2 dv^2,
where u is the distance to the reference curve u = 0.  The library traces
the critical curves of the functional int u^alpha ds (alpha = 1 is the
hanging chain, alpha = 0 gives geodesics), analyzes rotationally symmetric
metrics through their Clairaut radius, and validates itself against the
closed-form solution families it ships.  ``_MODULES`` is the one list of the
public names, by module, and each module reads its ``__all__`` from it; a name's own
module is imported on its first use, so a process loads only what it uses.
"""

import importlib

__version__ = "0.1.0"

# each module's public names, in order
_MODULES = {
    "errors": "CatenaryError DomainError ConfigError DegenerateMetricError SingularJetError "
              "KindError InaccessibleRegionError NotCriticalError NotRealizableError",
    "surfaces": "Domain MetricPatch RevolutionProfile SurfaceSpec CATALOG_KINDS CATALOG_PARAMS "
                "catalog_surface eval_metric ruled_surface ruled_surface_from_samples "
                "tabulated_profile profile_surface load_profile_csv",
    "curvature": "CurveJet2 geodesic_curvature catenary_target_curvature catenary_residual "
                 "normal_transversality parallel_catenary_check",
    "tracing": "CatenaryState TraceSample Trace TERMINATIONS trace_catenary trace_graph",
    "revolution": "CriticalParallel clairaut_constant critical_parallels turning_points "
                  "quadrature_v conformal_coordinate stability_exponent embed_revolution",
    "closed_forms": "ClosedFormFamily closed_form_family euclidean_catenary cone_catenary "
                    "grusin_catenary grusin_geodesic hyperbolic_quadrature validate_closed_form",
}
_OWNER = {name: module for module, names in _MODULES.items() for name in names.split()}


def __getattr__(name: str):
    """A module of ``_MODULES``, a public name (its own module imported on first use, PEP 562)
    or ``__all__``; any other name raises AttributeError at once, so the import system loads
    a submodule of that name."""
    if name in _MODULES:
        return importlib.import_module(f"catenary.{name}")
    if name == "__all__":
        return list(_OWNER)
    if name in _OWNER:
        globals()[name] = getattr(importlib.import_module(f"catenary.{_OWNER[name]}"), name)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER})
