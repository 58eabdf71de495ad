"""Critical curves of weighted length on Riemannian surfaces.

Surfaces are described in semi-geodesic coordinates ds^2 = du^2 + G^2 dv^2,
where u is the distance to the reference curve u = 0.  The library traces
the critical curves of the functional int u^alpha ds (alpha = 1 is the
hanging chain, alpha = 0 gives geodesics), analyzes rotationally symmetric
metrics through their Clairaut radius, and validates itself against the
closed-form solution families it ships.  The package's public names are
those listed in the ``__all__`` of each module of ``_MODULES``, which is
imported on the first use of one of them: a process loads only what it uses.
"""

import importlib.util

__version__ = "0.1.0"

_MODULES = ("errors", "surfaces", "curvature", "tracing", "revolution", "closed_forms")


def __getattr__(name: str):
    """A module of ``_MODULES``, a public name or ``__all__``, imported on first use (PEP 562);
    another submodule's name raises AttributeError at once, so the import system loads it."""
    if name in _MODULES:
        return importlib.import_module(f"catenary.{name}")
    if name == "__all__":
        return [n for m in _MODULES for n in importlib.import_module(f"catenary.{m}").__all__]
    if name.isidentifier() and name[0] != "_" and not importlib.util.find_spec(f"catenary.{name}"):
        for module in (importlib.import_module(f"catenary.{m}") for m in _MODULES):
            if name in module.__all__:
                globals()[name] = getattr(module, name)
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
