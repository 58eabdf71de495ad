"""Critical curves of weighted length on Riemannian surfaces.

Surfaces are described in semi-geodesic coordinates ds^2 = du^2 + G^2 dv^2,
where u is the distance to the reference curve u = 0.  The library traces
the critical curves of the functional int u^alpha ds (alpha = 1 is the
hanging chain, alpha = 0 gives geodesics), analyzes rotationally symmetric
metrics through their Clairaut radius, and validates itself against the
closed-form solution families it ships.  The package's public names are
those listed in the ``__all__`` of each module below.
"""

from . import closed_forms, curvature, errors, revolution, surfaces, tracing
from .closed_forms import *
from .curvature import *
from .errors import *
from .revolution import *
from .surfaces import *
from .tracing import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, surfaces, curvature, tracing, revolution, closed_forms)
           for name in module.__all__]
