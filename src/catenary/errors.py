"""Exception types shared across the package, and the finiteness check."""

import math


class CatenaryError(Exception):
    """Base class for all library errors."""


class DomainError(CatenaryError):
    """A point lies outside the coordinate domain of a surface."""


class ConfigError(CatenaryError):
    """Invalid construction parameters or options."""


class DegenerateMetricError(CatenaryError):
    """The metric coefficient G is not positive at the requested point."""


class SingularJetError(CatenaryError):
    """A curve jet has zero velocity where a direction is required."""


class KindError(CatenaryError):
    """The operation requires a rotationally symmetric surface."""


class InaccessibleRegionError(CatenaryError):
    """The Clairaut constant forbids part of the requested u-interval."""


class NotCriticalError(CatenaryError):
    """The given parallel is not a critical point of the Clairaut radius."""


class NotRealizableError(CatenaryError):
    """The profile cannot be realized as a Euclidean surface of revolution."""


def check_finite(**values: float) -> None:
    """Raise ConfigError naming the first NaN or infinite value; not for hot loops."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name}={value!r} must be finite")
