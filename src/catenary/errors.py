"""Exception types shared across the package, and the checks of numeric parameters."""

import math

from . import _MODULES

__all__ = _MODULES["errors"].split()


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
    """Raise ConfigError naming the first non-number, NaN or infinite value; not for hot loops."""
    for name, value in values.items():
        try:  # a number adds to a float; Decimal and a bare __float__ do not
            finite = math.isfinite(value + 0.0)
        except TypeError:
            raise ConfigError(f"{name}={value!r} is not a number") from None
        except OverflowError:  # an int past the float range; its repr may be too long
            raise ConfigError(f"{name} is an int beyond the float range") from None
        if not finite:
            raise ConfigError(f"{name}={value!r} must be finite")


def _shown(name: str, value) -> str:
    """repr(value) for a message; ConfigError where value is or holds an int too long to
    print (past 4300 digits, so far beyond the float range)."""
    try:
        return repr(value)
    except ValueError:
        is_or_holds = "is" if isinstance(value, int) else "holds"
        raise ConfigError(f"{name} {is_or_holds} an int beyond the float range") from None


def _instance(name: str, value, cls):
    """value if it is a ``cls``, else ConfigError naming its type."""
    if isinstance(value, cls):
        return value
    raise ConfigError(f"{name} of type {type(value).__name__} is not a {cls.__name__}")


def _read_params(params: dict, defaults: dict, owner: str) -> dict:
    """Each name of ``defaults`` (None: required) from ``params`` as a finite float.

    Unknown and missing names, and values that ``float()`` rejects or that are not
    finite, raise ConfigError; ``owner`` ("kind 'cone'", say) ends some messages.
    """
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown parameter(s) {unknown} for {owner}")
    values = {}
    for name, default in defaults.items():
        if name not in params and default is None:
            raise ConfigError(f"parameter {name!r} is required for {owner}")
        value = params.get(name, default)
        try:
            values[name] = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {name}={value!r} is not a number") from None
        except OverflowError:
            raise ConfigError(f"parameter {name} is an int beyond the float range") from None
        check_finite(**{name: values[name]})
    return values


def _positive(name: str, value: float) -> float:
    """value if it is a number > 0, else ConfigError."""
    try:
        if value > 0.0:
            return value
    except TypeError:  # not a number: check_finite says so
        check_finite(**{name: value})
    raise ConfigError(f"{name}={_shown(name, value)} must be positive")


def _pair(name: str, value) -> tuple[float, float]:
    """value as a pair of finite numbers; ConfigError names what it is not."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ConfigError(f"{name}={_shown(name, value)} is not a pair of numbers") from None
    check_finite(**{f"{name}[0]": first, f"{name}[1]": second})
    return first, second


def _sequence(name: str, value) -> list:
    """value as a list; ConfigError unless it is iterable.  Its items are checked where read."""
    try:
        return list(value)
    except TypeError:  # named by type: the repr of a huge int raises ValueError
        raise ConfigError(f"{name} of type {type(value).__name__} is not a sequence "
                          "of numbers") from None


def _interval(name: str, value) -> tuple[float, float]:
    """value as a pair (lo, hi) of floats, lo < hi, either end possibly infinite; else
    ConfigError "bad <name> ..."."""
    try:
        lo, hi = value
        if not math.isnan(lo) and lo < hi:  # isnan raises TypeError for a non-number
            return float(lo), float(hi)
    except (TypeError, ValueError):
        pass
    except OverflowError:  # an int past the float range; its repr may be too long
        raise ConfigError(f"bad {name}: an int beyond the float range") from None
    raise ConfigError(f"bad {name} {_shown(name, value)}: need a pair of numbers lo < hi")
