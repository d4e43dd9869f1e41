"""Exception taxonomy shared across the package, and the value checks that raise it."""

import math


class MetafnError(Exception):
    """Base class for all package errors."""


class DimensionError(MetafnError):
    """Array shapes are inconsistent with an operation's contract."""


class ConfigError(MetafnError):
    """Invalid model or run configuration."""


class DataError(MetafnError):
    """Malformed or inconsistent input data."""


class UsageError(MetafnError):
    """An API or CLI call violates a precondition."""


class CheckpointError(MetafnError):
    """A checkpoint file is incompatible, truncated, or corrupt."""


def check_int(key: str, value, minimum: int) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` is an int >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, not {value!r}")


def check_real(key: str, value) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` is a finite number >= 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value < 0):
        raise ConfigError(f"{key} must be a finite number >= 0, not {value!r}")


def check_choice(key: str, value, choices: tuple) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(map(repr, choices))}, "
                          f"not {value!r}")
