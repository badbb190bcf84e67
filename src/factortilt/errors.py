"""Exception types shared across the package, and the finite-value and integer checks."""

import numpy as np


class FactortiltError(Exception):
    """Base of every error the package raises for bad input, configuration
    or an undefined result; the CLI reports any of them as one line."""


class DataError(ValueError, FactortiltError):
    """Malformed or invalid input data (bad file, bad cell, broken invariant)."""


class ConfigError(ValueError, FactortiltError):
    """Invalid parameter value or inconsistent configuration."""


class InfeasibleCapsError(ValueError, FactortiltError):
    """The caps of the members that hold weight sum to less than one; no
    capped allocation exists."""


class StatsError(ValueError, FactortiltError):
    """A statistic is undefined on the given input series."""


def check_finite(**params) -> None:
    """Raise a ConfigError naming the first keyword parameter that is NaN or
    infinite, or a tuple holding such a value."""
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ConfigError(f"{name} must be finite, got {value!r}")


def check_integer(**params) -> None:
    """Raise a ConfigError naming the first keyword parameter that is not a Python or numpy int (a bool is not)."""
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
