"""Exception types shared across the package."""


class FactortiltError(Exception):
    """Base of every error the package raises for bad input, configuration
    or an undefined result; the CLI reports any of them as one line."""


class DataError(ValueError, FactortiltError):
    """Malformed or invalid input data (bad file, bad cell, broken invariant)."""


class ConfigError(ValueError, FactortiltError):
    """Invalid parameter value or inconsistent configuration."""


class InfeasibleCapsError(ValueError, FactortiltError):
    """Weight caps sum to less than one; no capped allocation exists."""


class ProjectionError(RuntimeError, FactortiltError):
    """Cap-and-redistribute projection failed to terminate cleanly."""


class StatsError(ValueError, FactortiltError):
    """A statistic is undefined on the given input series."""
