"""Semantic exception hierarchy.

The CLI maps these onto exit codes: ConfigError -> 2, DomainError -> 2,
NumericError -> 3, verification gate failures -> 4.
"""

__all__ = ["CovertError", "DomainError", "NumericError", "ConfigError"]


class CovertError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CovertError, ValueError):
    """An argument outside the domain of an operation, or a malformed array."""


class NumericError(CovertError, ArithmeticError):
    """A numerical routine failed to converge or produced a non-finite value.

    Its message names the routine and the arguments or spec it failed at.
    """


class ConfigError(CovertError, ValueError):
    """Unparseable or inconsistent run configuration from CLI flags.

    There is no config file: an unknown flag such as --config is refused by
    the parser, which exits 2 as well.
    """
