"""Semantic exception hierarchy.

The CLI maps these onto exit codes: ConfigError -> 2, DomainError -> 2,
NumericError -> 3, verification gate failures -> 4.
"""

__all__ = ["CovertError", "DomainError", "NumericError", "InputError", "ConfigError"]


class CovertError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CovertError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(CovertError, ArithmeticError):
    """A numerical routine failed to converge or produced a non-finite value.

    Carries enough context (routine name, arguments, iteration count) to
    reproduce the failure.
    """


class InputError(CovertError, ValueError):
    """Degenerate or malformed data handed to a simulation routine."""


class ConfigError(CovertError, ValueError):
    """Unparseable or inconsistent run configuration from CLI flags.

    There is no config file: an unknown flag such as --config is refused by
    the parser, which exits 2 as well.
    """
