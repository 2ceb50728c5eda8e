"""Semantic exception hierarchy, and the one rule for integer arguments.

The CLI maps these onto exit codes: DomainError -> 2 (a bad flag value or an
inconsistent set of flags included), NumericError -> 3, verification gate
failures -> 4.
"""

import numpy as np

__all__ = ["CovertError", "DomainError", "NumericError"]


class CovertError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CovertError, ValueError):
    """An argument outside the domain of an operation, a malformed array, or
    an unparseable or inconsistent set of CLI flags."""


class NumericError(CovertError, ArithmeticError):
    """A numerical routine failed to converge or produced a non-finite value.

    Its message names the routine and the arguments or spec it failed at.
    """


def _integer(value, least: int, who: str, name: str) -> int:
    """value as a Python int, if it is an int, a numpy integer or an
    integer-valued float in [least, 2**63); else DomainError naming who (the
    function or flag), the argument name and the value."""
    if type(value) is int and least <= value < 2**63:  # the common case, kept fast
        return value
    whole = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and value.is_integer()
    )
    if whole and least <= int(value) < 2**63:
        return int(value)
    if whole and int(value) < least:
        raise DomainError(f"{who}: need {name} >= {least}, got {value!r}")
    raise DomainError(f"{who}: need an integer {name} in [{least}, 2**63), got {value!r}")
