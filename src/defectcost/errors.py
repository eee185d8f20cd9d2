"""Exception types shared across the package, and the one check of a number argument."""

import numpy as np

_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def _shown(value) -> str:
    """``repr(value)``, or the size of an int with too many digits to convert to text."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def _number(name: str, value, requirement: str, test, *, integer: bool = False):
    """``value`` as the equal Python ``int`` or ``float``, if it is a number that ``test`` accepts.

    A number is an ``int``, a ``float`` or a numpy integer or floating scalar,
    never a ``bool``; where ``integer`` is set, only the integer types are.
    ``test`` sees the Python number, and a value too large for a float (its
    ``OverflowError``) fails it.  Anything else raises ``InputContractError``
    "``name`` must be ``requirement``, got ``value``"."""
    kind, number = type(value), None
    if kind is int or kind is float and not integer:  # the common case, kept as it is
        number = value
    elif isinstance(value, _INTEGERS if integer else _NUMBERS) and kind is not bool:
        number = int(value) if isinstance(value, _INTEGERS) else float(value)
    try:
        if number is not None and test(number):
            return number
    except OverflowError:
        pass
    raise InputContractError(f"{name} must be {requirement}, got {_shown(value)}")


class DataError(Exception):
    """Base class for all data and contract violations raised by this package."""


class InputContractError(DataError):
    """An argument violates a documented precondition (bad id, wrong view, bad range)."""


class ParseError(DataError):
    """A file violates the matrix or prediction CSV grammar.

    Carries the 1-based line and column (field index) where the problem was
    detected, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f"line {line}"
            if column is not None:
                location += f", column {column}"
            location += ": "
        super().__init__(location + message)
