"""Exception types shared across the package."""


def _shown(value) -> str:
    """``repr(value)``, or the size of an int with too many digits to convert to text."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


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
