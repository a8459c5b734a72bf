"""Exception types shared across the package."""

import math


class DimensionError(ValueError):
    """Operand shapes are incompatible; the message carries both shapes."""


class BudgetError(RuntimeError):
    """An exact enumeration of 2^exponent steps would exceed its bound.

    `required_text` is 2^exponent in decimal while that has at most 4300
    digits (Python's default limit for int-to-text conversion), else the
    text `2^exponent`; the integer itself is built only when printed.
    """

    def __init__(self, what: str, exponent: int, limit: int):
        self.what = what
        self.exponent = exponent
        self.limit = limit
        decimal = exponent * math.log10(2) < 4300
        self.required_text = str(1 << exponent) if decimal else f"2^{exponent}"
        super().__init__(
            f"{what} refused: needs {self.required_text} steps, limit is {limit}"
        )

    @property
    def required(self) -> int:
        return 1 << self.exponent


class PreconditionError(ValueError):
    """A documented precondition failed; carries a witness when one exists."""

    def __init__(self, message: str, witness=None):
        if witness is not None:
            message = f"{message} (witness: {witness})"
        super().__init__(message)
        self.witness = witness


class FormatError(ValueError):
    """Malformed input text; the message carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
