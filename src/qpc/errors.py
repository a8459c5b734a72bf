"""Exception types and the file, line, JSON and integer-table readers, shared across the package."""

import math
from pathlib import Path


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


def read_file(path: str, parse, *args):
    """`parse(text, *args)` of the file at `path`, read as UTF-8 whatever the locale;
    a parse or decode error names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *args)
    except (FormatError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def content_lines(text: str):
    """(number, text before any "#") of each line that holds more than whitespace there,
    numbered as `str.splitlines` counts lines from 1."""
    for number, line in enumerate(text.splitlines(), start=1):
        if (line := line.split("#", 1)[0]).strip():
            yield number, line


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def load_object(text: str, what: str) -> dict:
    """`text` as one JSON object; anything else is a `FormatError` naming `what`."""
    import json

    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers beyond 4300 digits
        raise FormatError(f"invalid JSON: {exc}") from exc
    return typed(data, dict, what)


def typed(value, kind: type, what: str):
    """`value` when its type is exactly `kind` (so a bool is no int), else a `FormatError`."""
    if type(value) is not kind:
        raise FormatError(f"{what} must be {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}")
    return value


def typed_list(data: dict, key: str, kind: type | None = None, where: str = "") -> list:
    """`data[key]` (default empty) as a list, each entry of type `kind` when given."""
    value = typed(data.get(key, []), list, f"{where}{key!r}")
    if kind is not None:
        for k, entry in enumerate(value):
            typed(entry, kind, f"{where}{key!r} entry {k}")
    return value


def int_rows(table) -> tuple[tuple[int, ...], ...]:
    """`table` as rows of Python ints, which shift and serialise without overflow:
    a numpy array is read by `tolist`, numpy scalars by `int`."""
    rows = map(tuple, table.tolist() if hasattr(table, "tolist") else table)
    return tuple(r if not r or type(r[0]) is int else tuple(map(int, r)) for r in rows)
