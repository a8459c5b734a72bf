"""Finite groups and matrices over the group algebra F2[G].

A group is an explicit multiplication table, a tuple of rows of Python
ints, with the identity fixed at index 0; element ordering is frozen at
construction so that the binary expansion of any algebra element is
bit-for-bit reproducible.  Tables are checked exactly at every order:
identity, Latin rows, and Light's associativity test on a greedy
generating set, which the group keeps as `generators` (group actions are
validated on the same set).  A cyclic group or a product of two names
its generators x (and y); any other table, read from a file or built in
code, names g1 .. g(l-1).  `parse_group_spec` builds each `Z<l>` or
`Z<a>xZ<b>` group once per command.

`binary_map` sends a group element to its left regular representation
(B(g)[p, q] = 1 iff g * q = p) and extends linearly, which makes it a
ring homomorphism into binary matrices.
"""

from __future__ import annotations

import math
import re
import sys
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import (DimensionError, FormatError, PreconditionError, content_lines, int_rows,
                     read_file)

if TYPE_CHECKING:
    from .gf2 import BitMatrix


# Z<l> and Z<a>xZ<b> build their l x l table: at 2048 its rows hold 34 MB (they
# share one int object per element), and checking it takes under 2 MB more.
MAX_GROUP_ORDER = 2048


class FiniteGroup:
    """Finite group as an explicit l x l multiplication table, identity 0.

    `mul_table` is l rows of l ints, kept as Python ints; `mul[g][h]` is g * h.
    """

    __slots__ = ("order", "mul", "inv", "generators", "spec", "_gen_names")

    def __init__(self, mul_table, spec: str | None = None):
        mul = int_rows(mul_table)
        order = len(mul)
        widths = {len(row) for row in mul}
        if widths != {order}:
            raise PreconditionError(
                f"multiplication table must be square, got {(order, *sorted(widths))}")
        self.generators = _check_table(mul)
        self.order = order
        self.mul = mul
        self.inv = tuple(row.index(0) for row in mul)  # associative, so also the left inverse
        self.spec = spec or f"table:{order}"
        self._gen_names = {f"g{i}": i for i in range(1, order)}

    # -- constructors --------------------------------------------------

    @classmethod
    def cyclic(cls, l: int) -> "FiniteGroup":
        if l < 1:
            raise PreconditionError(f"cyclic group order must be >= 1, got {l}")
        group = cls(_rotations(tuple(range(l))), spec=f"Z{l}")
        group._gen_names = {"x": 1} if l > 1 else {}
        return group

    @classmethod
    def direct_product(cls, a: int, b: int) -> "FiniteGroup":
        """Z_a x Z_b with elements ordered (i, j) -> i*b + j."""
        if a < 1 or b < 1:
            raise PreconditionError("cyclic factors must be >= 1")
        # row i*b + j lists, for each i2, block (i + i2) % a of Z_b row j
        blocks = [[tuple(k * b + v for v in row) for row in _rotations(tuple(range(b)))]
                  for k in range(a)]
        mul = [tuple(chain.from_iterable(blocks[k][j] for k in ks))
               for ks in _rotations(tuple(range(a))) for j in range(b)]
        group = cls(mul, spec=f"Z{a}xZ{b}")
        # x = (1, 0) steps the first factor, y = (0, 1) the second; one of order 1 has none
        group._gen_names = {name: g for name, g, size in (("x", b, a), ("y", 1, b)) if size > 1}
        return group

    @classmethod
    def from_table_text(cls, text: str, spec: str | None = None) -> "FiniteGroup":
        """Table file: first line the order l, then l rows of l indices."""
        rows = []
        order = None
        for ln_no, line in content_lines(text):
            try:
                values = [int(f) for f in line.split()]
            except ValueError:
                raise FormatError("table entries must be integers", ln_no) from None
            if order is None:
                if len(values) != 1:
                    raise FormatError("expected the group order alone", ln_no)
                order = values[0]
                continue
            if len(values) != order:
                raise FormatError(f"expected {order} entries", ln_no)
            if not all(0 <= v < order for v in values):
                raise PreconditionError("table entries out of range")
            rows.append(values)
        if order is None or len(rows) != order:
            raise FormatError(f"expected {order or '?'} table rows, got {len(rows)}")
        return cls(rows, spec=spec)

    # -- structure -----------------------------------------------------

    def multiply(self, g: int, h: int) -> int:
        return self.mul[g][h]

    def generator_names(self) -> dict[str, int]:
        return dict(self._gen_names)

    def same_group(self, other: "FiniteGroup") -> bool:
        return self is other or self.mul == other.mul

    def __repr__(self) -> str:
        return f"FiniteGroup({self.spec}, order={self.order})"


def _rotations(row: tuple) -> list[tuple]:
    """The rotations of `row`, the i-th starting at row[i]: of range(l), the table of Z_l."""
    return [row[i:] + row[:i] for i in range(len(row))]


def _check_table(mul: tuple) -> tuple[int, ...]:
    """Check the group axioms exactly; return the generating set that proves them.

    A table with identity 0 and Latin rows and columns is a loop.  Light's
    test decides associativity from a generating set S alone: if
    (x s) y = x (s y) for all x, y and each s in S, the elements with that
    property are closed under products and associate with each other, so
    they are the whole loop.  S is built greedily: the next generator is
    the lowest element that products of the earlier ones do not reach,
    found by closing under right products with S.  The test costs
    |S| n^2 (|S| <= log2 n for a group) in place of n^3.  A table that
    passes it with Latin rows is a group, so its columns are Latin too:
    they are read only when the test fails, to report a table that is no
    Latin square as such.
    """
    order = len(mul)
    idx = list(range(order))
    latin_rows = True
    for row in mul:
        if sorted(row) != idx:
            if min(row) < 0 or max(row) >= order:
                raise PreconditionError("table entries out of range")
            latin_rows = False
    if not (list(mul[0]) == idx and [row[0] for row in mul] == idx):
        raise PreconditionError("element 0 is not a two-sided identity")
    if not latin_rows:
        raise PreconditionError("table is not a Latin square")
    gens: list[int] = []
    reached = {0}
    s = 0
    while len(reached) < order:
        s = next(w for w in range(s + 1, order) if w not in reached)
        times_s = itemgetter(*mul[s])          # row x -> x (s y) over every y
        for x, row in enumerate(mul):
            if mul[row[s]] != times_s(row):    # (x s) y against x (s y)
                if any(sorted(col) != idx for col in zip(*mul)):
                    raise PreconditionError("table is not a Latin square")
                y = next(y for y, (a, b) in enumerate(zip(mul[row[s]], times_s(row))) if a != b)
                raise PreconditionError(f"associativity fails at triple {(x, s, y)}")
        gens.append(s)
        fresh = {mul[m][s] for m in reached} - reached
        while fresh:
            reached |= fresh
            fresh = {mul[m][t] for m in fresh for t in gens} - reached
    return tuple(gens)


@lru_cache(maxsize=2)  # a command reads at most two group specs
def _named_group(factors: tuple[int, ...]) -> FiniteGroup:
    if len(factors) == 2:
        return FiniteGroup.direct_product(*factors)
    return FiniteGroup.cyclic(*factors)


def parse_group_spec(spec: str, root: str | Path = "") -> FiniteGroup:
    """Accepted specs: "Z<l>", "Z<a>xZ<b>", "table:<path>", a relative path read from `root`."""
    spec = spec.strip()
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        if "\0" in path:
            raise FormatError("group table path holds a null byte")
        return read_file(Path(root, path), FiniteGroup.from_table_text, spec)
    m = re.fullmatch(r"Z(\d+)(?:xZ(\d+))?", spec)
    if not m:
        raise FormatError(f"unrecognised group spec {spec!r}")
    try:
        factors = [int(f) for f in m.groups() if f is not None]
    except ValueError:  # more digits than Python converts
        factors = None
    if factors is None or 8 * math.prod(factors) ** 2 > sys.maxsize:
        raise FormatError("group table would exceed the largest array size")
    if 0 in factors:
        raise FormatError(f"group spec {spec!r} has a cyclic factor of order 0")
    if (order := math.prod(factors)) > MAX_GROUP_ORDER:
        raise FormatError(f"group order {order} exceeds the limit {MAX_GROUP_ORDER}")
    return _named_group(tuple(factors))


class GroupAlgebraElement(NamedTuple):
    """Element of F2[G], stored as a bit mask over the group's elements."""

    group: FiniteGroup
    mask: int

    @classmethod
    def zero(cls, group: FiniteGroup) -> "GroupAlgebraElement":
        return cls(group, 0)

    def support(self) -> tuple[int, ...]:
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check_group(other)
        return GroupAlgebraElement(self.group, self.mask ^ other.mask)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check_group(other)
        mul = self.group.mul
        mask = 0
        for g in self.support():
            for h in other.support():
                mask ^= 1 << mul[g][h]
        return GroupAlgebraElement(self.group, mask)

    def _check_group(self, other: "GroupAlgebraElement") -> None:
        if not self.group.same_group(other.group):
            raise PreconditionError(
                f"elements live in different groups ({self.group.spec} vs {other.group.spec})"
            )


class GroupAlgebraMatrix:
    """Matrix with entries in F2[G], all sharing one group."""

    __slots__ = ("group", "rows", "cols", "entries")

    def __init__(self, group: FiniteGroup, entries, cols: int | None = None):
        # `cols` disambiguates the width of matrices with zero rows
        self.group = group
        ent = tuple(tuple(row) for row in entries)
        self.rows = len(ent)
        self.cols = len(ent[0]) if ent else (cols or 0)
        if ent and cols is not None and cols != self.cols:
            raise DimensionError(f"declared {cols} columns, rows have {self.cols}")
        for row in ent:
            if len(row) != self.cols:
                raise DimensionError("ragged entry grid")
            for e in row:
                if not isinstance(e, GroupAlgebraElement) or not e.group.same_group(group):
                    raise PreconditionError("entries must share the matrix group")
        self.entries = ent

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.group.same_group(other.group)
            and all(
                a.mask == b.mask
                for ra, rb in zip(self.entries, other.entries)
                for a, b in zip(ra, rb)
            )
        )

    def __repr__(self) -> str:
        return f"GroupAlgebraMatrix({self.rows}x{self.cols} over {self.group.spec})"


def binary_map(m: GroupAlgebraMatrix) -> BitMatrix:
    """Expand every entry by the left regular representation.

    B(g)[p, q] = 1 iff g * q = p; a sum of distinct group elements expands
    to the sum of their permutation matrices, whose supports are disjoint.
    The output is ml x nl.
    """
    from .gf2 import BitMatrix

    l, mul = m.group.order, m.group.mul
    cols = m.cols * l
    flat = []
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            for h in e.support():     # column j l + q of block (i, j) has its one in row i l + h q
                corner = i * l * cols + j * l
                flat += [corner + p * cols + q for q, p in enumerate(mul[h])]
    return BitMatrix(m.rows * l, cols, flat)


# -- text format ------------------------------------------------------------

_TERM_RE = re.compile(r"(g\d+|[xy])(?:\^(\d+))?$")


def _parse_term(term: str, group: FiniteGroup, ln: int) -> int:
    """One product of generator powers; returns the group element index."""
    if term == "1":
        return 0
    gens = group.generator_names()
    acc = 0
    for factor in term.split("*"):
        match = _TERM_RE.match(factor.strip())
        if not match:
            raise FormatError(f"cannot parse term {term!r}", ln)
        base_name = match.group(1)
        try:
            power = int(match.group(2) or 1)
        except ValueError:  # more digits than Python converts
            raise FormatError("exponent has more than 4300 digits", ln) from None
        if base_name in gens:
            base = gens[base_name]
        elif base_name.startswith("g") and base_name[1:].isdigit():
            base = int(base_name[1:])
            if base >= group.order:
                raise FormatError(f"element {base_name} out of range", ln)
        else:
            raise FormatError(f"unknown generator {base_name!r}", ln)
        for _ in range(power % group.order):  # exact: g^|G| is the identity
            acc = group.multiply(acc, base)
    # term written with the identity on the left, so acc already is g^k...
    return acc


def parse_element(text: str, group: FiniteGroup, ln: int = 0) -> GroupAlgebraElement:
    text = text.strip()
    if text == "0":
        return GroupAlgebraElement.zero(group)
    mask = 0
    for term in text.split("+"):
        mask ^= 1 << _parse_term(term.strip(), group, ln)
    return GroupAlgebraElement(group, mask)


def parse_ring_matrix(text: str, root: str | Path = "") -> GroupAlgebraMatrix:
    """Header "m n group=<spec>", then m comma-separated polynomial rows;
    a `table:` path in the spec is read from the directory `root`."""
    content = content_lines(text)
    ln, line = next(content, (0, None))
    if line is None:
        raise FormatError("empty ring-matrix file")
    header = line.split()
    if len(header) != 3 or not header[2].startswith("group="):
        raise FormatError("expected header 'm n group=<spec>'", ln)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("expected integer dimensions", ln) from None
    if m < 0 or n < 0:
        raise FormatError("expected non-negative dimensions", ln)
    group = parse_group_spec(header[2][len("group="):], root)
    rows = []
    for _, (ln, line) in zip(range(m), content):
        fields = line.split(",")
        if len(fields) != n:
            raise FormatError(f"expected {n} comma-separated entries", ln)
        rows.append([parse_element(f, group, ln) for f in fields])
    if len(rows) < m:
        raise FormatError(f"expected {m} rows of entries", len(text.splitlines()))
    return GroupAlgebraMatrix(group, rows, cols=n)
