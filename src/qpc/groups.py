"""Finite groups and matrices over the group algebra F2[G].

A group is an explicit multiplication table with the identity fixed at
index 0; element ordering is frozen at construction so that the binary
expansion of any algebra element is bit-for-bit reproducible.  Tables
are checked exactly at every order: Latin square, identity, and Light's
associativity test on a greedy generating set, which the group keeps as
`generators` (group actions are validated on the same set).  A cyclic
group or a product of two names its generators x (and y); any other
table, read from a file or built in code, names g1 .. g(l-1).

`binary_map` sends a group element to its left regular representation
(B(g)[p, q] = 1 iff g * q = p) and extends linearly, which makes it a
ring homomorphism into binary matrices.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, FormatError, PreconditionError, read_file
from .gf2 import BitMatrix


# Z<l> and Z<a>xZ<b> build their l x l int64 table (32 MiB here, ~200 MB to check it).
MAX_GROUP_ORDER = 2048


class FiniteGroup:
    """Finite group as an explicit l x l multiplication table, identity 0."""

    __slots__ = ("order", "mul", "inv", "generators", "spec", "_gen_names")

    def __init__(self, mul_table, spec: str | None = None,
                 cyclic_shape: tuple[int, ...] | None = None):
        mul = np.asarray(mul_table, dtype=np.int64)
        order = mul.shape[0]
        if mul.shape != (order, order):
            raise PreconditionError(f"multiplication table must be square, got {mul.shape}")
        if mul.min(initial=0) < 0 or mul.max(initial=0) >= order:
            raise PreconditionError("table entries out of range")
        self.generators = _validate_group_table(mul)
        self.order = order
        self.mul = mul
        self.inv = np.argmax(mul == 0, axis=1)  # associative, so also the left inverse
        self.spec = spec or f"table:{order}"
        if cyclic_shape is None:
            self._gen_names = {f"g{i}": i for i in range(1, order)}
        else:  # x steps the first cyclic factor, y the second; a factor of order 1 has none
            steps = {"x": math.prod(cyclic_shape[1:]), "y": 1}
            self._gen_names = {n: steps[n] for n, size in zip("xy", cyclic_shape) if size > 1}

    # -- constructors --------------------------------------------------

    @classmethod
    def cyclic(cls, l: int) -> "FiniteGroup":
        if l < 1:
            raise PreconditionError(f"cyclic group order must be >= 1, got {l}")
        idx = np.arange(l)
        mul = (idx[:, None] + idx[None, :]) % l
        return cls(mul, spec=f"Z{l}", cyclic_shape=(l,))

    @classmethod
    def direct_product(cls, a: int, b: int) -> "FiniteGroup":
        """Z_a x Z_b with elements ordered (i, j) -> i*b + j."""
        if a < 1 or b < 1:
            raise PreconditionError("cyclic factors must be >= 1")
        ia = np.arange(a * b) // b
        ib = np.arange(a * b) % b
        mul = ((ia[:, None] + ia[None, :]) % a) * b + (ib[:, None] + ib[None, :]) % b
        return cls(mul, spec=f"Z{a}xZ{b}", cyclic_shape=(a, b))

    @classmethod
    def from_table_text(cls, text: str, spec: str | None = None) -> "FiniteGroup":
        """Table file: first line the order l, then l rows of l indices."""
        rows = []
        order = None
        for ln_no, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            fields = stripped.split()
            try:
                values = [int(f) for f in fields]
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
        return cls(np.array(rows), spec=spec)

    # -- structure -----------------------------------------------------

    def multiply(self, g: int, h: int) -> int:
        return int(self.mul[g, h])

    def generator_names(self) -> dict[str, int]:
        return dict(self._gen_names)

    def same_group(self, other: "FiniteGroup") -> bool:
        return self is other or (
            self.order == other.order and np.array_equal(self.mul, other.mul)
        )

    def __repr__(self) -> str:
        return f"FiniteGroup({self.spec}, order={self.order})"


def _validate_group_table(mul: np.ndarray) -> tuple[int, ...]:
    """Check the group axioms exactly; return the generating set that proves them.

    A Latin square with identity 0 is a loop.  Light's test decides
    associativity from a generating set S alone: if (x s) y = x (s y) for
    all x, y and each s in S, the elements with that property are closed
    under products, so they are the whole loop.  S is built greedily: the
    next generator is the lowest element that products of the earlier ones
    do not reach.  The test costs |S| n^2 (|S| <= log2 n for a group) in
    place of n^3.
    """
    order = mul.shape[0]
    if order == 0:
        raise PreconditionError("empty group table")
    idx = np.arange(order)
    if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
        raise PreconditionError("element 0 is not a two-sided identity")
    if not (np.array_equal(np.sort(mul, axis=1), np.tile(idx, (order, 1)))
            and np.array_equal(np.sort(mul, axis=0), np.tile(idx[:, None], (1, order)))):
        raise PreconditionError("table is not a Latin square")
    gens: list[int] = []
    reached = idx == 0
    while not reached.all():
        s = int(np.argmin(reached))
        left, right = mul[mul[:, s]], np.take(mul, mul[s], axis=1)  # (x s) y, x (s y)
        if not np.array_equal(left, right):
            x, y = np.argwhere(left != right)[0].tolist()
            raise PreconditionError(f"associativity fails at triple {(x, s, y)}")
        gens.append(s)
        # close under products; each round multiplies the new elements by all
        fresh = np.array([s])
        while fresh.size:
            reached[fresh] = True
            members = np.flatnonzero(reached)
            grown = np.concatenate([mul[np.ix_(fresh, members)].ravel(),
                                    mul[np.ix_(members, fresh)].ravel()])
            # a count, not np.unique, which would import numpy.ma
            fresh = np.flatnonzero((np.bincount(grown, minlength=order) > 0) & ~reached)
    return tuple(gens)


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
    if factors is None or 8 * math.prod(factors) ** 2 > np.iinfo(np.intp).max:
        raise FormatError("group table would exceed the largest array size")
    if 0 in factors:
        raise FormatError(f"group spec {spec!r} has a cyclic factor of order 0")
    if (order := math.prod(factors)) > MAX_GROUP_ORDER:
        raise FormatError(f"group order {order} exceeds the limit {MAX_GROUP_ORDER}")
    if len(factors) == 2:
        return FiniteGroup.direct_product(*factors)
    return FiniteGroup.cyclic(*factors)


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
                mask ^= 1 << int(mul[g, h])
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
    l = m.group.order
    i, j, g = np.array([(r, c, h) for r, row in enumerate(m.entries)
                        for c, e in enumerate(row) for h in e.support()],
                       dtype=np.int64).reshape(-1, 3).T
    cols = m.cols * l
    return BitMatrix(m.rows * l, cols, ((i[:, None] * l + m.group.mul[g]) * cols
                                        + (j[:, None] * l + np.arange(l))).ravel().tolist())


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
    lines = text.splitlines()
    header_idx = None
    for idx, raw in enumerate(lines):
        if raw.split("#", 1)[0].strip():
            header_idx = idx
            break
    if header_idx is None:
        raise FormatError("empty ring-matrix file")
    header = lines[header_idx].split("#", 1)[0].split()
    if len(header) != 3 or not header[2].startswith("group="):
        raise FormatError("expected header 'm n group=<spec>'", header_idx + 1)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("expected integer dimensions", header_idx + 1) from None
    if m < 0 or n < 0:
        raise FormatError("expected non-negative dimensions", header_idx + 1)
    group = parse_group_spec(header[2][len("group="):], root)
    rows = []
    pos = header_idx
    for _ in range(m):
        pos += 1
        while pos < len(lines) and not lines[pos].split("#", 1)[0].strip():
            pos += 1
        if pos >= len(lines):
            raise FormatError(f"expected {m} rows of entries", len(lines))
        fields = lines[pos].split("#", 1)[0].split(",")
        if len(fields) != n:
            raise FormatError(f"expected {n} comma-separated entries", pos + 1)
        rows.append([parse_element(f, group, pos + 1) for f in fields])
    return GroupAlgebraMatrix(group, rows, cols=n)
