"""GF(2) linear algebra on matrices kept as the positions of their ones.

A matrix is the flat positions i * cols + j of its ones, as Python ints.
All arithmetic is exact mod 2.  A matrix's entries never change once it
is built (every operation returns a fresh value), so the rank and graph
it remembers once read cannot go stale.  Stacking, transposes and
Kronecker products move positions; products and elimination read a
matrix's rows as Python ints (`_row_ints`), column j at bit cols - 1 - j,
so that a row's lowest column is its highest one, which `int.bit_length`
reads in one step, and write them back as positions (`_flat_of`).

A matrix whose columns hold at most two ones is a graph, read once into
one breadth-first spanning forest (`_forest`) that it remembers: `rank`
counts its tree edges, and the graph code distance reads it again.
Gaussian elimination has one implementation: an echelon basis keeps one
row per lead (`_echelon`), whose count is any other matrix's rank.
`_reduce` back-substitutes the echelon; `rref` writes its rows out as
the reduced form and its pivots, and `_kernel` reads a kernel basis off
the same rows, as Python ints, one row per free column.
`matmul` XORs the rows of b at a's ones, and `matmul_t` the columns of
b, read as the rows of its transpose.

`coset_min_weight` is the one exact-distance entry, for classical and
CSS codes, with the one budget `DEFAULT_BUDGET` (`check_budget`): a
shortest cycle (`_shortest_cycle`) for graph codes, else `min_weight`, a
Brouwer-Zimmermann search over systematic forms, each one `_reduce` of
rows held as Python ints, from the checks' kernel (`_kernel`) to the
last combination scored.  Only `to_dense` imports a module outside the
standard library, numpy, for its callers.

Intended scale is "desk size" (a few thousand columns); there is no
sparse elimination, and a matrix with heavier columns is ranked in cubic time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import chain, combinations, repeat
from math import comb
from operator import or_, xor
from typing import Iterator, NamedTuple

from .errors import BudgetError, DimensionError

# Steps an exact distance may take: codes whose kernel has dimension 24 or less.
DEFAULT_BUDGET = 1 << 24


class BitMatrix:
    """Dense matrix over GF(2); entry (i, j) is one when i * cols + j is in `_flat`."""

    __slots__ = ("rows", "cols", "_flat", "_rank", "_graph")

    def __init__(self, rows: int, cols: int, flat: list[int]):
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self._flat = flat  # i * cols + j, distinct, in any order
        self._rank = self._graph = None  # filled by rank and _edges

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, [])

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, list(range(0, n * n, n + 1)))

    @classmethod
    def from_entries(cls, rows: int, cols: int, i, j) -> "BitMatrix":
        """Ones at the positions (i[t], j[t]), each inside the shape; a position may repeat."""
        return cls(rows, cols, list({int(a) * cols + int(b) for a, b in zip(i, j)}))

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_dense(self) -> "numpy.ndarray":
        """The entries as a numpy uint8 array, for callers that work in numpy."""
        import numpy as np

        dense = np.zeros(self.rows * self.cols, dtype=np.uint8)
        dense[self._flat] = 1
        return dense.reshape(self.rows, self.cols)

    def ones(self) -> Iterator[tuple[int, int]]:
        """The (row, column) pairs of the ones as Python ints, each once, in no set order."""
        return map(divmod, self._flat, repeat(self.cols))

    def weight(self) -> int:
        """Total number of non-zero entries."""
        return len(self._flat)

    def is_zero(self) -> bool:
        return not self._flat

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.shape == other.shape and set(self._flat) == set(other._flat)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self._flat)))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 64:
            ones = set(self._flat)
            body = ",".join("".join("01"[i * self.cols + j in ones] for j in range(self.cols))
                            for i in range(self.rows))
            return f"BitMatrix({self.rows}x{self.cols}:[{body}])"
        return f"BitMatrix({self.rows}x{self.cols})"


class RrefResult(NamedTuple):
    """A matrix's reduced row echelon form `rref`, of the same shape.

    `pivot_cols` is strictly increasing; the rank is its length.
    """

    rref: BitMatrix
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def _row_ints(m: BitMatrix) -> list[int]:
    """m's rows as Python ints, column j at bit cols - 1 - j, so that a row's highest
    one, read in one step by `int.bit_length`, is its lowest column."""
    rows, top = [0] * m.rows, m.cols - 1
    for p in m._flat:
        rows[p // m.cols] |= 1 << (top - p % m.cols)
    return rows


def _flat_of(rows, cols: int) -> list[int]:
    """The flat positions of (index, `_row_ints` row) pairs: each non-zero row's binary
    digits, column 0 first, read between its ones."""
    flat, digits = [], f"0{cols}b"
    for i, v in rows:
        if v:
            at = i * cols - 1
            for zeros in format(v, digits).split("1")[:-1]:
                at += len(zeros) + 1
                flat.append(at)
    return flat


def _echelon(rows: list[int]) -> dict[int, int]:
    """An echelon basis of `_row_ints` rows: each lead, a row's bit length, mapped to
    the one row kept with it.  Each row XORs in the row kept at its lead until it is
    zero or has a new lead."""
    leads: dict[int, int] = {}
    for v in rows:
        while (b := v.bit_length()) in leads:
            v ^= leads[b]
        if v:
            leads[b] = v
    return leads


def _reduce(rows: list[int]) -> dict[int, int]:
    """The reduced echelon basis of `_row_ints` rows: `_echelon`, back-substituted from
    its lowest lead up, each row XORing in the reduced rows at the other leads it holds,
    so that a row holds one lead, its own."""
    leads = _echelon(rows)
    later = 0                                          # the lead bits already reduced
    for b in sorted(leads):
        v = leads[b]
        while x := v & later:                          # a reduced row holds one lead bit
            v ^= leads[x.bit_length()]
        leads[b] = v
        later |= 1 << (b - 1)
    return leads


def rref(m: BitMatrix) -> RrefResult:
    """Gaussian elimination to reduced row echelon form (`_reduce` of m's rows).

    The rows, in ascending pivot order, are the first rows of the result;
    the rows past the rank are zero.
    """
    leads = _reduce(_row_ints(m))
    order = sorted(leads, reverse=True)                # ascending pivot columns
    return RrefResult(BitMatrix(m.rows, m.cols, _flat_of(enumerate(map(leads.get, order)), m.cols)),
                      tuple(m.cols - b for b in order))


def _kernel(m: BitMatrix) -> list[int]:
    """A basis of m's right kernel as `_row_ints` rows, one per free column, in ascending
    column order: the free column's own bit, and the lead bit of each reduced row
    (`_reduce`) that holds that column.  The pivot count must agree with a rank already
    found."""
    leads = _reduce(_row_ints(m))
    if m._rank not in (None, len(leads)):
        raise AssertionError("the pivot count differs from the rank found before elimination")
    kernel = {f: 1 << (f - 1) for f in range(m.cols, 0, -1) if f not in leads}
    for b, v in leads.items():
        x = v ^ (1 << (b - 1))                         # the row's free columns
        while x:
            kernel[f := x.bit_length()] |= 1 << (b - 1)
            x ^= 1 << (f - 1)
    return list(kernel.values())


def rank(m: BitMatrix) -> int:
    """The rank of m, found once: 0 when m has no ones, however wide; the tree edges of
    its spanning forest (`_edges`), a basis of the columns' span, when no column holds
    three ones; else the number of leads `_echelon` keeps of its rows."""
    if m._rank is None:
        if not m._flat:
            m._rank = 0
        elif (graph := _edges(m)) is None:
            m._rank = len(_echelon(_row_ints(m)))
        else:
            m._rank = len(graph[2]) - graph[2].count(-1)  # each vertex but a root has a parent
    return m._rank


def _edges(m: BitMatrix) -> tuple | None:
    """`_forest(m)`, built once per m."""
    if m._graph is None:
        m._graph = _forest(m) or False
    return m._graph or None


def _forest(m: BitMatrix) -> tuple | None:
    """m as a graph on its rows and a ground vertex, `rows`, with a breadth-first
    spanning forest: (ends, adj, up, order); None at the first column found with three
    ones, at once when m averages more than two ones a column.

    Column j joins its rows ends[2j] and ends[2j + 1], ground standing in for each
    one it lacks (a zero column is a loop at ground).  Half-edge h is the end ends[h]
    of column h >> 1, and h ^ 1 its other end.  adj[v] lists, by column, the far
    half-edges of v's columns: one list per vertex, as the shortest-cycle search
    reads it once per search.  up[v] is v's half-edge to its parent, -1 at a root;
    `order` lists the vertices parents first.
    """
    rows, cols = m.rows, m.cols
    if len(m._flat) > 2 * cols:
        return None
    first, second = [rows] * cols, [rows] * cols
    for i, j in m.ones():
        if first[j] == rows:
            first[j] = i
        elif second[j] == rows:
            second[j] = i
        else:
            return None
    ends = [0] * (2 * cols)
    ends[::2], ends[1::2] = first, second
    adj = [[] for _ in range(rows + 1)]
    for h in range(2 * cols):
        adj[ends[h ^ 1]].append(h)
    up, order = [None] * (rows + 1), []
    for root in range(rows + 1):
        if up[root] is None:
            up[root], queue = -1, [root]
            for x in queue:
                for h in adj[x]:
                    y = ends[h]
                    if up[y] is None:
                        up[y] = h
                        queue.append(y)
            order += queue
    return ends, adj, up, order


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel, one vector per row (`_kernel`, written out once).

    The result has `cols - rank(m)` rows; each row v satisfies m v = 0.
    Row t has a one at the t-th free column of m's reduced form and at
    no other free column.
    """
    kernel = _kernel(m)
    return BitMatrix(len(kernel), m.cols, _flat_of(enumerate(kernel), m.cols))


def matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): row i is the XOR of b's rows at a's ones in row i."""
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner shapes differ, {a.shape} x {b.shape}")
    return _xor_rows(a, _row_ints(b), b.cols)


def matmul_t(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """a @ b^T over GF(2): row i is the XOR, over a's ones (i, j), of column j of b held
    as an int, row k of b at bit b.rows - 1 - k."""
    if a.cols != b.cols:
        raise DimensionError(f"matmul_t: column counts differ, {a.shape} vs {b.shape}")
    if not (a._flat and b._flat):                      # zero; a wide empty side is not counted
        return BitMatrix.zeros(a.rows, b.rows)
    columns, top = [0] * b.cols, b.rows - 1
    for p in b._flat:
        columns[p % b.cols] |= 1 << (top - p // b.cols)
    return _xor_rows(a, columns, b.rows)


def _xor_rows(a: BitMatrix, rows: list[int], cols: int) -> BitMatrix:
    """The a.rows x cols matrix whose row i XORs rows[j] over a's ones (i, j), each of
    `rows` a row of `cols` bits held as `_row_ints` holds one."""
    out = [0] * a.rows
    if cols:
        for p in a._flat:
            out[p // a.cols] ^= rows[p % a.cols]
    return BitMatrix(a.rows, cols, _flat_of(enumerate(out), cols))


def transpose(m: BitMatrix) -> BitMatrix:
    """Entry (i, j) moves to (j, i): position i * cols + j to j * rows + i."""
    rows, cols = m.rows, m.cols
    return BitMatrix(cols, rows, [p % cols * rows + p // cols for p in m._flat])


def hstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """[a | b]: row i of a gains b.cols columns after it, row i of b a.cols before it."""
    if a.rows != b.rows:
        raise DimensionError(f"hstack: row counts differ, {a.shape} vs {b.shape}")
    return BitMatrix(a.rows, a.cols + b.cols, [p + p // a.cols * b.cols for p in a._flat]
                     + [p + (p // b.cols + 1) * a.cols for p in b._flat])


def vstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.cols != b.cols:
        raise DimensionError(f"vstack: column counts differ, {a.shape} vs {b.shape}")
    shift = a.rows * a.cols
    return BitMatrix(a.rows + b.rows, a.cols, a._flat + [p + shift for p in b._flat])


def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Kronecker product: (a kron b)[i*rb + p, j*cb + q] = a[i,j] b[p,q]."""
    cols = a.cols * b.cols
    inner = [p * cols + q for p, q in b.ones()]
    return BitMatrix(a.rows * b.rows, cols, [i * b.rows * cols + j * b.cols + x
                                             for i, j in a.ones() for x in inner])


def min_weight(stab: list[int], logical: list[int], n: int) -> int | None:
    """Exact minimum weight over span(stab + logical) with a non-zero logical part, each
    row a `_row_ints` row of n columns.

    A Brouwer-Zimmermann search (Grassl, in *Discovering Mathematics with
    Magma*, Springer 2006).  Logical row t gains a tag bit of its own, 1 << t,
    below its code bits: only combinations with non-zero tag bits count.
    `free` holds the code columns no form pivots on yet.  Form j is `_reduce`
    of the tagged rows, each with a copy of its `free` bits above it, so that
    a row's lead is a free column while it holds one: its r_j pivots there,
    read off the leads above the copy's base, are disjoint from the other
    forms'.  Forms are built until the code columns run out or they have read
    2^dim entries.  Level w scores each combination of w of a form's dim rows,
    as a sum of a rows of its first half and w - a of its second, skipping
    pairs whose tags cancel.  An unscored vector takes w + 1 rows or more of
    each form done, so holds at least w + 1 - (dim - r_j) ones on its pivots:
    the search stops once the best weight is at most the sum of these.  A
    level that would take the combinations scored past 2^dim is taken from
    the first form alone.  None when `logical` has no rows.
    """
    if not logical:
        return None
    k = len(logical)
    width = n + k                                      # a tagged row's bits
    tagged = [v << k | 1 << t for t, v in enumerate(logical)] + [v << k for v in stab]
    free = reduce(or_, chain(logical, stab)) << k      # the code columns holding a one
    halves, ranks = [], []
    while not halves or free and len(halves) * dim * n < 1 << dim:
        leads = _reduce([(v & free) << width | v for v in tagged])
        dim, pivots = len(leads), sum(1 << (b - 1 - width) for b in leads if b > width)
        rows = [leads[b] & ((1 << width) - 1) for b in sorted(leads, reverse=True)]
        halves.append(((rows[:dim // 2], []), (rows[dim // 2:], [])))  # with `_sums` by size
        ranks.append(pivots.bit_count())
        free ^= pivots
    best, scored = n, 0
    for w in range(dim + 1):
        if scored + len(halves) * comb(dim, w) > 1 << dim:
            halves = halves[:1]
        scored += len(halves) * comb(dim, w)
        for j, ((low_rows, low), (high_rows, high)) in enumerate(halves):
            low.append(_sums(low_rows, w, k))
            high.append(_sums(high_rows, w, k))
            for a in range(w + 1):                     # the shorter list of sums is walked
                outer, (inner_tags, inner) = sorted((low[a], high[w - a]), key=lambda s: len(s[0]))
                for t, c in zip(*outer):
                    lo, hi = bisect_left(inner_tags, t), bisect_right(inner_tags, t)
                    scores = map(int.bit_count, map(xor, chain(inner[:lo], inner[hi:]), repeat(c)))
                    best = min(best, min(scores, default=n))
            # the forms up to j have taken level w, the others level w - 1
            lower = sum(max(0, w + (i <= j) - dim + r) for i, r in enumerate(ranks[:len(halves)]))
            if best <= lower:
                return best
    return best


def _sums(rows: list[int], size: int, k: int) -> tuple[list[int], list[int]]:
    """The XOR of each combination of `size` of `rows`, sorted by its tag, the low k
    bits: their tags, and their code bits, the bits above the tag."""
    tags = (1 << k) - 1
    sums = sorted(map(reduce, repeat(xor), combinations(rows, size), repeat(0)), key=tags.__and__)
    return [v & tags for v in sums], [v >> k for v in sums]


def check_budget(cols: int, rank: int, budget: int) -> None:
    """Refuse to enumerate a kernel of dimension cols - rank in 2^dim steps over `budget`."""
    if cols - rank >= budget.bit_length():
        raise BudgetError("distance enumeration", cols - rank, budget)


def coset_min_weight(checks: BitMatrix, stab: BitMatrix | None = None,
                     budget: int = DEFAULT_BUDGET) -> int | None:
    """Exact minimum weight over kernel(checks) outside rowspace(stab).

    The one exact-distance entry: a classical code passes no stabiliser,
    a CSS code calls it once per direction.  Refused from `rank(checks)`,
    before any elimination, when 2^(kernel dimension) exceeds `budget`;
    None when no vector is outside.  Graph checks with a graph stabiliser, or
    none, go to `_shortest_cycle`, any others to `min_weight`: only the checks
    are reduced, once, for their kernel's int rows (`_kernel`), and the
    stabiliser rows are brought to echelon form alone.
    """
    check_budget(checks.cols, rank(checks), budget)
    if _edges(checks) is not None and (labels := _cycle_labels(stab, checks)) is not None:
        return _shortest_cycle(checks, labels)
    kernel = _kernel(checks)
    # The stabiliser's echelon rows, then the kernel rows that add a lead: logical
    # completions that, with them, span the kernel, as commuting checks put the
    # stabilisers inside it.
    base = {} if stab is None else _echelon(_row_ints(stab))
    logical = [v for b, v in _echelon([*base.values(), *kernel]).items() if b not in base]
    return min_weight(list(base.values()), logical, checks.cols)


def _cycle_labels(stab: BitMatrix | None, checks: BitMatrix) -> list[int] | None:
    """Each column's bits over the fundamental cycles of the graph `stab`: x is in the
    span of its rows exactly when the labels of x's columns XOR to zero.  With no
    stabiliser, only the columns off the checks' own spanning forest have a bit, one
    each, as every cycle of the checks holds one; None when `stab` is no graph.

    Cycle t is closed by the t-th column off the spanning forest (a zero column
    alone); a forest column lies on the cycles with one end below it.
    """
    if (graph := _edges(checks if stab is None else stab)) is None:
        return None
    ends, _, up, order = graph
    tree = {h >> 1 for h in up if h >= 0}
    labels, below = [0] * checks.cols, [0] * len(up)
    for t, j in enumerate(j for j in range(checks.cols) if j not in tree):
        labels[j] = 1 << t
        below[ends[2 * j]] ^= 1 << t
        below[ends[2 * j + 1]] ^= 1 << t
    if stab is None:
        return labels
    for y in reversed(order):                          # children before their parents
        if (h := up[y]) >= 0:
            labels[h >> 1] = below[y]
            below[ends[h ^ 1]] ^= below[y]
    return labels


def _shortest_cycle(checks: BitMatrix, labels: list[int]) -> int | None:
    """The least weight of a cycle of the graph `checks` (a kernel vector, a zero column
    a cycle alone) whose columns' labels XOR to non-zero; None when there is none.

    Every cycle meets `cover`, an end of each column off the spanning forest (at most
    dim vertices).  From each v of it, on the graph less those before, a breadth-
    first search scores each column ab off its tree as depth(a) + depth(b) + 1 when
    cls(a) ^ cls(b) ^ label(ab) != 0, cls XORing the labels on the tree path from v.
    The least score is exact: a lightest such cycle C through v sums the tree cycles
    of its columns off the tree, each no longer than C, and one of them counts
    (Thomassen, J. Combin. Theory B 48, 1990).
    """
    ends, adj, up, _ = _edges(checks)
    n = checks.cols
    tree = {h >> 1 for h in up if h >= 0}
    cover = dict.fromkeys(ends[2 * j] for j in range(n) if j not in tree)
    half = [0] * (2 * n)                               # each half-edge's column label
    half[::2], half[1::2] = labels, labels
    best, done = n + 1, set()
    for v in cover:
        depth, cls, via, queue = {v: 0}, {v: 0}, {v: -1}, [v]
        for u in queue:
            if 2 * depth[u] >= best:                   # no column from here on scores less
                break
            d, c, back = depth[u] + 1, cls[u], via[u] ^ 1  # back: u's way in, as adj[u] lists it
            for h in adj[u]:
                w = ends[h]
                if w in done or h == back:
                    continue
                if w not in depth:
                    depth[w], cls[w], via[w] = d, c ^ half[h], h
                    queue.append(w)
                elif c ^ half[h] != cls[w]:
                    best = min(best, d + depth[w])
        done.add(v)
    return best if best <= n else None
