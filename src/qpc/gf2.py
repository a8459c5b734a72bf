"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are packed little-endian into 64-bit words so that row operations
are word-parallel XORs.  All arithmetic is exact mod 2.  A matrix's
entries never change once it is built (every operation returns a fresh
value), so the rank and reduced form it remembers once read cannot go
stale.  A matrix read from a file keeps the flat positions i * cols + j
of its ones, which `rank`, `transpose`, `matmul_t` (up to a pair bound)
and `coset_min_weight` (of a graph code) read in Python; its words are
packed, and numpy imported, only when a word kernel first reads them.

Gaussian elimination has one implementation, on Python-int rows read
from either kind of matrix (`_row_ints`): columns are reversed so that a
row's lowest column is its highest one, which `int.bit_length` reads in
one step, and an echelon basis keeps one row per lead (`_echelon`).
`rank` counts a graph's components (LaMacchia & Odlyzko, 1990) and any
other matrix's leads.  `rref` back-substitutes the echelon and packs its
rows into words at the end; it returns the reduced form and its pivots
only, a kernel basis is derived from that result when read, and `reduced`
runs it at most once per matrix.

Every word kernel stays on the packed words.  `transpose` moves 8x8 bit
blocks, one word each.  `BitMatrix.nonzero` unpacks only the non-zero
words, `BitMatrix.from_entries` sorts the positions and ORs each word's
bits with one reduceat, `BitMatrix.entries` reads the entries at given
positions, and `BitMatrix.columns` gathers columns as rows of the
transpose; `matmul` XOR-reduces the rows of b gathered at a's
entries, in chunks of bounded size (`_xor_rows`), `matmul_t` builds
a b^T from the pairs of entries that share a column when they are few
and otherwise gathers as `matmul` does, and `kron` maps entries.
`coset_min_weight` is the one exact-distance entry, for classical and
CSS codes, with the one budget `DEFAULT_BUDGET` (`check_budget`): a
shortest cycle (`_shortest_cycle`) for graph codes, else `min_weight`.

Intended scale is "desk size" (a few thousand columns); there is no
sparse storage, and a matrix with heavier columns is ranked in cubic time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import repeat
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import BudgetError, DimensionError


class _Numpy:  # numpy, imported on the first read of one of its names: word kernels read them
    def __getattr__(self, name: str):
        import numpy
        return getattr(numpy, name)


if TYPE_CHECKING:
    import numpy as np
else:
    np = _Numpy()

_WORD_BITS = 64

# Steps an exact distance may take: codes whose kernel has dimension 24 or less.
DEFAULT_BUDGET = 1 << 24


def _word_count(cols: int) -> int:
    return (cols + _WORD_BITS - 1) // _WORD_BITS


def _scatter(rows: int, cols: int, i, j, op: np.ufunc) -> np.ndarray:
    """Packed words with the bits at (i[t], j[t]) combined by `op`.

    The positions are sorted as flat bit indices and each word's run is
    reduced at once: OR sets a repeated position, XOR keeps its parity.
    """
    nw = _word_count(cols)
    at = np.sort(np.asarray(i, dtype=np.int64) * (nw * _WORD_BITS) + np.asarray(j, dtype=np.int64))
    word = at >> 6
    first = np.flatnonzero(np.diff(word, prepend=-1) != 0)
    words = np.zeros(rows * nw, dtype=np.uint64)
    words[word[first]] = op.reduceat(np.left_shift(1, at & 63).view(np.uint64), first)
    return words.reshape(rows, nw)


class BitMatrix:
    """Dense matrix over GF(2); `words[i, j // 64] >> (j % 64) & 1` is entry (i, j)."""

    __slots__ = ("rows", "cols", "_packed", "_flat", "_rank", "_rref", "_by_col")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None,
                 flat: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative shape ({rows}, {cols})")
        if words is None and flat is None:
            raise DimensionError(f"shape ({rows}, {cols}) given neither words nor flat positions")
        if words is not None and words.shape != (rows, _word_count(cols)):
            raise DimensionError(
                f"word buffer {words.shape} does not match shape ({rows}, {cols})"
            )
        self.rows = rows
        self.cols = cols
        self._packed = words
        self._flat = flat if words is None else None  # i * cols + j, distinct, in any order
        self._rank = self._rref = self._by_col = None  # filled by rank, reduced and _columns

    @property
    def _words(self) -> np.ndarray:
        if self._packed is None:                        # packed from `_flat` on first read
            i, j = np.divmod(np.array(self._flat, dtype=np.int64), max(self.cols, 1))
            self._packed = _scatter(self.rows, self.cols, i, j, np.bitwise_or)
        return self._packed

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, flat=[])

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, flat=list(range(0, n * n, n + 1)))

    @classmethod
    def from_dense(cls, array) -> "BitMatrix":
        """Pack a 2-D array of 0/1 values."""
        dense = np.atleast_2d(np.asarray(array))
        if dense.ndim != 2:
            raise DimensionError(f"expected 2-D input, got shape {dense.shape}")
        dense = dense.astype(np.uint8, copy=False) & 1
        rows, cols = dense.shape
        nw = _word_count(cols)
        if rows == 0 or cols == 0:
            return cls.zeros(rows, cols)
        packed = np.packbits(dense, axis=1, bitorder="little")
        pad = nw * 8 - packed.shape[1]
        if pad:
            packed = np.pad(packed, ((0, 0), (0, pad)))
        words = np.ascontiguousarray(packed).view(np.uint64)
        return cls(rows, cols, words)

    @classmethod
    def from_entries(cls, rows: int, cols: int, i, j) -> "BitMatrix":
        """Ones at the positions (i[t], j[t]), each inside the shape; a position may repeat."""
        return cls(rows, cols, _scatter(rows, cols, i, j, np.bitwise_or))

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_dense(self) -> np.ndarray:
        if self.rows == 0 or self.cols == 0:
            return np.zeros((self.rows, self.cols), dtype=np.uint8)
        raw = np.ascontiguousarray(self._words).view(np.uint8)
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        return np.ascontiguousarray(bits[:, : self.cols])

    def entries(self, i, j) -> np.ndarray:
        """The entries at the positions (i[t], j[t]), as booleans; IndexError outside the shape."""
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        if ((i < 0) | (i >= self.rows) | (j < 0) | (j >= self.cols)).any():
            raise IndexError(f"a position is out of range for {self.shape}")
        bits = self._words[i, j >> 6] >> (j & 63).astype(np.uint64)
        return (bits & np.uint64(1)).astype(bool)

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the ones, row-major with columns ascending.

        The same arrays as `np.nonzero(self.to_dense())`: the non-zero
        words, found by flat index, are unpacked in one 1-D pass.
        """
        words = self._words.ravel()
        at = np.flatnonzero(words != 0)  # numpy finds booleans several times faster
        bits = np.flatnonzero(np.unpackbits(words[at].view(np.uint8), bitorder="little").view(bool))
        row, word = np.divmod(at[bits >> 6], max(self._words.shape[1], 1))
        return row, word * _WORD_BITS + (bits & 63)

    def ones(self) -> Iterator[tuple[int, int]]:
        """The (row, column) pairs of the ones as Python ints, each once, in no set order."""
        if self._flat is None:
            return zip(*(a.tolist() for a in self.nonzero()))
        return map(divmod, self._flat, repeat(self.cols))

    def columns(self, idx) -> "BitMatrix":
        """The columns at `idx`, in that order (an index may repeat): rows of the transpose."""
        rows = transpose(self)._words[np.asarray(idx, dtype=np.int64)]
        return transpose(BitMatrix(rows.shape[0], self.rows, rows))

    def weight(self) -> int:
        """Total number of non-zero entries."""
        return int(np.bitwise_count(self._words).sum())

    def is_zero(self) -> bool:
        return not (self._flat if self._packed is None else self._packed.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._words, other._words)

    def __hash__(self):
        return hash((self.rows, self.cols, self._words.tobytes()))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 64:
            body = ",".join(
                "".join(str(v) for v in row) for row in self.to_dense()
            )
            return f"BitMatrix({self.rows}x{self.cols}:[{body}])"
        return f"BitMatrix({self.rows}x{self.cols})"


class RrefResult(NamedTuple):
    """A matrix's reduced row echelon form `rref`, of the same shape.

    `pivot_cols` is strictly increasing; the rank is its length.  The
    kernel is derived from it only when read.
    """

    rref: BitMatrix
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def basis(self) -> BitMatrix:
        """The non-zero rows of `rref`: a basis of the input's row space."""
        return BitMatrix(self.rank, self.rref.cols, self.rref._words[: self.rank])

    @property
    def kernel(self) -> BitMatrix:
        """Basis of the right kernel of the reduced matrix, one vector per free column.

        The vector of free column f has a one at f and, at pivot column
        pivot_cols[r], entry (r, f) of `rref`: the transpose has a unit row
        at each free column and row r of `basis` at the free columns at
        pivot_cols[r].
        """
        cols = self.rref.cols
        pivots = np.array(self.pivot_cols, dtype=np.int64)
        free = np.delete(np.arange(cols), pivots)     # np.setdiff1d would import numpy.ma
        rows = BitMatrix.from_entries(cols, free.size, free, np.arange(free.size))._words
        rows[pivots] = self.basis.columns(free)._words
        return transpose(BitMatrix(cols, free.size, rows))


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """All 2^t XOR combinations of t rows, by doubling: entry i XORs the rows at i's ones."""
    table = np.zeros((1 << rows.shape[0], rows.shape[1]), dtype=np.uint64)
    for i in range(rows.shape[0]):
        np.bitwise_xor(table[: 1 << i], rows[i], out=table[1 << i : 2 << i])
    return table


_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte, bits reversed


def _row_ints(m: BitMatrix) -> list[int]:
    """m's rows as Python ints (none when m has no columns), column j at bit cols - 1 - j,
    so that a row's highest one, read in one step by `int.bit_length`, is its lowest column.

    Both sources are one run of bits, most significant first, a row every `step`
    bits: flat positions are set in it one by one, packed words are read by
    `tobytes()` with each byte's bits reversed.
    """
    cols = m.cols
    if not cols:
        return []
    if m._packed is None:
        step, bits = cols, bytearray((m.rows * cols + 7) >> 3)
        for p in m._flat:
            bits[p >> 3] |= 0x80 >> (p & 7)
    else:
        step = m._packed.shape[1] * _WORD_BITS
        bits = np.ascontiguousarray(m._packed).tobytes().translate(_REVERSED)
    mask = ~(-1 << cols)
    return [int.from_bytes(bits[at >> 3:(at + cols + 7) >> 3], "big") >> (-(at + cols) & 7) & mask
            for at in range(0, m.rows * step, step)]


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


def rref(m: BitMatrix) -> RrefResult:
    """Gaussian elimination to reduced row echelon form, on Python-int rows.

    The echelon basis (`_echelon`) is back-substituted from its last pivot
    column up: each pivot row XORs in the reduced rows at the later pivots
    it holds.  The rows, in ascending pivot order, are packed into words
    only at the end, the rows past the rank zero.
    """
    leads = _echelon(_row_ints(m))
    later = 0                                          # the pivot bits already reduced
    for b in sorted(leads):
        v = leads[b]
        while x := v & later:                          # a reduced row holds one pivot bit
            v ^= leads[x.bit_length()]
        leads[b] = v
        later |= 1 << (b - 1)
    order = sorted(leads, reverse=True)                # ascending pivot columns
    nw = _word_count(m.cols)
    pad = nw * _WORD_BITS - m.cols
    raw = b"".join((leads[b] << pad).to_bytes(nw * 8, "big") for b in order).translate(_REVERSED)
    words = np.frombuffer(bytearray(raw) + bytearray((m.rows - len(order)) * nw * 8),
                          dtype=np.uint64)
    return RrefResult(BitMatrix(m.rows, m.cols, words.reshape(m.rows, nw)),
                      tuple(m.cols - b for b in order))


def reduced(m: BitMatrix) -> RrefResult:
    """rref(m), eliminated at most once per matrix; it must agree with a rank already found."""
    if m._rref is None:
        result = rref(m)
        if m._rank not in (None, result.rank):
            raise AssertionError("the pivot count differs from the rank found before elimination")
        m._rank, m._rref = result.rank, result
    return m._rref


def rank(m: BitMatrix) -> int:
    """The rank of m, found once: by its components when no column holds three ones,
    else as the number of leads `_echelon` keeps of its rows.

    Such an m is a graph on its rows and a ground node (`_edges`): a spanning forest
    is a basis of the columns' span, so the rank is the joins one union-find pass
    makes.
    """
    if m._rank is not None:
        return m._rank
    edges = _edges(m)
    if edges is None:
        m._rank = len(_echelon(_row_ints(m)))
        return m._rank
    parent = list(range(max(map(max, edges.values()), default=-1) + 1))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]           # path halving
        return x

    for a, b in edges.values():
        parent[root(a)] = root(b)
    m._rank = sum(p != x for x, p in enumerate(parent))  # each join makes one root a child
    return m._rank


def _columns(m: BitMatrix) -> dict[int, list[int]]:
    """Each column of m that holds a one, mapped to its rows; found once per m."""
    if m._by_col is None:
        by_col = m._by_col = defaultdict(list)
        for i, j in m.ones():
            by_col[j].append(i)
    return m._by_col


def _edges(m: BitMatrix) -> dict[int, tuple[int, int]] | None:
    """m as a graph (`_columns`): each column with a one joins its two rows, or its row
    and ground, `m.rows`; None when a column holds three ones, at once when m averages
    more than two ones a column."""
    if (m.weight() if m._flat is None else len(m._flat)) > 2 * m.cols or any(
            len(e) > 2 for e in _columns(m).values()):
        return None
    return {j: (e[0], e[-1] if len(e) == 2 else m.rows) for j, e in _columns(m).items()}


def _forest(edges: dict[int, tuple[int, int]]) -> tuple[dict, dict]:
    """A breadth-first spanning forest of the graph `edges`, parents before children:
    each vertex's parent and their column (None at a root); and each vertex's
    (neighbour, column) pairs."""
    adj, up = defaultdict(list), {}
    for j, (a, b) in edges.items():
        adj[a].append((b, j))
        adj[b].append((a, j))
    for root in adj:
        if root not in up:
            up[root], queue = None, [root]
            for x in queue:
                for y, j in adj[x]:
                    if y not in up:
                        up[y] = (x, j)
                        queue.append(y)
    return up, adj


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel, one vector per row.

    The result has `cols - rank(m)` rows; each row v satisfies m v = 0.
    """
    return rref(m).kernel


# Rows gathered at once by `_xor_rows`: at most 1 MiB, or one row.
_GATHER_BYTES = 1 << 20


def matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): row i is the XOR of b's rows at a's ones in row i."""
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner shapes differ, {a.shape} x {b.shape}")
    return BitMatrix(a.rows, b.cols, _xor_rows(a.rows, *a.nonzero(), b._words))


def _xor_rows(rows: int, i: np.ndarray, j: np.ndarray, words: np.ndarray) -> np.ndarray:
    """`rows` rows of words; row r is the XOR of `words[j[t]]` over the t with i[t] = r.

    With `i` ascending, the rows of `words` are gathered at a chunk of the
    entries (i, j) at a time, as many as keep the gather within
    _GATHER_BYTES and at least one, and each row's run in the chunk is
    reduced with one `reduceat`.
    """
    out = np.zeros((rows, words.shape[1]), dtype=np.uint64)
    step = max(_GATHER_BYTES // max(words.itemsize * words.shape[1], 1), 1)
    for at in range(0, i.size, step):
        ci, cj = i[at:at + step], j[at:at + step]
        first = np.flatnonzero(np.diff(ci, prepend=-1) != 0)
        out[ci[first]] ^= np.bitwise_xor.reduceat(words[cj], first, axis=0)
    return out


# matmul_t weighs a pair of entries as 8 words gathered by `matmul`.  The two
# paths measured even near 2.5 words per pair, so pairs are taken where they win
# clearly (toric codes: 12 to 32 words per pair, 2.5x to 10x faster) and the
# packed path is kept where the two are close (a Z127 lifted product, 2.5).
# Past _MAX_PAIRS, the chunked gather bounds memory.  Python meets pairs at about
# 0.5 us each against numpy's 0.3 us and import: even near 2^19 pairs, so 2^18.
_PAIR_WORDS = 8
_MAX_PAIRS = 1 << 20
_PYTHON_PAIRS = 1 << 18


def matmul_t(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """a @ b^T over GF(2): entry (i, k) is the parity of the columns rows a_i and b_k share.

    When few pairs of entries share a column, the product is built from
    those pairs: each entry (i, j) of a meets each entry (k, j) of b, and an
    (i, k) met an odd number of times is a one; in Python, column by column
    (`_columns`), when neither matrix is packed and the pairs, sum_j |a_j|
    |b_j|, are at most _PYTHON_PAIRS, else with numpy.  Otherwise it is
    `matmul(a, transpose(b))`, run on the entries of a already unpacked
    here: words(b.rows) words gathered per entry of a by `_xor_rows`.
    """
    if a.cols != b.cols:
        raise DimensionError(f"matmul_t: column counts differ, {a.shape} vs {b.shape}")
    if a._packed is None and b._packed is None:
        ca, cb = _columns(a), _columns(b)
        if sum(len(e) * len(cb.get(j, ())) for j, e in ca.items()) <= _PYTHON_PAIRS:
            met = Counter([i * b.rows + k for j, e in ca.items() for k in cb.get(j, ()) for i in e])
            return BitMatrix(a.rows, b.rows, flat=[p for p, c in met.items() if c & 1])
    ai, aj = a.nonzero()
    bk, bj = b.nonzero()
    if not (ai.size and bk.size):                      # zero; a wide empty side is not counted
        return BitMatrix.zeros(a.rows, b.rows)
    per_col = np.bincount(bj, minlength=b.cols)
    meets = per_col[aj]                                # the pairs of each entry of a
    pairs = int(meets.sum())
    if pairs > _MAX_PAIRS or pairs * _PAIR_WORDS > ai.size * _word_count(b.rows):
        return BitMatrix(a.rows, b.rows, _xor_rows(a.rows, ai, aj, transpose(b)._words))
    by_col = bk[np.argsort(bj)]                        # column j: by_col[first[j]:][:per_col[j]]
    first = np.cumsum(per_col) - per_col
    place = np.arange(pairs) + np.repeat(first[aj] - (np.cumsum(meets) - meets), meets)
    return BitMatrix(a.rows, b.rows,
                     _scatter(a.rows, b.rows, np.repeat(ai, meets), by_col[place], np.bitwise_xor))


def add(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")
    return BitMatrix(a.rows, a.cols, a._words ^ b._words)


def _transpose_8x8(x: np.ndarray) -> None:
    """Transpose the 8x8 bit block in each word in place: bit 8r + c moves to 8c + r."""
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0)):
        t = x >> shift
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t


def transpose(m: BitMatrix) -> BitMatrix:
    """Transpose on the packed words: 8x8 bit blocks, each one word.

    Rows are padded to a multiple of 64 so that each output row fills
    whole words; the padding bits stay zero.  The blocks are transposed
    as words first, so the closing byte shuffle stays within one block
    column at a time.  A matrix not packed has its flat positions moved.
    """
    if m._packed is None:
        return BitMatrix(m.cols, m.rows, flat=[j * m.rows + i for i, j in m.ones()])
    if m.rows == 0 or m.cols == 0:
        return BitMatrix.zeros(m.cols, m.rows)
    tall = _word_count(m.rows) * _WORD_BITS
    width = m._words.shape[1] * 8                      # bytes per input row
    data = np.zeros((tall, width), dtype=np.uint8)
    data[: m.rows] = np.ascontiguousarray(m._words).view(np.uint8)
    # Block (I, K) holds input rows 8I..8I+7 of byte column K, byte r = row 8I + r.
    blocks = data.reshape(tall // 8, 8, width).transpose(0, 2, 1).copy().view(np.uint64)[..., 0]
    _transpose_8x8(blocks)
    # Now byte c of block (I, K) holds column 8K + c of rows 8I..8I+7.
    columns = np.ascontiguousarray(blocks.T).view(np.uint8).reshape(width, tall // 8, 8)
    out = columns.transpose(0, 2, 1).reshape(width * 8, tall // 8)
    return BitMatrix(m.cols, m.rows, np.ascontiguousarray(out[: m.cols]).view(np.uint64))


def hstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """[a | b]: b's words shifted left by a.cols % 64 bits, spilling into the next word."""
    if a.rows != b.rows:
        raise DimensionError(f"hstack: row counts differ, {a.shape} vs {b.shape}")
    cols = a.cols + b.cols
    out = np.zeros((a.rows, _word_count(cols)), dtype=np.uint64)
    out[:, : a._words.shape[1]] = a._words
    k, shift = divmod(a.cols, _WORD_BITS)
    out[:, k : k + b._words.shape[1]] |= b._words << np.uint64(shift)
    # numpy shifts by 64 to zero; spilled words past the last are padding zeros
    high = b._words >> np.uint64(_WORD_BITS - shift)
    out[:, k + 1 :] |= high[:, : out.shape[1] - k - 1]
    return BitMatrix(a.rows, cols, out)


def vstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.cols != b.cols:
        raise DimensionError(f"vstack: column counts differ, {a.shape} vs {b.shape}")
    return BitMatrix(
        a.rows + b.rows, a.cols, np.concatenate([a._words, b._words], axis=0)
    )


def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Kronecker product: (a kron b)[i*rb + p, j*cb + q] = a[i,j] b[p,q]."""
    ai, aj = a.nonzero()
    bi, bj = b.nonzero()
    return BitMatrix.from_entries(
        a.rows * b.rows, a.cols * b.cols,
        (ai[:, None] * b.rows + bi).ravel(), (aj[:, None] * b.cols + bj).ravel(),
    )


# Low combinations tabulated per min_weight step: at most 2^16 rows and 1 MiB.
_TABLE_BITS = 16
_TABLE_BYTES = 1 << 20


def min_weight(stab: BitMatrix, logical: BitMatrix) -> int | None:
    """Exact minimum weight over span(stab + logical) with a non-zero logical part.

    The logical part is read off the combination index, never re-solved.
    All 2^t combinations of the first t rows (logical rows first) are
    tabulated by doubling; the remaining rows are walked in Gray-code
    order, one XOR per step, and each step scores the whole table at
    once.  While the walk holds no logical row, only table entries whose
    index holds one count.  None when `logical` has no rows.
    """
    if logical.rows == 0:
        return None
    rows = vstack(logical, stab)._words
    dim, words = rows.shape
    fit = (_TABLE_BYTES // (8 * max(words, 1))).bit_length() - 1
    t = max(1, min(dim, _TABLE_BITS, fit))
    table = _xor_table(rows[:t])
    low_logical = np.arange(1 << t) & ((1 << min(logical.rows, t)) - 1) != 0
    tables = (table[low_logical], table)   # by "the walk holds a logical row"
    best = logical.cols                    # no weight exceeds the width
    current = np.zeros(words, dtype=np.uint64)
    walk_logical = 0
    for step in range(1 << (dim - t)):
        if step:
            bit = (step & -step).bit_length() - 1
            current ^= rows[t + bit]
            if t + bit < logical.rows:
                walk_logical ^= 1 << bit
        scores = np.bitwise_count(tables[walk_logical != 0] ^ current).sum(axis=1)
        best = min(best, int(scores.min()))
    return best


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
    None when no vector is outside.  Graph checks and stabiliser (none is
    an empty graph) go to `_shortest_cycle`, any others to `min_weight`.
    """
    check_budget(checks.cols, rank(checks), budget)
    edges, cycles = _edges(checks), {} if stab is None else _edges(stab)
    if edges is not None and cycles is not None:
        return _shortest_cycle(edges, checks.cols, _cycle_labels(cycles, checks.cols))
    kernel = reduced(checks).kernel
    # with no stabiliser there is nothing to clear: the kernel basis is the logicals
    if stab is None or not rank(stab):
        return min_weight(BitMatrix.zeros(0, kernel.cols), kernel)
    # Clearing the stabiliser pivot columns leaves logical completions that,
    # with the stabiliser basis, span the kernel: commuting checks put the
    # stabilisers inside it.
    basis, pivots = reduced(stab).basis, reduced(stab).pivot_cols
    logical = rref(add(kernel, matmul(kernel.columns(pivots), basis)))
    return min_weight(basis, logical.basis)


def _cycle_labels(edges: dict[int, tuple[int, int]], n: int) -> list[int]:
    """Each column's bits over the fundamental cycles of the graph `edges`: x is in the
    span of its incidence rows exactly when the labels of x's columns XOR to zero.

    Cycle t is closed by the t-th column off a breadth-first forest (a zero column
    alone); a forest column lies on the cycles with one end below it.
    """
    up = _forest(edges)[0]
    tree = {e[1] for e in up.values() if e}
    labels, below = [0] * n, defaultdict(int)
    for t, j in enumerate(j for j in range(n) if j not in tree):
        labels[j] = 1 << t
        for x in edges.get(j, ()):
            below[x] ^= 1 << t
    for y in reversed(up):                             # children before their parents
        if up[y]:
            x, j = up[y]
            labels[j] = below[y]
            below[x] ^= below[y]
    return labels


def _shortest_cycle(edges: dict[int, tuple[int, int]], n: int, labels: list[int]) -> int | None:
    """The least weight of a cycle of the graph `edges` (kernel(checks), a zero column
    a cycle alone) whose columns' labels XOR to non-zero; None when there is none.

    Every cycle meets `cover`, an end of each column off a spanning forest (at most
    dim vertices).  From each v of it, on the graph less those before, a breadth-
    first search scores each column ab off its tree as depth(a) + depth(b) + 1 when
    cls(a) ^ cls(b) ^ label(ab) != 0, cls XORing the labels on the tree path from v.
    The least score is exact: a lightest such cycle C through v sums the tree cycles
    of its columns off the tree, each no longer than C, and one of them counts
    (Thomassen, J. Combin. Theory B 48, 1990).
    """
    if any(j not in edges and labels[j] for j in range(n)):
        return 1
    up, adj = _forest(edges)
    tree = {e[1] for e in up.values() if e}
    cover = dict.fromkeys(a for j, (a, _) in edges.items() if j not in tree)
    best, done = n + 1, set()
    for v in cover:
        depth, cls, via, queue = {v: 0}, {v: 0}, {v: None}, [v]
        for u in queue:
            if 2 * depth[u] >= best:                   # no column from here on scores less
                break
            for w, j in adj[u]:
                if w in done or j == via[u]:
                    continue
                c = cls[u] ^ labels[j]
                if w not in depth:
                    depth[w], cls[w], via[w] = depth[u] + 1, c, j
                    queue.append(w)
                elif c != cls[w]:
                    best = min(best, depth[u] + depth[w] + 1)
        done.add(v)
    return best if best <= n else None
