"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are packed little-endian into 64-bit words so that row operations
(the inner loop of Gaussian elimination) are word-parallel XORs.  All
arithmetic is exact mod 2.  Matrices are immutable by convention: every
operation returns a fresh value and never mutates its inputs, so values
can be shared freely across threads.

`transpose` stays on the packed words: each 8x8 bit block sits in one
word, is transposed by three shift-and-mask steps and moved as bytes.
`rref` returns the reduced form and its pivots only; the row operations
and a kernel basis are derived from that result when first read, so a
rank costs one elimination and nothing more.

Intended scale is "desk size" (a few thousand columns); there is no
sparse storage and no attempt at asymptotically clever rank algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError

_WORD_BITS = 64


def _word_count(cols: int) -> int:
    return (cols + _WORD_BITS - 1) // _WORD_BITS


class BitMatrix:
    """Dense matrix over GF(2); `words[i, j // 64] >> (j % 64) & 1` is entry (i, j)."""

    __slots__ = ("rows", "cols", "_words")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative shape ({rows}, {cols})")
        if words.shape != (rows, _word_count(cols)):
            raise DimensionError(
                f"word buffer {words.shape} does not match shape ({rows}, {cols})"
            )
        self.rows = rows
        self.cols = cols
        self._words = words

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, np.zeros((rows, _word_count(cols)), dtype=np.uint64))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    @classmethod
    def from_dense(cls, array) -> "BitMatrix":
        """Pack a 2-D array of 0/1 values."""
        dense = np.atleast_2d(np.asarray(array))
        if dense.ndim != 2:
            raise DimensionError(f"expected 2-D input, got shape {dense.shape}")
        dense = (dense.astype(np.uint8) & 1).astype(np.uint8)
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
        """Ones at the positions (i[t], j[t]); a position may repeat."""
        j = np.asarray(j, dtype=np.int64)
        words = np.zeros((rows, _word_count(cols)), dtype=np.uint64)
        np.bitwise_or.at(words, (np.asarray(i, dtype=np.int64), j >> 6),
                         np.uint64(1) << (j & 63).astype(np.uint64))
        return cls(rows, cols, words)

    @classmethod
    def from_row_ints(cls, ints, cols: int) -> "BitMatrix":
        """Rows given as little-endian integers (bit j of the int = column j)."""
        rows = len(ints)
        nw = _word_count(cols)
        words = np.zeros((rows, nw), dtype=np.uint64)
        for i, value in enumerate(ints):
            if value < 0 or value >> cols:
                raise DimensionError(f"row {i} does not fit in {cols} columns")
            raw = int(value).to_bytes(nw * 8, "little")
            words[i] = np.frombuffer(raw, dtype=np.uint64)
        return cls(rows, cols, words)

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

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.shape}")
        return int(self._words[i, j >> 6] >> np.uint64(j & 63) & np.uint64(1))

    def __getitem__(self, ij) -> int:
        return self.get(*ij)

    def entries(self, i, j) -> np.ndarray:
        """The entries at the positions (i[t], j[t]), as booleans."""
        j = np.asarray(j, dtype=np.int64)
        bits = self._words[np.asarray(i, dtype=np.int64), j >> 6] >> (j & 63).astype(np.uint64)
        return (bits & np.uint64(1)).astype(bool)

    def row_int(self, i: int) -> int:
        """Row i as a little-endian integer."""
        return int.from_bytes(self._words[i].tobytes(), "little")

    def rows_as_ints(self) -> list[int]:
        return [self.row_int(i) for i in range(self.rows)]

    def row_weight(self, i: int) -> int:
        return int(np.bitwise_count(self._words[i]).sum())

    def weight(self) -> int:
        """Total number of non-zero entries."""
        return int(np.bitwise_count(self._words).sum())

    def is_zero(self) -> bool:
        return not self._words.any()

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self._words.copy())

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


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form of `source`.

    `pivot_cols` is strictly increasing and has length `rank`.  The row
    operations and the kernel are derived from it only when read.
    """

    source: BitMatrix
    rref: BitMatrix
    pivot_cols: tuple[int, ...]
    rank: int

    @property
    def basis(self) -> BitMatrix:
        """The non-zero rows of `rref`: a basis of the input's row space."""
        return BitMatrix(self.rank, self.rref.cols, self.rref._words[: self.rank])

    @cached_property
    def row_ops(self) -> BitMatrix:
        """An invertible U with `U @ source == rref`.

        Eliminating [source | I] reduces the left block to `rref` and
        carries the same row operations into the right block.
        """
        m = self.source
        reduced = rref(hstack(m, BitMatrix.identity(m.rows))).rref
        return BitMatrix.from_dense(reduced.to_dense()[:, m.cols:])

    @property
    def kernel(self) -> BitMatrix:
        """Basis of the right kernel of `source`, one vector per free column.

        The vector of free column f has a one at f and, at pivot column
        pivot_cols[r], entry (r, f) of `rref`.
        """
        cols = self.source.cols
        free = np.ones(cols, dtype=bool)
        free[list(self.pivot_cols)] = False
        free = np.flatnonzero(free)
        dense = np.zeros((free.size, cols), dtype=np.uint8)
        dense[np.arange(free.size), free] = 1
        dense[:, list(self.pivot_cols)] = self.basis.to_dense()[:, free].T
        return BitMatrix.from_dense(dense)


def rref(m: BitMatrix) -> RrefResult:
    """Gaussian elimination to reduced row echelon form.

    Pivot ties go to the lowest-index candidate row so the output is
    deterministic and reproducible across runs.
    """
    r = m._words.copy()
    pivots: list[int] = []
    pr = 0
    for c in range(m.cols):
        if pr == m.rows:
            break
        w = c >> 6
        bit = np.uint64(c & 63)
        column = (r[pr:, w] >> bit) & np.uint64(1)
        hits = np.nonzero(column)[0]
        if hits.size == 0:
            continue
        p = pr + int(hits[0])
        if p != pr:
            r[[pr, p]] = r[[p, pr]]
        others = np.nonzero((r[:, w] >> bit) & np.uint64(1))[0]
        others = others[others != pr]
        if others.size:
            r[others] ^= r[pr]
        pivots.append(c)
        pr += 1
    return RrefResult(
        source=m,
        rref=BitMatrix(m.rows, m.cols, r),
        pivot_cols=tuple(pivots),
        rank=len(pivots),
    )


def rank(m: BitMatrix) -> int:
    return rref(m).rank


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel, one vector per row.

    The result has `cols - rank(m)` rows; each row v satisfies m v = 0.
    """
    return rref(m).kernel


def matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): XOR of b's rows selected by a's entries."""
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner shapes differ, {a.shape} x {b.shape}")
    out = np.zeros((a.rows, b._words.shape[1]), dtype=np.uint64)
    dense_a = a.to_dense()
    for i in range(a.rows):
        picked = np.nonzero(dense_a[i])[0]
        if picked.size:
            out[i] = np.bitwise_xor.reduce(b._words[picked], axis=0)
    return BitMatrix(a.rows, b.cols, out)


def add(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes differ, {a.shape} vs {b.shape}")
    return BitMatrix(a.rows, a.cols, a._words ^ b._words)


def _transpose_8x8(x: np.ndarray) -> np.ndarray:
    """Transpose the 8x8 bit block in each word: bit 8r + c moves to 8c + r."""
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
    x = x ^ t ^ (t << 7)
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
    x = x ^ t ^ (t << 14)
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
    return x ^ t ^ (t << 28)


def transpose(m: BitMatrix) -> BitMatrix:
    """Transpose on the packed words: 8x8 bit blocks, each one word.

    Rows are padded to a multiple of 64 so that each output row fills
    whole words; the padding bits stay zero.
    """
    if m.rows == 0 or m.cols == 0:
        return BitMatrix.zeros(m.cols, m.rows)
    tall = _word_count(m.rows) * _WORD_BITS
    width = m._words.shape[1] * 8                      # bytes per input row
    data = np.zeros((tall, width), dtype=np.uint8)
    data[: m.rows] = np.ascontiguousarray(m._words).view(np.uint8)
    # Block (I, K) holds input rows 8I..8I+7 of byte column K, byte r = row 8I + r.
    blocks = data.reshape(tall // 8, 8, width).transpose(0, 2, 1).copy().view(np.uint64)
    flipped = _transpose_8x8(blocks[..., 0]).view(np.uint8)
    # Now byte c of block (I, K) holds column 8K + c of rows 8I..8I+7.
    out = flipped.reshape(tall // 8, width, 8).transpose(1, 2, 0).reshape(width * 8, tall // 8)
    return BitMatrix(m.cols, m.rows, np.ascontiguousarray(out[: m.cols]).view(np.uint64))


def hstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.rows != b.rows:
        raise DimensionError(f"hstack: row counts differ, {a.shape} vs {b.shape}")
    return BitMatrix.from_dense(
        np.concatenate([a.to_dense(), b.to_dense()], axis=1)
    )


def vstack(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.cols != b.cols:
        raise DimensionError(f"vstack: column counts differ, {a.shape} vs {b.shape}")
    return BitMatrix(
        a.rows + b.rows, a.cols, np.concatenate([a._words, b._words], axis=0)
    )


def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Kronecker product: (a kron b)[i*rb + p, j*cb + q] = a[i,j] b[p,q]."""
    return BitMatrix.from_dense(np.kron(a.to_dense(), b.to_dense()))


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
    table = np.zeros((1 << t, words), dtype=np.uint64)
    for i in range(t):
        np.bitwise_xor(table[: 1 << i], rows[i], out=table[1 << i : 2 << i])
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
