"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are packed little-endian into 64-bit words so that row operations
(the inner loop of Gaussian elimination) are word-parallel XORs.  All
arithmetic is exact mod 2.  Matrices are immutable by convention: every
operation returns a fresh value and never mutates its inputs, so values
can be shared freely across threads.

Intended scale is "desk size" (a few thousand columns); there is no
sparse storage and no attempt at asymptotically clever rank algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Reduced row echelon form plus the invertible row-operation matrix.

    `row_ops @ input == rref` over GF(2); `pivot_cols` is strictly
    increasing and has length `rank`.
    """

    rref: BitMatrix
    pivot_cols: tuple[int, ...]
    rank: int
    row_ops: BitMatrix

    @property
    def basis(self) -> BitMatrix:
        """The non-zero rows of `rref`: a basis of the input's row space."""
        return BitMatrix(self.rank, self.rref.cols, self.rref._words[: self.rank])


def rref(m: BitMatrix) -> RrefResult:
    """Gaussian elimination to reduced row echelon form.

    Pivot ties go to the lowest-index candidate row so the output is
    deterministic and reproducible across runs.
    """
    r = m._words.copy()
    u = BitMatrix.identity(m.rows)._words.copy()
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
            u[[pr, p]] = u[[p, pr]]
        others = np.nonzero((r[:, w] >> bit) & np.uint64(1))[0]
        others = others[others != pr]
        if others.size:
            r[others] ^= r[pr]
            u[others] ^= u[pr]
        pivots.append(c)
        pr += 1
    return RrefResult(
        rref=BitMatrix(m.rows, m.cols, r),
        pivot_cols=tuple(pivots),
        rank=len(pivots),
        row_ops=BitMatrix(m.rows, m.rows, u),
    )


def rank(m: BitMatrix) -> int:
    return rref(m).rank


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel, one vector per row.

    The result has `cols - rank(m)` rows; each row v satisfies m v = 0.
    Built from the RREF by assigning one free column per basis vector.
    """
    res = rref(m)
    pivot_set = set(res.pivot_cols)
    free = [c for c in range(m.cols) if c not in pivot_set]
    dense = np.zeros((len(free), m.cols), dtype=np.uint8)
    reduced = res.rref.to_dense()
    for t, f in enumerate(free):
        dense[t, f] = 1
        for row, col in enumerate(res.pivot_cols):
            dense[t, col] = reduced[row, f]
    return BitMatrix.from_dense(dense) if len(free) else BitMatrix.zeros(0, m.cols)


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


def transpose(m: BitMatrix) -> BitMatrix:
    return BitMatrix.from_dense(m.to_dense().T)


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
