"""Classical binary linear codes given by parity-check matrices.

A code is its m x n check matrix H; codewords are the right kernel of H.
Redundant checks are allowed everywhere (the 3-bit repetition example has
one), so k is always computed as n - rank(H), never as n - m.

Distances are exact: `gf2.min_weight` with an empty stabiliser scores all
non-zero combinations of a kernel basis, a packed table of low combinations
per Gray-code step; instances with k > 22 are refused rather than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, FormatError, PreconditionError
from .gf2 import BitMatrix, kernel_basis, min_weight, rank, rref, transpose

MAX_ENUM_DIMENSION = 22


@dataclass(frozen=True)
class CodeParams:
    """[n, k, d] plus the check count m; d is None when unknown or k = 0."""

    n: int
    k: int
    m: int
    d: int | None = None


@dataclass(frozen=True)
class SystematicBasis:
    """Codeword basis in systematic order.

    Permuting columns by `column_permutation` (new position p holds old
    column column_permutation[p]) makes the leading k x k block of
    `generator` the identity, so the first k permuted bits carry the
    logical information.
    """

    column_permutation: tuple[int, ...]
    generator: BitMatrix


class ClassicalCode:
    """A binary linear code defined by a parity-check matrix."""

    def __init__(self, h: BitMatrix, params: CodeParams | None = None):
        self.h = h
        self._k: int | None = None
        self._d: int | None = None
        self._d_known = False
        if params is not None:
            if params.n != h.cols or params.m != h.rows:
                raise PreconditionError(
                    f"cached params {params} disagree with matrix shape {h.shape}"
                )
            if params.k != self.dimension():
                raise PreconditionError(
                    f"cached k={params.k} disagrees with n - rank = {self.dimension()}"
                )
            if params.d is not None:
                self._d = params.d
                self._d_known = True

    @property
    def n(self) -> int:
        return self.h.cols

    @property
    def m(self) -> int:
        return self.h.rows

    def dimension(self) -> int:
        """Number of logical bits, n - rank(H)."""
        if self._k is None:
            self._k = self.n - rank(self.h)
        return self._k

    def min_distance(self) -> int | None:
        """Exact minimum weight of a non-zero codeword; None when k = 0.

        Enumerates all 2^k - 1 combinations of a kernel basis with
        `gf2.min_weight`; refuses when k exceeds MAX_ENUM_DIMENSION.
        """
        if self._d_known:
            return self._d
        k = self.dimension()
        if k == 0:
            self._d_known = True
            self._d = None
            return None
        if k > MAX_ENUM_DIMENSION:
            raise BudgetError(
                "minimum-distance enumeration", 2**k, 2**MAX_ENUM_DIMENSION
            )
        self._d = min_weight(BitMatrix.zeros(0, self.n), kernel_basis(self.h))
        self._d_known = True
        return self._d

    def params(self, with_distance: bool = False) -> CodeParams:
        d = self.min_distance() if with_distance else self._d
        return CodeParams(n=self.n, k=self.dimension(), m=self.m, d=d)

    def transpose_code(self) -> "ClassicalCode":
        """The code of H^T: checks and bits exchanged."""
        return ClassicalCode(transpose(self.h))

    def systematic_basis(self) -> SystematicBasis:
        """Codeword basis whose leading block is the identity after a column permutation."""
        k = self.dimension()
        if k == 0:
            raise PreconditionError("k = 0: the code has no codeword basis")
        reduced = rref(kernel_basis(self.h))
        pivots = list(reduced.pivot_cols)
        rest = [c for c in range(self.n) if c not in set(pivots)]
        return SystematicBasis(
            column_permutation=tuple(pivots + rest),
            generator=reduced.rref,
        )

    def puncture(self, keep_bits) -> "ClassicalCode":
        """Restrict to a subset of bit columns, keeping every check."""
        keep = sorted(set(keep_bits))
        for b in keep:
            if not 0 <= b < self.n:
                raise PreconditionError(f"puncture: bit {b} out of range [0, {self.n})")
        dense = self.h.to_dense()
        sub = dense[:, keep] if keep else np.zeros((self.m, 0), dtype=np.uint8)
        return ClassicalCode(BitMatrix.from_dense(sub))

    def __repr__(self) -> str:
        return f"ClassicalCode(n={self.n}, m={self.m})"


# -- file formats -----------------------------------------------------------


def parse_pcm_text(text: str) -> BitMatrix:
    """Plain format: first line "m n", then m lines of n space-separated 0/1."""
    lines = [ln for ln in text.splitlines()]
    idx = _next_content_line(lines, 0)
    header = lines[idx].split()
    if len(header) != 2:
        raise FormatError("expected header 'm n'", idx + 1)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("expected integer header 'm n'", idx + 1) from None
    rows = []
    pos = idx
    for _ in range(m):
        pos = _next_content_line(lines, pos + 1)
        fields = lines[pos].split()
        if len(fields) != n or any(f not in ("0", "1") for f in fields):
            raise FormatError(f"expected {n} entries of 0/1", pos + 1)
        rows.append([int(f) for f in fields])
    dense = np.array(rows, dtype=np.uint8).reshape(m, n)
    return BitMatrix.from_dense(dense)


def emit_pcm_text(h: BitMatrix) -> str:
    lines = [f"{h.rows} {h.cols}"]
    dense = h.to_dense()
    for row in dense:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_alist(text: str) -> BitMatrix:
    """MacKay alist format, 1-indexed, zero-padded adjacency lists allowed."""
    tokens_by_line = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped:
            tokens_by_line.append((ln_no, stripped.split()))
    if len(tokens_by_line) < 4:
        raise FormatError("alist needs header, degree lists and adjacency lists")
    pos = 0

    def take() -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(tokens_by_line):
            raise FormatError("unexpected end of alist")
        item = tokens_by_line[pos]
        pos += 1
        return item

    ln, header = take()
    if len(header) != 2:
        raise FormatError("expected alist header 'n m'", ln)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("expected integer header 'n m'", ln) from None
    take()  # max degrees, informational
    def degree_list(tokens, count, what, ln):
        if len(tokens) != count:
            raise FormatError(f"expected {count} {what} degrees", ln)
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise FormatError(f"{what} degrees must be integers", ln) from None

    ln, col_deg = take()
    col_deg = degree_list(col_deg, n, "column", ln)
    ln, row_deg = take()
    row_deg = degree_list(row_deg, m, "row", ln)
    def live_entries(tokens, ln):
        try:
            return [int(e) for e in tokens if e != "0"]
        except ValueError:
            raise FormatError("adjacency entries must be integers", ln) from None

    dense = np.zeros((m, n), dtype=np.uint8)
    for j in range(n):
        ln, entries = take()
        live = live_entries(entries, ln)
        if len(live) != int(col_deg[j]):
            raise FormatError(
                f"bit {j}: {len(live)} checks listed, degree says {col_deg[j]}", ln
            )
        for c in live:
            if not 1 <= c <= m:
                raise FormatError(f"check index {c} out of range", ln)
            dense[c - 1, j] = 1
    for i in range(m):
        ln, entries = take()
        live = live_entries(entries, ln)
        if len(live) != int(row_deg[i]):
            raise FormatError(
                f"check {i}: {len(live)} bits listed, degree says {row_deg[i]}", ln
            )
        for b in live:
            if not 1 <= b <= n:
                raise FormatError(f"bit index {b} out of range", ln)
            if not dense[i, b - 1]:
                raise FormatError(
                    f"check {i} lists bit {b} absent from the column lists", ln
                )
    return BitMatrix.from_dense(dense)


def emit_alist(h: BitMatrix) -> str:
    dense = h.to_dense()
    m, n = dense.shape
    col_deg = dense.sum(axis=0)
    row_deg = dense.sum(axis=1)
    max_col = int(col_deg.max()) if n else 0
    max_row = int(row_deg.max()) if m else 0
    lines = [f"{n} {m}", f"{max_col} {max_row}"]
    lines.append(" ".join(str(int(d)) for d in col_deg))
    lines.append(" ".join(str(int(d)) for d in row_deg))
    for j in range(n):
        hits = [str(i + 1) for i in np.nonzero(dense[:, j])[0]]
        hits += ["0"] * (max_col - len(hits))
        lines.append(" ".join(hits) if hits else "0")
    for i in range(m):
        hits = [str(j + 1) for j in np.nonzero(dense[i])[0]]
        hits += ["0"] * (max_row - len(hits))
        lines.append(" ".join(hits) if hits else "0")
    return "\n".join(lines) + "\n"


def _next_content_line(lines: list[str], start: int) -> int:
    for idx in range(start, len(lines)):
        if lines[idx].strip():
            return idx
    raise FormatError("unexpected end of file", len(lines))


def repetition_check(n: int) -> BitMatrix:
    """Circulant n x n check matrix of the n-bit cyclic repetition code."""
    dense = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        dense[i, i] = 1
        dense[i, (i + 1) % n] = 1
    return BitMatrix.from_dense(dense)


def hamming_7_4_check() -> BitMatrix:
    """3 x 7 check matrix whose columns are all non-zero 3-bit vectors."""
    cols = [[(j >> b) & 1 for j in range(1, 8)] for b in range(3)]
    return BitMatrix.from_dense(np.array(cols, dtype=np.uint8))
