"""Classical binary linear codes given by parity-check matrices.

A code is its m x n check matrix H; codewords are the right kernel of H.
Redundant checks are allowed everywhere (the 3-bit repetition example has
one), so k is always computed as n - rank(H), never as n - m.

Distances are exact: `gf2.coset_min_weight` with no stabiliser scores all
non-zero combinations of a kernel basis, a packed table of low combinations
per Gray-code step; codes with 2^k beyond the budget are refused rather
than estimated.

The plain PCM and alist codecs handle the whole matrix at once.  The PCM
emitter fills one byte array; the alist emitter finds all entries with one
np.nonzero.  The PCM parser accepts a file in a few whole-file passes
(one bytes.translate deletes the spaces, the line ends give the rows, one
strided gather takes them) and reads a refused file line by line; the
alist parser tokenises its file once and checks every line with numpy.
Both name the same line and give the same message as a line-by-line
reader would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, PreconditionError, read_file
from .gf2 import DEFAULT_BUDGET, BitMatrix, RrefResult, coset_min_weight, rref, transpose


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
        self._transpose: ClassicalCode | None = None
        self._d: int | None = params.d if params is not None else None
        if params is not None:
            if params.n != h.cols or params.m != h.rows:
                raise PreconditionError(
                    f"cached params {params} disagree with matrix shape {h.shape}"
                )
            if params.k != self.dimension():
                raise PreconditionError(
                    f"cached k={params.k} disagrees with n - rank = {self.dimension()}"
                )

    @property
    def n(self) -> int:
        return self.h.cols

    @property
    def m(self) -> int:
        return self.h.rows

    @cached_property
    def _reduced(self) -> RrefResult:
        return rref(self.h)

    def dimension(self) -> int:
        """Number of logical bits, n - rank(H)."""
        return self.n - self._reduced.rank

    def min_distance(self, budget: int = DEFAULT_BUDGET) -> int | None:
        """Exact minimum weight of a non-zero codeword; None when k = 0.

        `gf2.coset_min_weight` with no stabiliser enumerates the 2^k - 1
        combinations of a kernel basis; refuses when 2^k exceeds `budget`.
        A code with k = 0 is never refused.
        """
        if self._d is None and self.dimension():
            self._d = coset_min_weight(self._reduced, budget=budget)
        return self._d

    def transpose_code(self) -> "ClassicalCode":
        """The code of H^T: checks and bits exchanged; one object, so H^T is reduced once."""
        if self._transpose is None:
            self._transpose = ClassicalCode(transpose(self.h))
        return self._transpose

    def systematic_basis(self) -> SystematicBasis:
        """Codeword basis whose leading block is the identity after a column permutation."""
        k = self.dimension()
        if k == 0:
            raise PreconditionError("k = 0: the code has no codeword basis")
        reduced = rref(self._reduced.kernel)
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
        return ClassicalCode(self.h.columns(keep))

    def __repr__(self) -> str:
        return f"ClassicalCode(n={self.n}, m={self.m})"


# -- file formats -----------------------------------------------------------

# Code points that str.split() and str.strip() treat as whitespace.
_SPACE = np.zeros(0x110000, dtype=bool)
_SPACE[[0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0, 0x1680,
        *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]] = True
# PCM text: "\r\n" and every line break str.splitlines() knows become "\n", other spaces " ".
_PCM_NORMAL = [("\r\n", "\n")] + [(chr(c), "\n" if len(f"a{chr(c)}a".splitlines()) == 2 else " ")
                                  for c in np.flatnonzero(_SPACE).tolist() if c not in (10, 32)]


def _code_points(text: str) -> np.ndarray:
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def parse_pcm_text(text: str) -> BitMatrix:
    """Plain format: first line "m n", then m lines of n space-separated 0/1.

    Blank lines are skipped and lines after the m-th row are ignored.  A
    few whole-file passes accept a file; `_pcm_error` names a refused one.
    """
    for char, normal in _PCM_NORMAL:  # lines and tokens stay, so `_pcm_error` reads the result
        if char[0] in text:  # one character: a fast scan
            text = text.replace(char, normal)
    text += "" if text[-1:] in ("", "\n") else "\n"  # every line ends in "\n"
    start = len(text) - len(text.lstrip())
    end = text.find("\n", start)  # the header line's end
    try:
        m, n = map(int, text[start:end].split())
    except ValueError:
        return _pcm_error(text)
    if m < 0 or not 0 <= n <= np.iinfo(np.intp).max:
        return _pcm_error(text)
    data = text.encode("ascii", "replace")  # one byte per character, "?" past ASCII
    solid = np.frombuffer(data.translate(None, b" "), dtype=np.uint8)
    ends = np.flatnonzero(solid == ord("\n"))
    width = np.diff(ends, prepend=-1) - 1  # non-space characters per line
    # rows are the first m non-blank lines after the header; with n = 0, the next m lines
    top = text.count("\n", 0, end) + 1
    rows = top + (np.flatnonzero(width[top:])[:m] if n else np.arange(min(m, width.size - top)))
    if rows.size < m or (width[rows] != n).any():
        return _pcm_error(text)
    if not (m and n):
        return BitMatrix.zeros(m, n)
    entries = sliding_window_view(solid, n)[ends[rows] - n]
    # entries are single characters: the first two that touch lie past row m
    codes = np.frombuffer(data, dtype=np.uint8)
    pair = np.minimum(codes[end + 1:], codes[end:-1])
    if entries.min() < ord("0") or entries.max() > ord("1") or pair.max() > ord(" ") and (
            data.count(b"\n", 0, end + int(np.argmax(pair > ord(" ")))) <= rows[-1]):
        return _pcm_error(text)
    return BitMatrix.from_dense(entries)


def _pcm_error(text: str) -> NoReturn:
    """Raise for a refused PCM text, read line by line: its first bad line, else the width."""
    lines = text.splitlines()
    idx = _next_line(lines, 0)
    header = lines[idx].split()
    if len(header) != 2:
        raise FormatError("expected header 'm n'", idx + 1)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("expected integer header 'm n'", idx + 1) from None
    if m < 0 or n < 0:
        raise FormatError("expected non-negative header 'm n'", idx + 1)
    pos = idx
    for _ in range(m):
        # a row without entries is an empty line: the m lines after the header
        pos = _next_line(lines, pos + 1, blank=n == 0)
        fields = lines[pos].split()
        if len(fields) != n or not set(fields) <= {"0", "1"}:
            raise FormatError(f"expected {n} entries of 0/1", pos + 1)
    raise FormatError("header 'm n' exceeds the largest array dimension", idx + 1)


def emit_pcm_text(h: BitMatrix) -> str:
    body = np.full((h.rows, max(2 * h.cols, 1)), ord(" "), dtype=np.uint8)
    body[:, : 2 * h.cols : 2] = h.to_dense() + ord("0")
    body[:, -1] = ord("\n")
    return f"{h.rows} {h.cols}\n" + body.tobytes().decode("ascii")


def _int64(values: list[int]) -> np.ndarray:
    """The values as int64, with -1 for any that int64 cannot hold."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([v if -(2**63) <= v < 2**63 else -1 for v in values], dtype=np.int64)


def _parse_ints(words: list[str]) -> tuple[list, np.ndarray]:
    """int() of each word (0 where int() refuses it) and the mask of refused words."""
    try:
        return list(map(int, words)), np.zeros(len(words), dtype=bool)
    except ValueError:
        pass
    values, refused = [], []
    for w in words:
        try:
            values.append(int(w))
            refused.append(False)
        except ValueError:
            values.append(0)
            refused.append(True)
    return values, np.array(refused, dtype=bool)


def parse_alist(text: str) -> BitMatrix:
    """MacKay alist format, 1-indexed, zero-padded adjacency lists allowed."""
    lines = text.splitlines()
    body = "\n".join(lines)
    words = body.split()
    codes = _code_points(body)
    edges = np.diff((~_SPACE[codes]).view(np.int8), prepend=0, append=0)
    token_at = np.flatnonzero(edges == 1)
    token_len = np.flatnonzero(edges == -1) - token_at
    token_line = np.cumsum(codes == ord("\n"))[token_at]
    # Content lines (those holding a token) in order, with their token ranges.
    content, per_line = np.unique(token_line, return_counts=True)
    ends = np.cumsum(per_line)

    def line_no(k: int) -> int:
        return int(content[k]) + 1

    def line_words(k: int) -> list[str]:
        return words[ends[k] - per_line[k]: ends[k]]

    # A list of no entries is an empty line, so a 0 x 0 matrix has only the
    # header and the maximum degrees.
    if content.size < 4 and not (content.size > 1 and line_words(0) == ["0", "0"]):
        raise FormatError("alist needs header, degree lists and adjacency lists")
    header = line_words(0)
    if len(header) != 2:
        raise FormatError("expected alist header 'n m'", line_no(0))
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("expected integer header 'n m'", line_no(0)) from None

    def degree_list(k, count, what):
        tokens = line_words(k)
        if len(tokens) != count:
            raise FormatError(f"expected {count} {what} degrees", line_no(k))
        try:
            return list(map(int, tokens))
        except ValueError:
            raise FormatError(f"{what} degrees must be integers", line_no(k)) from None

    # Line 2 holds the largest column and row degrees (0 for no entries).  Degree
    # lists of no entries are empty lines too, and take no content line.
    max_deg = degree_list(1, 2, "maximum")
    col_deg = degree_list(2, n, "column") if n else []
    row_deg = degree_list(2 + (n > 0), m, "row") if m else []
    largest = [max(col_deg, default=0), max(row_deg, default=0)]
    if max_deg != largest:
        raise FormatError(f"maximum degrees {max_deg[0]} {max_deg[1]}, degree lists give"
                          f" {largest[0]} {largest[1]}", line_no(1))
    # Adjacency line a is content line top + a: bit a for a < n, then check a - n.
    top = 2 + (n > 0) + (m > 0)
    lists = min(n + m, content.size - top)
    first, last = ends[top - 1], ends[top - 1 + lists]
    values, refused = _parse_ints(words[first:last])
    value = _int64(values)
    owner = np.repeat(np.arange(lists), per_line[top: top + lists])
    live = (token_len[first:last] != 1) | (codes[token_at[first:last]] != ord("0"))
    listed = np.bincount(owner[live], minlength=lists)
    degree = _int64(col_deg + row_deg)[:lists]
    bound = np.where(np.arange(lists) < n, m, n)[owner]
    out_of_range = live & ((value < 1) | (value > bound))

    def check(lo: int, hi: int, entry_bad: np.ndarray) -> None:
        """Raise at the first bad list among lists lo..hi-1, or at a missing one."""
        unparsed = np.bincount(owner[refused], minlength=lists) > 0
        miscount = listed != degree
        bad_entry = np.bincount(owner[entry_bad], minlength=lists) > 0
        bad = np.flatnonzero((unparsed | miscount | bad_entry)[lo:hi])
        if bad.size:
            a = lo + int(bad[0])
            ln = line_no(top + a)
            if unparsed[a]:
                raise FormatError("adjacency entries must be integers", ln)
            if miscount[a] and a < n:
                raise FormatError(
                    f"bit {a}: {listed[a]} checks listed, degree says {col_deg[a]}", ln
                )
            if miscount[a]:
                raise FormatError(
                    f"check {a - n}: {listed[a]} bits listed, degree says {row_deg[a - n]}", ln
                )
            entry = int(np.flatnonzero(entry_bad & (owner == a))[0])
            if a < n:
                raise FormatError(f"check index {values[entry]} out of range", ln)
            if out_of_range[entry]:
                raise FormatError(f"bit index {values[entry]} out of range", ln)
            raise FormatError(
                f"check {a - n} lists bit {values[entry]} absent from the column lists", ln
            )
        if lists < hi:
            raise FormatError("unexpected end of alist")

    check(0, n, out_of_range)
    col_entries = live & (owner < n)
    h = BitMatrix.from_entries(m, n, value[col_entries] - 1, owner[col_entries])
    row_entries = live & (owner >= n) & ~out_of_range
    absent = np.zeros(live.size, dtype=bool)
    absent[row_entries] = ~h.entries(owner[row_entries] - n, value[row_entries] - 1)
    check(n, n + m, out_of_range | absent)
    return h


def _decimal_rows(values: np.ndarray) -> str:
    """Rows of integers as text, space-separated, one line per row."""
    return "".join(" ".join(map(str, row)) + "\n" for row in values.tolist())


def _padded_lists(owner: np.ndarray, values: np.ndarray, count: int, width: int) -> np.ndarray:
    """One row per owner, its values in order, zero-padded to `width` (at least 1)."""
    out = np.zeros((count, max(width, 1)), dtype=np.int64)
    sizes = np.bincount(owner, minlength=count)
    start = np.cumsum(sizes) - sizes
    out[owner, np.arange(owner.size) - start[owner]] = values
    return out


def read_check_matrix(path: str) -> BitMatrix:
    """A check matrix file: alist when the name ends in `.alist`, plain PCM otherwise."""
    return read_file(path, parse_alist if path.endswith(".alist") else parse_pcm_text)


def emit_alist(h: BitMatrix) -> str:
    m, n = h.shape
    check, bit = h.nonzero()   # row-major: bits ascend within each check
    col_deg = np.bincount(bit, minlength=n)
    row_deg = np.bincount(check, minlength=m)
    max_col = int(col_deg.max()) if n else 0
    max_row = int(row_deg.max()) if m else 0
    by_bit = np.argsort(bit, kind="stable")  # checks ascend within each bit
    return "".join([
        f"{n} {m}\n{max_col} {max_row}\n",
        _decimal_rows(col_deg[None, :]),
        _decimal_rows(row_deg[None, :]),
        _decimal_rows(_padded_lists(bit[by_bit], check[by_bit] + 1, n, max_col)),
        _decimal_rows(_padded_lists(check, bit + 1, m, max_row)),
    ])


def _next_line(lines: list[str], start: int, blank: bool = False) -> int:
    for idx in range(start, len(lines)):
        if blank or lines[idx].strip():
            return idx
    raise FormatError("unexpected end of file", len(lines))


def repetition_check(n: int) -> BitMatrix:
    """Circulant n x n check matrix of the n-bit cyclic repetition code."""
    i = np.arange(n)
    return BitMatrix.from_entries(n, n, np.concatenate([i, i]), np.concatenate([i, (i + 1) % n]))


def hamming_7_4_check() -> BitMatrix:
    """3 x 7 check matrix whose columns are all non-zero 3-bit vectors."""
    cols = [[(j >> b) & 1 for j in range(1, 8)] for b in range(3)]
    return BitMatrix.from_dense(np.array(cols, dtype=np.uint8))
