"""Classical binary linear codes given by parity-check matrices.

A code is its m x n check matrix H; codewords are the right kernel of H.
A code gives its dimension, its exact distance and the code of H^T.
Redundant checks are allowed everywhere (the 3-bit repetition example has
one), so k is always computed as n - rank(H), never as n - m.

Distances are exact: `gf2.coset_min_weight` with no stabiliser finds the
shortest cycle of an H with at most two ones per column (its girth), and
searches the kernel of any other H by its systematic forms
(`gf2.min_weight`); codes with 2^k beyond the budget are refused from
the rank of H, before any elimination, not estimated.
H's rank is remembered by H itself (`gf2.rank`); a decided distance
reduces an H that is no graph once, for its kernel (`gf2._kernel`), and
a graph H not at all: its cycle labels are read off its spanning forest.

The readers and emitters work on a matrix's flat positions: the PCM emitter
sets one byte per one in a template of "0 " rows, the alist emitter reads
the ones once in row-major order.  Each format has one reader.  The PCM
reader is one pass over the rows in file order, a few byte operations per
long row, which refuses a file at its first bad line.  The alist reader
reads the header and degree lines once, in file order; its lists are short
and many (one per column and per check), so it accepts them in whole-file
passes, a per-list pass costing more, and walks them one at a time, from
the tokens already split, only to name the first bad list of a refused file.
"""

from __future__ import annotations

import sys
from itertools import chain, compress, repeat

from .errors import FormatError, read_file
from .gf2 import DEFAULT_BUDGET, BitMatrix, coset_min_weight, rank, transpose


class ClassicalCode:
    """A binary linear code defined by a parity-check matrix."""

    def __init__(self, h: BitMatrix):
        self.h = h
        self._transpose: ClassicalCode | None = None

    @property
    def n(self) -> int:
        return self.h.cols

    @property
    def m(self) -> int:
        return self.h.rows

    def dimension(self) -> int:
        """Number of logical bits, n - rank(H)."""
        return self.n - rank(self.h)

    def min_distance(self, budget: int = DEFAULT_BUDGET) -> int | None:
        """Exact minimum weight of a non-zero codeword; None when k = 0.

        `gf2.coset_min_weight` with no stabiliser: the girth of a graph H,
        else the search over systematic forms of a kernel basis
        (`gf2.min_weight`); refuses when 2^k exceeds `budget`.
        A code with k = 0 is never refused.
        """
        return coset_min_weight(self.h, budget=budget) if self.dimension() else None

    def transpose_code(self) -> "ClassicalCode":
        """The code of H^T: checks and bits exchanged; one object, so H^T is ranked once."""
        if self._transpose is None:
            self._transpose = ClassicalCode(transpose(self.h))
        return self._transpose

    def __repr__(self) -> str:
        return f"ClassicalCode(n={self.n}, m={self.m})"


# -- file formats -----------------------------------------------------------

# Code points that str.split() and str.strip() treat as whitespace.
_SPACE = (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0, 0x1680,
          *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)
# "\r\n" and every line break str.splitlines() knows become "\n", other spaces " ".
_NORMAL = [("\r\n", "\n")] + [(chr(c), "\n" if len(f"a{chr(c)}a".splitlines()) == 2 else " ")
                              for c in _SPACE if c not in (10, 32)]


def _normalised(text: str) -> str:
    """The text with the same lines and tokens, and only "\n" and " " as whitespace."""
    for char, normal in _NORMAL:
        if char[0] in text:  # one character: a fast scan
            text = text.replace(char, normal)
    return text


def parse_pcm_text(text: str) -> BitMatrix:
    """Plain format: first line "m n", then m lines of n space-separated 0/1.

    Blank lines are skipped and lines after the m-th row are ignored.  One
    pass reads the header, then the rows in file order as bytes, where less
    its spaces a row is n of "0" and "1", no two of which touch; the ones
    are found with find.  The first line that fails is refused at once,
    numbered as `str.splitlines` counts, and a width no array holds only
    after every row passed.  Unlike `parse_alist`'s lists, a row is not
    accepted in a whole-file pass first: a row is one long line, so its few
    byte operations cost what a whole-file pass would.
    """
    text = _normalised(text)  # lines and tokens stay, so line numbers do too
    lines = text.encode("ascii", "replace").split(b"\n")  # "?" past ASCII
    if not lines[-1]:
        lines.pop()  # a last "\n" ends the last line; it starts none
    start = len(text) - len(text.lstrip())
    if start == len(text):
        raise FormatError("unexpected end of file", len(lines))
    head = text.count("\n", 0, start)  # the header's line index
    header = text[start:text.find("\n", start) % (len(text) + 1)].split()  # to its line's end
    if len(header) != 2:
        raise FormatError("expected header 'm n'", head + 1)
    try:
        m, n = map(int, header)
    except ValueError:
        raise FormatError("expected integer header 'm n'", head + 1) from None
    if m < 0 or n < 0:
        raise FormatError("expected non-negative header 'm n'", head + 1)
    ones, at, k = [], 0, head  # i * n + j, the row's first entry, and its line index
    for _ in range(m):
        k += 1
        while n and k < len(lines) and not lines[k].strip():  # with n = 0, every line is a row
            k += 1
        if k == len(lines):
            raise FormatError("unexpected end of file", k)
        line = lines[k]
        solid = line.translate(None, b" ")
        if len(solid) != n or solid.translate(None, b"01") or b"11" in line.translate(_TOUCH):
            raise FormatError(f"expected {n} entries of 0/1", k + 1)
        j = solid.find(b"1")
        while j >= 0:
            ones.append(at + j)
            j = solid.find(b"1", j + 1)
        at += n
    if n > sys.maxsize:  # the largest array dimension
        raise FormatError("header 'm n' exceeds the largest array dimension", head + 1)
    return BitMatrix(m, n, flat=ones)


_TOUCH = bytes.maketrans(b"0", b"1")  # two entries touch where "11" is left


def emit_pcm_text(h: BitMatrix) -> str:
    """The plain format.  Every row is "0 " n times, its last space a newline, so the
    entry at flat position p is byte 2 p of the body; each one sets it to "1"."""
    head = f"{h.rows} {h.cols}\n".encode()
    text = bytearray(b"0 " * (h.cols - 1) + b"0\n" if h.cols else b"\n") * h.rows
    text[:0] = head                                     # one buffer: no second copy of the body
    for p in h._flat:
        text[len(head) + 2 * p] = 49                    # "1"
    return text.decode("ascii")


def parse_alist(text: str) -> BitMatrix:
    """MacKay alist format, read in Python.

    Tokens are split at any whitespace and lines at any line break that
    str.split() and str.splitlines() know; blank lines are skipped.  The
    other lines are, in order: the header "n m"; the largest column and
    row degrees (0 for no entries); the n column degrees; the m row
    degrees; n column lists of 1-indexed checks; m row lists of 1-indexed
    bits.  The degree line of zero columns or rows takes no line; "0"
    pads a list, so a list of no entries is a line of "0"s.  A token is an
    integer as int() reads it.  Each list holds as many entries as its
    degree says, each in range, and each row entry is in the column lists;
    lines after the last list are ignored.  The header and degree lines
    are read once, in file order, and the lists in whole-file passes; only
    a refused file's lists are walked one at a time, and numbered, to name
    the first bad one.
    """
    text = _normalised(text)
    content = [tokens for tokens in map(str.split, text.split("\n")) if tokens]

    def line(k: int) -> int:  # content line k's number, as str.splitlines counts from 1
        return [i for i, s in enumerate(text.split("\n"), start=1) if s.strip()][k]

    if len(content) < 4 and not (len(content) > 1 and content[0] == ["0", "0"]):
        raise FormatError("alist needs header, degree lists and adjacency lists")
    if len(content[0]) != 2:
        raise FormatError("expected alist header 'n m'", line(0))
    try:
        n, m = map(int, content[0])
    except ValueError:
        raise FormatError("expected integer header 'n m'", line(0)) from None

    def degrees(k: int, count: int, what: str) -> list[int]:
        if len(content[k]) != count:
            raise FormatError(f"expected {count} {what} degrees", line(k))
        try:
            return list(map(int, content[k]))
        except ValueError:
            raise FormatError(f"{what} degrees must be integers", line(k)) from None

    max_deg = degrees(1, 2, "maximum")
    col_deg = degrees(2, n, "column") if n else []
    row_deg = degrees(2 + bool(n), m, "row") if m else []
    largest = [max(col_deg, default=0), max(row_deg, default=0)]
    if max_deg != largest:
        raise FormatError(f"maximum degrees {max_deg[0]} {max_deg[1]}, degree lists give"
                          f" {largest[0]} {largest[1]}", line(1))
    top = 2 + bool(n) + bool(m)  # the first list's content line
    lists = content[top:top + n + m]
    try:
        if [len(t) - t.count("0") for t in lists] != col_deg + row_deg:
            raise ValueError
        tokens = list(chain.from_iterable(lists))
        live = list(map("0".__ne__, tokens))  # "0" pads a list
        value = list(compress(map(int, tokens), live))
        owner = chain.from_iterable(map(repeat, range(n + m), map(len, lists)))
        owner = list(compress(owner, live))
        cut = sum(col_deg)  # the column lists' entries, then the row lists'
        if cut and not 1 <= min(value[:cut]) <= max(value[:cut]) <= m:
            raise ValueError
        ones = {(v - 1) * n + a for v, a in zip(value[:cut], owner[:cut])}  # check * n + bit
        if not all(0 < v <= n and (a - n) * n + v - 1 in ones
                   for v, a in zip(value[cut:], owner[cut:])):
            raise ValueError
    except ValueError:  # refused: the first bad list, or the end of the file, says why
        columns = set()  # (check, bit) of each column-list entry
        for a, degree in enumerate(col_deg + row_deg):
            if a == len(lists):
                raise FormatError("unexpected end of alist")
            try:
                live = [int(t) for t in lists[a] if t != "0"]
            except ValueError:
                raise FormatError("adjacency entries must be integers", line(top + a)) from None
            if len(live) != degree:
                raise FormatError(
                    f"bit {a}: {len(live)} checks listed, degree says {degree}" if a < n else
                    f"check {a - n}: {len(live)} bits listed, degree says {degree}",
                    line(top + a))
            for v in live:
                if a < n:
                    if not 1 <= v <= m:
                        raise FormatError(f"check index {v} out of range", line(top + a))
                    columns.add((v - 1, a))
                elif not 1 <= v <= n:
                    raise FormatError(f"bit index {v} out of range", line(top + a))
                elif (a - n, v - 1) not in columns:
                    raise FormatError(f"check {a - n} lists bit {v} absent from the column lists",
                                      line(top + a))
        raise AssertionError("parse_alist refused an alist whose lists each read")
    return BitMatrix(m, n, flat=list(ones))


def read_check_matrix(path: str) -> BitMatrix:
    """A check matrix file: alist when the name ends in `.alist`, plain PCM otherwise."""
    return read_file(path, parse_alist if path.endswith(".alist") else parse_pcm_text)


def emit_alist(h: BitMatrix) -> str:
    """MacKay alist: each column's checks and each row's bits, 1-indexed and ascending,
    read off the ones in row-major order and padded with "0" to the largest degree."""
    m, n = h.shape
    names = list(map(str, range(max(m, n) + 1)))      # each index as text, made once
    bits, checks = [[] for _ in range(m)], [[] for _ in range(n)]
    for p in sorted(h._flat):
        i, j = divmod(p, n)
        bits[i].append(names[j + 1])
        checks[j].append(names[i + 1])
    col_deg, row_deg = list(map(len, checks)), list(map(len, bits))
    max_col, max_row = max(col_deg, default=0), max(row_deg, default=0)

    def lines(lists: list[list[str]], width: int) -> str:
        return "".join(" ".join(v + ["0"] * (width - len(v))) + "\n" for v in lists)

    return "".join([f"{n} {m}\n{max_col} {max_row}\n",
                    lines([list(map(str, col_deg)), list(map(str, row_deg))], 0),
                    lines(checks, max(max_col, 1)), lines(bits, max(max_row, 1))])
