"""Differential tests for the PCM and alist codecs.

The per-entry implementations that the whole-matrix codecs replaced are
kept below as oracles.  Every case must give the same text, the same
matrix, or a FormatError with the same line and message in both versions.
A negative PCM header is refused by the new parser only.  The oracles
carry the four rules added after them.  Every emitted file reads back:
a row, column or degree list with no entries is an empty line (the m
lines after a "m 0" PCM header, and no content line in an alist).  A PCM
header past the largest numpy dimension is a FormatError.  Line 2 of an
alist must hold exactly the largest column and row degrees, 0 for an
empty list.  An alist list names no index twice, and a row list names
every bit the column lists give its check.
"""

import random
import tracemalloc

import numpy as np
import pytest

from qpc import classical
from qpc.classical import emit_alist, emit_pcm_text, parse_alist, parse_pcm_text
from qpc.errors import FormatError
from qpc.gf2 import BitMatrix, transpose

from oracles import from_dense, numpy_emit_alist, numpy_emit_pcm_text

# -- oracles ----------------------------------------------------------------


def _next_content_line(lines: list[str], start: int) -> int:
    for idx in range(start, len(lines)):
        if lines[idx].strip():
            return idx
    raise FormatError("unexpected end of file", len(lines))


def oracle_parse_pcm_text(text: str) -> BitMatrix:
    lines = [ln for ln in text.splitlines()]
    idx = _next_content_line(lines, 0)
    header = lines[idx].split()
    if len(header) != 2:
        raise FormatError("expected header 'm n'", idx + 1)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError("expected integer header 'm n'", idx + 1) from None
    if n == 0:
        for pos in range(idx + 1, idx + 1 + m):
            if pos >= len(lines):
                raise FormatError("unexpected end of file", len(lines))
            if lines[pos].strip():
                raise FormatError("expected 0 entries of 0/1", pos + 1)
        return BitMatrix.zeros(m, 0)
    rows = []
    pos = idx
    for _ in range(m):
        pos = _next_content_line(lines, pos + 1)
        fields = lines[pos].split()
        if len(fields) != n or any(f not in ("0", "1") for f in fields):
            raise FormatError(f"expected {n} entries of 0/1", pos + 1)
        rows.append([int(f) for f in fields])
    if n >= 2**63:
        raise FormatError("header 'm n' exceeds the largest array dimension", idx + 1)
    dense = np.array(rows, dtype=np.uint8).reshape(m, n)
    return from_dense(dense)


def oracle_emit_pcm_text(h: BitMatrix) -> str:
    lines = [f"{h.rows} {h.cols}"]
    dense = h.to_dense()
    for row in dense:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def oracle_parse_alist(text: str) -> BitMatrix:
    tokens_by_line = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped:
            tokens_by_line.append((ln_no, stripped.split()))
    if len(tokens_by_line) < 4 and not (
        len(tokens_by_line) > 1 and tokens_by_line[0][1] == ["0", "0"]
    ):
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
    def degree_list(tokens, count, what, ln):
        if len(tokens) != count:
            raise FormatError(f"expected {count} {what} degrees", ln)
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise FormatError(f"{what} degrees must be integers", ln) from None

    max_ln, max_deg = take()
    max_col, max_row = degree_list(max_deg, 2, "maximum", max_ln)
    col_deg, row_deg = [], []
    if n:
        ln, col_deg = take()
        col_deg = degree_list(col_deg, n, "column", ln)
    if m:
        ln, row_deg = take()
        row_deg = degree_list(row_deg, m, "row", ln)
    want_col = max(col_deg) if col_deg else 0
    want_row = max(row_deg) if row_deg else 0
    if (max_col, max_row) != (want_col, want_row):
        raise FormatError(
            f"maximum degrees {max_col} {max_row}, degree lists give {want_col} {want_row}",
            max_ln,
        )
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
            if dense[c - 1, j]:
                raise FormatError(f"bit {j}: check {c} listed twice", ln)
            dense[c - 1, j] = 1
    for i in range(m):
        ln, entries = take()
        live = live_entries(entries, ln)
        if len(live) != int(row_deg[i]):
            raise FormatError(
                f"check {i}: {len(live)} bits listed, degree says {row_deg[i]}", ln
            )
        seen = []
        for b in live:
            if not 1 <= b <= n:
                raise FormatError(f"bit index {b} out of range", ln)
            if not dense[i, b - 1]:
                raise FormatError(
                    f"check {i} lists bit {b} absent from the column lists", ln
                )
            if b in seen:
                raise FormatError(f"check {i}: bit {b} listed twice", ln)
            seen.append(b)
        for b in range(1, n + 1):
            if dense[i, b - 1] and b not in seen:
                raise FormatError(f"check {i} omits bit {b} given by the column lists", ln)
    return from_dense(dense)


def oracle_emit_alist(h: BitMatrix) -> str:
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


# -- inputs -----------------------------------------------------------------

SHAPES = [(0, 0), (0, 5), (4, 0), (1, 1), (1, 64), (3, 65), (2, 130)]


def random_matrix(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    p = rng.choice([0.0, 0.05, 0.3, 0.7, 1.0])
    dense = np.array(
        [[rng.random() < p for _ in range(cols)] for _ in range(rows)], dtype=np.uint8
    ).reshape(rows, cols)
    return from_dense(dense)


def random_matrices(seed: int, count: int):
    rng = random.Random(seed)
    for shape in SHAPES:
        yield random_matrix(rng, *shape)
    for _ in range(count):
        yield random_matrix(rng, rng.randint(0, 9), rng.randint(0, 140))


# Replacement bytes: digits, signs, letters, ASCII and Unicode whitespace,
# and characters that str.splitlines() treats as line breaks.
BAD_CHARS = ["2", "9", "x", "-", "+", "_", ".", " ", "\t", "\x0b", "\x0c", "\r",
             "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u3000", "\u0663", "\xe9"]
TOKENS = ["10", "01", "11", "00", "007", "+1", "-1", "1_0", "2", "99999999999999999999999"]


def mutate(rng: random.Random, text: str) -> str:
    """One seeded corruption of an emitted file."""
    kind = rng.choice(["truncate", "byte", "token", "index", "merge", "blank", "crlf",
                       "extra", "drop"])
    lines = text.split("\n")
    if kind == "truncate":
        return text[: rng.randrange(len(text) + 1)]
    if kind == "byte" and text:
        pos = rng.randrange(len(text))
        return text[:pos] + rng.choice(BAD_CHARS) + text[pos + 1:]
    if kind in ("token", "index"):
        at = rng.randrange(len(lines))
        words = lines[at].split(" ")
        if kind == "token":
            new = rng.choice(TOKENS)
        else:
            header = lines[0].split(" ")
            bound = max((int(t) for t in header if t.isdigit()), default=1)
            new = str(rng.choice([0, -1, bound, bound + 1, 2 * bound + 3]))
        words[rng.randrange(len(words))] = new
        lines[at] = " ".join(words)
        return "\n".join(lines)
    if kind == "merge":
        # two tokens glued together, one more added: the entry count holds
        at = rng.randrange(len(lines))
        words = lines[at].split(" ")
        if len(words) > 1:
            i = rng.randrange(len(words) - 1)
            words[i:i + 2] = [words[i] + words[i + 1], rng.choice(["0", "1"])]
            lines[at] = " ".join(words)
        return "\n".join(lines)
    if kind == "blank":
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "\t", " \x0c "]))
        return "\n".join(lines)
    if kind == "crlf":
        return text.replace("\n", rng.choice(["\r\n", "\r", "\x1e"]))
    if kind == "extra":
        extra = rng.choice(lines) if lines else "1"
        lines.insert(rng.randrange(len(lines) + 1), extra)
        return "\n".join(lines)
    if kind == "drop" and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
        return "\n".join(lines)
    return text


def outcome(parse, text: str):
    """The matrix, or the FormatError's line and message.

    A header so large that numpy cannot shape the matrix raises a plain
    ValueError in both versions; only its type is compared.
    """
    try:
        return ("matrix", parse(text))
    except FormatError as exc:
        return ("error", exc.line, str(exc))
    except ValueError as exc:
        return ("crash", type(exc).__name__)


def negative_pcm_header(text: str) -> bool:
    for line in text.splitlines():
        if line.strip():
            header = line.split()
            try:
                return len(header) == 2 and min(int(header[0]), int(header[1])) < 0
            except ValueError:
                return False
    return False


# -- tests ------------------------------------------------------------------


class TestEmitters:
    def test_pcm_text_matches_oracle(self):
        for h in random_matrices(101, 60):
            assert emit_pcm_text(h) == oracle_emit_pcm_text(h), h.shape

    def test_alist_matches_oracle(self):
        for h in random_matrices(103, 60):
            assert emit_alist(h) == oracle_emit_alist(h), h.shape

    def test_match_the_numpy_emitters_and_read_back(self):
        # byte for byte the numpy emitters the Python ones replaced: no rows, no
        # columns, neither, dense, every column weight from 1 to 6, and each
        # transposed, whose ones are not in row-major order
        rng = np.random.default_rng(109)
        denses = [np.zeros((0, 5)), np.zeros((4, 0)), np.zeros((0, 0)), np.ones((7, 9)),
                  rng.random((40, 130)) < 0.5]
        for weight in range(1, 7):
            rows, cols = int(rng.integers(weight, 40)), int(rng.integers(1, 150))
            dense = np.zeros((rows, cols))
            for j in range(cols):
                dense[rng.choice(rows, weight, replace=False), j] = 1
            denses.append(dense)
        for dense in denses:
            for h in (from_dense(dense), transpose(from_dense(dense))):
                pcm, alist = emit_pcm_text(h), emit_alist(h)
                assert pcm == numpy_emit_pcm_text(h), h.shape
                assert alist == numpy_emit_alist(h), h.shape
                assert parse_pcm_text(pcm) == h and parse_alist(alist) == h, h.shape

    def test_multi_digit_indices(self):
        # indices past 9, 99 and 999 exercise every digit count in a line
        rng = random.Random(107)
        h = random_matrix(rng, 3, 1200)
        assert emit_alist(h) == oracle_emit_alist(h)
        assert emit_alist(BitMatrix.identity(1100)) == oracle_emit_alist(BitMatrix.identity(1100))


class TestParsers:
    def test_whitespace_table_is_str_isspace(self):
        # the tokeniser must split exactly where str.split() does
        spaces = [c for c in range(0x110000) if chr(c).isspace()]
        assert list(classical._SPACE) == spaces

    def test_clean_files_match_oracle(self):
        # Every emitted file reads back, matrices with no rows or no columns
        # included.
        for h in random_matrices(109, 40):
            for emit, parse, oracle in ((emit_pcm_text, parse_pcm_text, oracle_parse_pcm_text),
                                        (emit_alist, parse_alist, oracle_parse_alist)):
                text = emit(h)
                assert parse(text) == h, (h.shape, text)
                assert outcome(parse, text) == outcome(oracle, text)

    def test_empty_rows_are_the_lines_after_the_header(self):
        assert parse_pcm_text("2 0\n\n \n1 0 1\n") == BitMatrix.zeros(2, 0)
        with pytest.raises(FormatError, match="line 3: expected 0 entries"):
            parse_pcm_text("2 0\n\n0\n")
        with pytest.raises(FormatError, match="line 2: unexpected end of file"):
            parse_pcm_text("2 0\n\n")

    def test_empty_alist_lists_take_no_line(self):
        assert parse_alist("0 0\n0 0\n") == BitMatrix.zeros(0, 0)
        assert parse_alist("0 2\n0 0\n0 0\n0\n0\n") == BitMatrix.zeros(2, 0)
        with pytest.raises(FormatError, match="alist needs header"):
            parse_alist("0 1\n0 0\n")
        with pytest.raises(FormatError, match="line 3: expected 2 row degrees"):
            parse_alist("0 2\n0 0\n0 0 0\n0\n0\n")

    def test_huge_pcm_header_is_a_format_error(self):
        with pytest.raises(FormatError, match="largest array dimension"):
            parse_pcm_text("0 99999999999999999999\n")

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_pcm_matches_oracle(self, seed):
        rng = random.Random(1000 + seed)
        for h in random_matrices(2000 + seed, 40):
            text = emit_pcm_text(h)
            for _ in range(12):
                bad = mutate(rng, text)
                if negative_pcm_header(bad):
                    continue
                want = outcome(oracle_parse_pcm_text, bad)
                assert outcome(parse_pcm_text, bad) == want, repr(bad)

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_alist_matches_oracle(self, seed):
        rng = random.Random(3000 + seed)
        for h in random_matrices(4000 + seed, 40):
            text = emit_alist(h)
            for _ in range(12):
                bad = mutate(rng, text)
                assert outcome(parse_alist, bad) == outcome(oracle_parse_alist, bad), repr(bad)

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_max_degree_line_matches_oracle(self, seed):
        # Line 2 reads back only when it holds the two largest degrees.
        rng = random.Random(5000 + seed)
        for h in random_matrices(6000 + seed, 40):
            lines = emit_alist(h).split("\n")
            right = lines[1].split()
            for _ in range(8):
                words = list(right)
                kind = rng.choice(["shift", "swap", "drop", "extra", "token"])
                at = rng.randrange(2)
                if kind == "shift":
                    words[at] = str(int(words[at]) + rng.choice([-1, 1, 7]))
                elif kind == "swap":
                    words.reverse()
                elif kind == "drop":
                    del words[at]
                elif kind == "extra":
                    words.insert(rng.randrange(3), rng.choice(["0", words[at]]))
                else:
                    words[at] = rng.choice(TOKENS + ["x", "1.0", "-0"])
                text = "\n".join([lines[0], " ".join(words), *lines[2:]])
                got = outcome(parse_alist, text)
                assert got == outcome(oracle_parse_alist, text), repr(text)
                try:
                    same = [int(w) for w in words] == [int(w) for w in right]
                except ValueError:
                    same = False
                if same:
                    assert got == ("matrix", h), repr(text)
                else:
                    assert got[:2] == ("error", 2), repr(text)

    @pytest.mark.parametrize("text", [
        "2 3\n0 1 0\n",                 # truncated
        "1 3\n0 1\n",                   # short row
        "1 3\n0 1 1 0\n",               # long row
        "1 2\n0 10\n",                  # multi-digit token
        "1 3\n01  0\n",                 # multi-digit token, digit count still n
        "1 2\n0\u20031\n",              # Unicode space inside a row
        "1 2\r\n\r\n1 1\r\n",           # CRLF and a blank line
        "2 2\n1 1\n0 0\n1 1\n",         # extra row, ignored
        "0 3\n",
        "2 0\n",
        "",
        "1 x\n",
        "1 2 3\n",
        "3 3\n0 1 0\n0 2 0\n",         # bad row, then missing rows: the bad row is named
        "\n \t\n\n2 2\n1 0\n\n0 1\n",    # header after blank lines
        "\n  \n1 2\n0 1 1\n",            # header after blank lines, long row
        "\u20281 2\n0 1\n",              # line separator before the header
    ])
    def test_pcm_edge_cases_match_oracle(self, text):
        assert outcome(parse_pcm_text, text) == outcome(oracle_parse_pcm_text, text)

    @pytest.mark.parametrize("text", [
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n2 3 0\n",   # zero padding
        "2 1\n1 2\n1 0\n2\n1\n0\n1 2\n",                         # bit absent from columns
        "2 1\n1 2\n1 1\n2\n1\n1\n1 02\n",                        # leading zero
        "2 1\n1 2\n1 1\n2\n1\n1\n1 +2\n",                        # sign
        "2 1\n1 2\n1 1\n2\n1\n1\n1 3\n",                         # bit index out of range
        "2 1\n1 2\n1 1\n2\n2\n1\n1 2\n",                         # check index out of range
        "2 1\n1 2\n1 1\n2\n1 1\n1\n1 2\n",                       # duplicate entry
        "2 1\n1 2\n1 1\n2\n1\n1\n",                              # truncated
        "2 1\n1 2\n1 x\n2\n1\n1\n1 2\n",                         # bad degree
        "2 1\n1 2\n1 1\n2\n1\n00\n1 2\n",                        # 00 is not padding
        "0 0\n0 0\n\n\n",
        "1 2\n",
        "2 1\n1 3\n1 1\n2\n1\n1\n1 2\n",                         # maximum above the lists
        "2 1\n2 1\n1 1\n2\n1\n1\n1 2\n",                         # maxima swapped
        "2 1\n2\n1 1\n2\n1\n1\n1 2\n",                           # one maximum
        "2 1\n1 2 2\n1 1\n2\n1\n1\n1 2\n",                       # three maxima
        "2 1\n1 y\n1 1\n2\n1\n1\n1 2\n",                         # not an integer
        "2 1\n1 3\n1 x\n2\n1\n1\n1 2\n",                         # bad degree first
        "0 0\n0 1\n",                                            # 0 for empty lists
        "2 1 0\n1 2\n1 1\n2\n1\n1\n1 2\n",                       # three-token header
        "2 x\n1 2\n1 1\n2\n1\n1\n1 2\n",                         # non-integer header
        "2 1\n1 2\n1\n2\n1\n1\n1 2\n",                           # short column degrees
        "2 1\n1 2\n1 1\nx\n1\n1\n1 2\n",                         # non-integer row degree
        # each list refusal in the first list and in the last (or the last of its kind)
        "3 2\n2 2\n1 2 1\n2 2\nx 0\n1 2\n2 0\n1 2 0\n2 3 0\n",   # non-integer entry
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n2 y 0\n",
        "3 2\n2 2\n1 2 1\n2 2\n0 0\n1 2\n2 0\n1 2 0\n2 3 0\n",   # count below the degree
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n2 0 0\n",
        "3 2\n2 2\n1 2 1\n2 2\n1 2\n1 2\n2 0\n1 2 0\n2 3 0\n",   # count above the degree
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n2 3 1\n",
        "3 2\n2 2\n1 2 1\n2 2\n3 0\n1 2\n2 0\n1 2 0\n2 3 0\n",   # check index out of range
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n-1 0\n1 2 0\n2 3 0\n",
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n4 2 0\n2 3 0\n",   # bit index out of range
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n2 -3 0\n",
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 3 0\n2 3 0\n",   # bit absent from columns
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n2 1 0\n",
        "3 2\n2 2\n1 2 1\n2 2\n",                                # end after the degree lines
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n",           # one list missing
        # row and column lists that describe different matrices
        "2 1\n2 2\n2 0\n2\n1 1\n0 0\n1 1\n",                     # check 1 twice in column 1
        "2 1\n1 1\n1 1\n1\n1\n1\n1\n",                          # row omits bit 2
        "2 1\n1 2\n1 1\n2\n1\n1\n1 1\n",                         # bit 1 twice in the row
        "3 2\n2 2\n1 2 1\n1 2\n1 0\n1 2\n2 0\n1 0\n2 3 0\n",     # first row omits bit 2
        "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n3 3 0\n",   # last row: bit 3 twice
        "3 2\n2 3\n1 2 1\n2 3\n1 0\n1 2\n2 0\n1 2 0\n2 3 1\n",   # more row than column entries
    ])
    def test_alist_edge_cases_match_oracle(self, text):
        assert outcome(parse_alist, text) == outcome(oracle_parse_alist, text)


class TestEmittedLayout:
    """A text laid out exactly as `emit_pcm_text` writes it takes the whole-text path;
    any edit of it goes to the row reader, and every text reads as the oracle reads it."""

    @staticmethod
    def canonical(seed: int) -> tuple[BitMatrix, str]:
        h = random_matrix(random.Random(seed), 5, 9)
        return h, emit_pcm_text(h)

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trips(self, seed):
        rng = random.Random(7100 + seed)
        for rows, cols in ((1, 1), (1, rng.randint(2, 200)), (rng.randint(2, 200), 1),
                           (rng.randint(2, 40), rng.randint(2, 300))):
            for density in (0.0, 0.02, 0.5, 1.0):  # empty, sparse, dense, full
                h = BitMatrix(rows, cols, [p for p in range(rows * cols) if rng.random() < density])
                text = emit_pcm_text(h)
                assert classical._emitted(text) == h == parse_pcm_text(text), (rows, cols)

    @staticmethod
    def edits(text: str, rng: random.Random) -> dict[str, str]:
        head, body = text.split("\n", 1)
        digit = 2 * rng.randrange(len(body) // 2)            # an entry's place in the body
        space = rng.choice([i for i, c in enumerate(body) if c == " "])

        def at(i: int, new: str) -> str:
            return head + "\n" + body[:i] + new + body[i + 1:]

        return {
            "flipped digit": at(digit, "10"[int(body[digit])]),
            "digit 2": at(digit, "2"),
            "double space": at(space, "  "),
            "tab": at(space, "\t"),
            "dropped space": at(space, ""),
            "no last newline": text[:-1],
            "crlf": text.replace("\n", "\r\n"),
            "leading blank line": "\n" + text,
            "trailing line": text + "0 1\n",
            "plus header": "+" + text,
            "zero header": "0" + text,
            "header space": text.replace("\n", " \n", 1),
            "arabic-indic header": text.replace("5", "\u0665", 1),
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_edits_read_as_the_oracle_reads_them(self, seed):
        h, text = self.canonical(7200 + seed)
        for name, edited in self.edits(text, random.Random(7300 + seed)).items():
            # a flipped digit keeps the layout; every other edit leaves it
            assert (classical._emitted(edited) is None) is (name != "flipped digit"), name
            assert outcome(parse_pcm_text, edited) == outcome(oracle_parse_pcm_text, edited), name

    def test_only_other_layouts_are_normalised(self, monkeypatch):
        calls = []
        normalised = classical._normalised
        monkeypatch.setattr(classical, "_normalised", lambda t: calls.append(t) or normalised(t))
        h, text = self.canonical(7400)
        assert parse_pcm_text(text) == h and calls == []
        assert parse_pcm_text(text.replace("\n", "\r\n")) == h and len(calls) == 1

    def test_huge_header_over_one_row_is_refused_at_once(self):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as refused:
                parse_pcm_text("1 999999999999999\n0 1 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "line 2: expected 999999999999999 entries of 0/1"
        assert peak < 2**16  # nothing the header's size was built


class TestLargePcm:
    """One seeded 400 x 1000 file, read whole by the parser and line by line by the oracle.

    The short files above stop at 9 rows, so a check that names the wrong
    row of a long file would pass them; these corruptions land on every
    part of the file.
    """

    @pytest.fixture(scope="class")
    def large(self):
        dense = np.random.default_rng(8101).random((400, 1000)) < 0.3
        h = from_dense(dense)
        return h, emit_pcm_text(h)

    @staticmethod
    def variants(text: str, rng: random.Random) -> dict[str, str]:
        head, *rows = text.splitlines()

        def spaced(row: str) -> str:
            return rng.choice(["\t", "   ", " \t "]).join(row.split(" "))

        def blanks() -> str:
            return "".join(rng.choice(["", "  ", "\t \t"]) + "\n" for _ in range(rng.randint(0, 2)))

        def with_separator(k: int, sep: str) -> str:
            entries = rows[k].split(" ")
            return " ".join(entries[:500]) + sep + " ".join(entries[500:])

        breaks = ["\n", "\r\n", "\r", "\x0b", "\x1e", "\u2028"]
        return {
            "spacing": head + "\n" + "".join(blanks() + spaced(r) + "\n" for r in rows),
            "breaks": "".join(ln + rng.choice(breaks) for ln in [head, *rows])
                      + "1 1\nextra \xe9 rows after m\n0\n",
            # a no-break space between entries of row 390, a line separator after row 394
            "late unicode": "\n".join([head, *rows[:390], with_separator(390, "\xa0"),
                                       *rows[391:395]]) + "\u2028" + "\n".join(rows[395:]),
            # bad rows near the end, which a check over the first rows would miss
            "late split": "\n".join([head, *rows[:398], with_separator(398, "\u2028"),
                                     *rows[399:]]),
            "late glued entries": "\n".join([head, *rows[:397], rows[397].replace(" ", "", 1),
                                             *rows[398:]]),
            "late long row": "\n".join([head, *rows[:396], rows[396] + " 1", *rows[397:]]),
            "late short row": "\n".join([head, *rows[:399], rows[399][2:]]),
        }

    def test_layout_variants_match_oracle(self, large):
        h, text = large
        got = {}
        for name, variant in self.variants(text, random.Random(8103)).items():
            got[name] = outcome(parse_pcm_text, variant)
            assert got[name] == outcome(oracle_parse_pcm_text, variant), name
        for name, line in (("late split", 400), ("late glued entries", 399),
                           ("late long row", 398), ("late short row", 401)):
            assert got.pop(name) == ("error", line, f"line {line}: expected 1000 entries of 0/1")
        assert set(got.values()) == {("matrix", h)}

    def test_mutations_match_oracle(self, large):
        h, text = large
        rng = random.Random(8107)
        spacing = self.variants(text, random.Random(8109))["spacing"]
        bad_lines = []
        for source, count in ((text, 24), (spacing, 6)):
            while count:
                bad = mutate(rng, source)
                if negative_pcm_header(bad):
                    continue
                want = outcome(oracle_parse_pcm_text, bad)
                assert outcome(parse_pcm_text, bad) == want, want
                bad_lines += [want[1]] if want[0] == "error" else []
                count -= 1
        # the corruptions reach both ends of the file
        assert min(bad_lines) < 100 and max(bad_lines) > 300, bad_lines


class TestLargeAlist:
    """One seeded 400 x 1000 alist, read whole by the parser and line by line by the oracle.

    Lines 5-1004 hold the column lists and lines 1005-1404 the row lists,
    so a check that names the wrong list of a long file, or looks only at
    its first lists, fails here.
    """

    @pytest.fixture(scope="class")
    def large(self):
        dense = np.random.default_rng(8201).random((400, 1000)) < 0.01
        h = from_dense(dense)
        return h, emit_alist(h)

    @staticmethod
    def variants(h: BitMatrix, text: str, rng: random.Random) -> dict[str, str]:
        lines = text.split("\n")
        dense = h.to_dense()

        def edit(at: int, word: int, new: str) -> str:
            """The text with word `word` of line index `at` replaced."""
            words = lines[at].split(" ")
            words[word] = new
            return "\n".join([*lines[:at], " ".join(words), *lines[at + 1:]])

        def mixed(sep: str) -> str:
            return "".join(ln + (sep if rng.random() < 0.3 else "\n") for ln in lines[:-1])

        last = lines[1403].split(" ")
        absent = next(b for b in range(1, 1001) if not dense[399, b - 1])
        value, under = last[0], lines[1401].split(" ")[0]
        # the first column of two checks names its first twice; the last row below the
        # largest degree leaves out its first bit, its degree one less
        twice = next(j for j in range(1000) if lines[4 + j].split(" ")[1] != "0")
        row_deg = list(map(int, lines[3].split(" ")))
        short = max(i for i in range(400) if 0 < row_deg[i] < max(row_deg))
        omitted = edit(3, short, str(row_deg[short] - 1)).split("\n")
        omitted[1004 + short] = "0" + omitted[1004 + short][len(lines[1004 + short].split(" ")[0]):]
        return {
            # files that read back, in spellings a line-by-line reader accepts
            "crlf": text.replace("\n", "\r\n"),
            "line separators": mixed("\u2028"),
            "next lines and form feeds": mixed(rng.choice(["\x85", "\x0c"])),
            "no-break spaces": text.replace(" ", "\xa0", 700),
            "late no-break spaces": "\n".join([*lines[:1300], *(ln.replace(" ", " \xa0")
                                                                for ln in lines[1300:])]),
            "blank lines": "\n".join(ln + rng.choice(["", "", "\n", "\n \t"]) for ln in lines),
            "signed entry": edit(1403, 0, "+" + value),
            "underscored entry": edit(1401, 0, under[0] + "_" + under[1:]),
            "leading zeros past int64": edit(1402, 0, "0" * 30 + lines[1402].split(" ")[0]),
            "arabic-indic digit": edit(2, 0, chr(0x660 + int(lines[2].split(" ")[0]))),
            "lines after the lists": text + "extra 1 2\n\xe9\n",
            # refused files, near the start and near the end
            "early bad token": edit(4, 0, "x1"),
            "late bad token": edit(1403, 0, "1.0"),
            "early check out of range": edit(5, 0, "401"),
            "late bit out of range": edit(1402, 0, "1001"),
            "late negative bit": edit(1401, 0, "-3"),
            "late token past int64": edit(1403, 0, "9" * 25),
            "late absent bit": edit(1403, 0, str(absent)),
            "early check twice": edit(4 + twice, 1, lines[4 + twice].split(" ")[0]),
            "late omitted bit": "\n".join(omitted),
            "early degree": edit(2, 1, str(int(lines[2].split(" ")[1]) + 1)),
            "late degree": edit(3, 399, str(int(lines[3].split(" ")[399]) + 1)),
            "late list short": edit(1403, 0, "0"),
            "missing last list": "\n".join(lines[:1403]) + "\n",
            "maximum degrees": edit(1, 0, str(int(lines[1].split(" ")[0]) + 1)),
            "header token": edit(0, 1, "4OO"),
        }

    def test_variants_match_oracle(self, large):
        h, text = large
        got = {}
        for name, variant in self.variants(h, text, random.Random(8203)).items():
            got[name] = outcome(parse_alist, variant)
            assert got[name] == outcome(oracle_parse_alist, variant), name
        for name, line in (("early bad token", 5), ("late bad token", 1404),
                           ("early check out of range", 6), ("late bit out of range", 1403),
                           ("late negative bit", 1402), ("late token past int64", 1404),
                           ("late absent bit", 1404), ("late list short", 1404)):
            assert got.pop(name)[:2] == ("error", line), name
        # a column list among lines 5-1004, and a row list among lines 1005-1404
        _, line, message = got.pop("early check twice")
        assert line <= 1004 and message.endswith("listed twice"), message
        _, line, message = got.pop("late omitted bit")
        assert line > 1300 and message.endswith("given by the column lists"), message
        for name in ("early degree", "late degree", "missing last list", "maximum degrees",
                     "header token"):
            assert got.pop(name)[0] == "error", name
        assert set(got.values()) == {("matrix", h)}, [k for k, v in got.items() if v != ("matrix", h)]

    def test_mutations_match_oracle(self, large):
        h, text = large
        rng = random.Random(8207)
        spaced = self.variants(h, text, random.Random(8209))["blank lines"]
        bad_lines = []
        for source, count in ((text, 30), (spaced, 8)):
            for _ in range(count):
                bad = mutate(rng, source)
                want = outcome(oracle_parse_alist, bad)
                assert outcome(parse_alist, bad) == want, want
                bad_lines += [want[1]] if want[0] == "error" and want[1] else []
        # most corruptions are refused at a numbered line, from the first third to the last
        assert len(bad_lines) >= 20 and min(bad_lines) < 400 and max(bad_lines) > 1000, bad_lines
