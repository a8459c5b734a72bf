"""Seeded inputs, reference answers and output checks for the qpc benchmark.

Nothing here imports qpc: inputs are written with numpy and plain text
writers, references come from closed forms, numpy Kronecker formulas and
a small pure-Python GF(2) rank, and outputs are read back with this
module's own readers.  So neither the inputs nor the verdicts depend on
the code under test.

`build(name, seed, workdir)` writes one workload's inputs and returns a
`Plan`: the qpc command sequence, each command with its expected exit
code and a checker, plus the corruptions the self-check applies to show
that every checker can fail.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("hgp_large", "distance", "lift_bp")


@dataclass
class Outcome:
    exit_code: int
    stdout: str


@dataclass
class Command:
    kind: str                                   # construct | analyze | verify | layout
    args: list[str]                             # qpc CLI arguments
    check: Callable[[Outcome], list[str]]       # problems found; empty when correct
    decides: bool = False                       # analyze run expected to return an exact d


@dataclass
class Corruption:
    """One deliberately wrong output that the command's checker must reject."""

    label: str
    index: int                                  # command whose outcome is corrupted
    exit_code: int | None = None
    stdout: tuple[str, str] | None = None       # (line, replacement)
    flip: Path | None = None                    # .pcm file with one entry flipped


@dataclass
class Plan:
    commands: list[Command]
    corruptions: list[Corruption]


# -- GF(2) references ---------------------------------------------------------


def cyclic_repetition(length: int) -> np.ndarray:
    h = np.zeros((length, length), dtype=np.uint8)
    idx = np.arange(length)
    h[idx, idx] = 1
    h[idx, (idx + 1) % length] = 1
    return h


def open_repetition(length: int) -> np.ndarray:
    h = np.zeros((length - 1, length), dtype=np.uint8)
    idx = np.arange(length - 1)
    h[idx, idx] = 1
    h[idx, idx + 1] = 1
    return h


def relabel(h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded row and column permutation: the same code, other labels."""
    return h[rng.permutation(h.shape[0])][:, rng.permutation(h.shape[1])]


def hgp_matrices(h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H_X = (H1 x I | I x H2^T), H_Z = (I x H2 | H1^T x I)."""
    (m1, n1), (m2, n2) = h1.shape, h2.shape
    eye = lambda k: np.eye(k, dtype=np.uint8)  # noqa: E731
    h_x = np.concatenate([np.kron(h1, eye(n2)), np.kron(eye(m1), h2.T)], axis=1)
    h_z = np.concatenate([np.kron(eye(n1), h2), np.kron(h1.T, eye(m2))], axis=1)
    return h_x, h_z


def gf2_rank(h: np.ndarray) -> int:
    """Rank over GF(2) by elimination on Python-int rows."""
    pivots: dict[int, int] = {}
    for row in h:
        vec = int.from_bytes(np.packbits(row).tobytes(), "big")
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = vec
                break
            vec ^= pivots[top]
    return len(pivots)


def gf2_commute(h_x: np.ndarray, h_z: np.ndarray) -> bool:
    # float64 products of 0/1 entries are exact integers far beyond these sizes
    return not ((h_x.astype(np.float64) @ h_z.T.astype(np.float64)) % 2).any()


# -- ring matrices over Z_l (lifted and balanced products) ---------------------


def ring_matrix(rng: np.random.Generator, rows: int, cols: int, order: int):
    """Entries x^a + x^b with distinct exponents; each entry is a tuple of exponents."""
    return [
        [tuple(sorted(rng.choice(order, 2, replace=False).tolist())) for _ in range(cols)]
        for _ in range(rows)
    ]


def _circulant(exponents, order: int) -> np.ndarray:
    """Left regular representation: column q of x^a has its one in row a + q."""
    block = np.zeros((order, order), dtype=np.uint8)
    q = np.arange(order)
    for a in exponents:
        block[(a + q) % order, q] ^= 1
    return block


def expand(ring, order: int) -> np.ndarray:
    return np.block([[_circulant(e, order) for e in row] for row in ring])


def lifted_product_matrices(m1, m2, order: int) -> tuple[np.ndarray, np.ndarray]:
    """H_X = (M1 x I | I x M2*), H_Z = (I x M2 | M1* x I), expanded to binary."""
    star = lambda m: [  # noqa: E731  conjugate transpose: transpose, invert exponents
        [tuple(sorted((-a) % order for a in m[i][j])) for i in range(len(m))]
        for j in range(len(m[0]))
    ]

    def kron_ring(left_rows, m, right):
        # I_left x m x I_right over the ring
        rows, cols = len(m), len(m[0])
        out = [[() for _ in range(left_rows * cols * right)]
               for _ in range(left_rows * rows * right)]
        for p in range(left_rows):
            for i in range(rows):
                for j in range(cols):
                    for s in range(right):
                        out[(p * rows + i) * right + s][(p * cols + j) * right + s] = m[i][j]
        return out

    r1, c1, r2, c2 = len(m1), len(m1[0]), len(m2), len(m2[0])
    h_x = np.concatenate([expand(kron_ring(1, m1, c2), order),
                          expand(kron_ring(r1, star(m2), 1), order)], axis=1)
    h_z = np.concatenate([expand(kron_ring(c1, m2, 1), order),
                          expand(kron_ring(1, star(m1), r2), order)], axis=1)
    return h_x, h_z


# -- text writers --------------------------------------------------------------


def pcm_text(h: np.ndarray) -> str:
    m, n = h.shape
    body = np.full((m, 2 * n), ord(" "), dtype=np.uint8)
    body[:, 0::2] = h + ord("0")
    body[:, -1] = ord("\n")
    return f"{m} {n}\n" + body.tobytes().decode()


def alist_text(h: np.ndarray) -> str:
    m, n = h.shape
    row_of, col_in_row = np.nonzero(h)
    by_col = np.argsort(col_in_row, kind="stable")
    cols = np.split(row_of[by_col] + 1, np.cumsum(np.bincount(col_in_row, minlength=n))[:-1])
    rows = np.split(col_in_row + 1, np.cumsum(np.bincount(row_of, minlength=m))[:-1])
    lines = [
        f"{n} {m}",
        f"{max(map(len, cols))} {max(map(len, rows))}",
        " ".join(str(len(c)) for c in cols),
        " ".join(str(len(r)) for r in rows),
    ]
    lines += [" ".join(map(str, c)) for c in cols]
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def ring_text(m, order: int) -> str:
    term = lambda a: "1" if a == 0 else "x" if a == 1 else f"x^{a}"  # noqa: E731
    rows = [",".join("+".join(term(a) for a in e) for e in row) for row in m]
    return f"{len(m)} {len(m[0])} group=Z{order}\n" + "\n".join(rows) + "\n"


def tanner_edges(h: np.ndarray) -> list[tuple[int, int]]:
    return [(int(c), int(b)) for c, b in zip(*np.nonzero(h))]


def graph_text(checks: int, bits: int, edges) -> str:
    return f"checks {checks} bits {bits}\n" + "".join(f"c{c} b{b}\n" for c, b in edges)


def shift_action_json(checks: int, bits: int, order: int, shift: int) -> str:
    """Z_order acting on every block of `order` vertices by a cyclic slot shift."""
    perm = lambda k: [(v // order) * order + (v % order + shift) % order  # noqa: E731
                      for v in range(k)]
    return json.dumps({"group": f"Z{order}",
                       "generators": [{"check_perm": perm(checks), "bit_perm": perm(bits)}]})


# -- readers -------------------------------------------------------------------


def read_pcm(path: Path) -> np.ndarray:
    """Plain PCM: header "m n", then m rows of n entries 0/1 separated by whitespace."""
    raw = path.read_bytes()
    head, _, body = raw.partition(b"\n")
    m, n = (int(t) for t in head.split())
    buf = np.frombuffer(body, dtype=np.uint8)
    digit = (buf == ord("0")) | (buf == ord("1"))
    space = (buf == ord(" ")) | (buf == ord("\n"))
    if not (digit | space).all():
        raise ValueError(f"{path.name}: bytes other than 0, 1 and whitespace")
    entries = buf[digit] - ord("0")
    if entries.size != m * n or np.count_nonzero(buf == ord("\n")) != m:
        raise ValueError(f"{path.name}: expected {m} rows of {n} entries")
    return entries.reshape(m, n)


def read_alist(path: Path) -> np.ndarray:
    lines = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
    n, m = int(lines[0][0]), int(lines[0][1])
    col_deg = [int(t) for t in lines[2]]
    row_deg = [int(t) for t in lines[3]]
    col_lists = lines[4:4 + n]
    row_lists = lines[4 + n:4 + n + m]
    h = np.zeros((m, n), dtype=np.uint8)
    for j, entries in enumerate(col_lists):
        live = [int(t) for t in entries if t != "0"]
        if len(live) != col_deg[j]:
            raise ValueError(f"{path.name}: column {j} degree mismatch")
        h[np.array(live, dtype=np.int64) - 1, j] = 1
    for i, entries in enumerate(row_lists):
        live = sorted(int(t) - 1 for t in entries if t != "0")
        if len(live) != row_deg[i] or live != np.nonzero(h[i])[0].tolist():
            raise ValueError(f"{path.name}: row {i} disagrees with the column lists")
    return h


def report(stdout: str) -> dict[str, str]:
    """The CLI's `key: value` report lines."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


# -- checks --------------------------------------------------------------------


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _files_equal(problems, path: Path, want: np.ndarray, reader) -> None:
    try:
        got = reader(path)
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return
    if got.shape != want.shape or not np.array_equal(got, want):
        problems.append(f"{path.name}: matrix differs from the reference")


def check_construct(prefix: Path, h_x: np.ndarray, h_z: np.ndarray, kind: str,
                    layout_kind: str):
    n, m_x, m_z = h_x.shape[1], h_x.shape[0], h_z.shape[0]

    def check(out: Outcome) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit", out.exit_code, 0)
        rep = report(out.stdout)
        for key, want in (("kind", kind), ("n", str(n)), ("m_x", str(m_x)),
                          ("m_z", str(m_z)), ("commuting", "True")):
            _expect(problems, key, rep.get(key), want)
        for name, h in (("hx", h_x), ("hz", h_z)):
            _files_equal(problems, prefix.with_name(f"{prefix.name}.{name}.pcm"), h, read_pcm)
            _files_equal(problems, prefix.with_name(f"{prefix.name}.{name}.alist"), h, read_alist)
        try:
            layout = json.loads(prefix.with_name(f"{prefix.name}.layout.json").read_text())
            roles = [v["role"] for v in layout["vertices"]]
            _expect(problems, "layout kind", layout["kind"], layout_kind)
            _expect(problems, "layout vertices", len(roles), n + m_x + m_z)
            _expect(problems, "layout checks", (roles.count("x"), roles.count("z")), (m_x, m_z))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"layout: unreadable ({exc})")
        return problems

    return check


def check_report(expect: dict[str, str], exit_code: int, refused: bool = False):
    """Exit code and `key: value` lines of an analyze or verify report."""

    def check(out: Outcome) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit", out.exit_code, exit_code)
        rep = report(out.stdout)
        for key, want in expect.items():
            _expect(problems, key, rep.get(key), want)
        if refused and not rep.get("d", "").startswith("budget exceeded"):
            problems.append(f"d: got {rep.get('d')!r}, want a budget refusal")
        return problems

    return check


def check_layout(path: Path, fmt: str, checks: int, qubits: int, edges: int = 0):
    """Glyph counts: one per check and qubit vertex, one line per drawn edge."""

    def check(out: Outcome) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit", out.exit_code, 0)
        _expect(problems, "stdout", out.stdout.strip(), f"wrote: {path}")
        try:
            text = path.read_text()
        except OSError as exc:
            return problems + [f"{path.name}: unreadable ({exc})"]
        if fmt == "svg":
            try:
                ET.fromstring(text)
            except ET.ParseError as exc:
                problems.append(f"{path.name}: not well-formed ({exc})")
            got = (text.count("<rect "), text.count("<circle "), text.count("<line "))
        elif fmt == "tikz":
            got = (text.count(" rectangle "), text.count(" circle (3pt)"),
                   text.count(") -- ("))
            if not text.rstrip().endswith("\\end{document}"):
                problems.append(f"{path.name}: truncated")
        else:
            got = (text.count("shape=box") + text.count("shape=square"),
                   text.count("shape=circle"), text.count('" -- "'))
            if not text.rstrip().endswith("}"):
                problems.append(f"{path.name}: truncated")
        _expect(problems, f"{fmt} glyphs (checks, qubits, edges)", got, (checks, qubits, edges))
        return problems

    return check


# -- workloads -----------------------------------------------------------------

HGP_CONSTRUCT_L = 40      # n = 3200: two 10 MB .pcm files
HGP_ANALYZE_L = 64        # n = 8192: dense GF(2) ranks, then a budget refusal
HGP_ANALYZE_BUDGET = 1024

# (label, kind, L1, L2): closed forms for k, d_x, d_z; every kernel
# dimension is at most 22, so the default budget of 2^24 decides them.
DISTANCE_CODES = (
    ("toric_4x5", "toric", 4, 5),
    ("toric_3x7", "toric", 3, 7),
    ("planar_4x4", "planar", 4, 4),
    ("planar_5x5", "planar", 5, 5),
    ("planar_3x8", "planar", 3, 8),
)

LIFT_ORDER = 127          # Z127; 2x3 ring matrices give n = (3*3 + 2*2) * 127 = 1651
LIFT_SHAPE = (2, 3)


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _build_hgp_large(rng: np.random.Generator, work: Path) -> Plan:
    h1 = relabel(cyclic_repetition(HGP_CONSTRUCT_L), rng)
    h2 = relabel(cyclic_repetition(HGP_CONSTRUCT_L), rng)
    c1 = _write(work / "c1.pcm", pcm_text(h1))
    c2 = _write(work / "c2.pcm", pcm_text(h2))
    h_x, h_z = hgp_matrices(h1, h2)
    big_x, big_z = hgp_matrices(relabel(cyclic_repetition(HGP_ANALYZE_L), rng),
                                relabel(cyclic_repetition(HGP_ANALYZE_L), rng))
    ax = _write(work / "big.hx.alist", alist_text(big_x))
    az = _write(work / "big.hz.alist", alist_text(big_z))
    prefix = work / "out" / "toric"
    layout = prefix.with_name("toric.layout.json")
    n, checks = h_x.shape[1], h_x.shape[0] + h_z.shape[0]
    commands = [
        Command("construct", ["construct", "hgp", "--c1", str(c1), "--c2", str(c2),
                              "--out-prefix", str(prefix)],
                check_construct(prefix, h_x, h_z, "hgp", "2d")),
        Command("analyze", ["analyze", "--hx", str(ax), "--hz", str(az),
                            "--budget", str(HGP_ANALYZE_BUDGET)],
                check_report({"n": str(big_x.shape[1]), "commuting": "True", "k": "2"},
                              exit_code=3, refused=True)),
    ]
    for fmt, suffix in (("svg", "svg"), ("tikz", "tex"), ("dot", "dot")):
        out = prefix.with_name(f"toric.{suffix}")
        commands.append(Command("layout", ["layout", "--input", str(layout), "--format", fmt,
                                           "--out", str(out)],
                                check_layout(out, fmt, checks, n)))
    corruptions = [
        Corruption("flipped H_X entry", 0, flip=prefix.with_name("toric.hx.pcm")),
        Corruption("wrong k", 1, stdout=("k: 2", "k: 3")),
        Corruption("wrong exit code", 1, exit_code=0),
        Corruption("wrong exit code", 2, exit_code=1),
    ]
    return Plan(commands, corruptions)


def _build_distance(rng: np.random.Generator, work: Path) -> Plan:
    commands = []
    for label, kind, l1, l2 in DISTANCE_CODES:
        base = cyclic_repetition if kind == "toric" else open_repetition
        h1, h2 = relabel(base(l1), rng), relabel(base(l2), rng)
        h_x, h_z = hgp_matrices(h1, h2)
        n = h_x.shape[1]
        files = {name: _write(work / f"{label}.{name}.pcm", pcm_text(h))
                 for name, h in (("c1", h1), ("c2", h2), ("hx", h_x), ("hz", h_z))}
        k = 2 if kind == "toric" else 1
        # Z logicals run along the first factor, X logicals along the second.
        d_z, d_x = (min(l1, l2), min(l1, l2)) if kind == "toric" else (l1, l2)
        d = min(d_x, d_z)
        expect = {"n": str(n), "commuting": "True", "k": str(k), "d_x": str(d_x),
                  "d_z": str(d_z), "d": str(d), "params": f"[[{n},{k},{d}]]",
                  "hgp_k_formula": str(k), "hgp_k_matches": "True",
                  "hgp_distance_bound": str(min(l1, l2))}
        commands.append(Command(
            "analyze",
            ["analyze", "--hx", str(files["hx"]), "--hz", str(files["hz"]),
             "--c1", str(files["c1"]), "--c2", str(files["c2"])],
            check_report(expect, exit_code=0), decides=True))
    corruptions = [
        Corruption("wrong d", 0, stdout=("d: 4", "d: 5")),
        Corruption("wrong d_x", 2, stdout=("d_x: 4", "d_x: 3")),
        Corruption("wrong exit code", 3, exit_code=3),
    ]
    return Plan(commands, corruptions)


def _build_lift_bp(rng: np.random.Generator, work: Path) -> Plan:
    order, (rows, cols) = LIFT_ORDER, LIFT_SHAPE
    m1 = ring_matrix(rng, rows, cols, order)
    m2 = ring_matrix(rng, rows, cols, order)
    r1 = _write(work / "m1.ring", ring_text(m1, order))
    r2 = _write(work / "m2.ring", ring_text(m2, order))
    lift_a, lift_b = expand(m1, order), expand(m2, order)
    checks, bits = rows * order, cols * order
    ga = _write(work / "a.graph", graph_text(checks, bits, tanner_edges(lift_a)))
    gb = _write(work / "b.graph", graph_text(checks, bits, tanner_edges(lift_b)))
    # The first factor carries slot right-multiplication (stored as the left
    # action s -> s - 1), the second slot left-multiplication (s -> s + 1):
    # under these the balanced product equals the lifted product.
    act_a = _write(work / "a.action.json", shift_action_json(checks, bits, order, -1))
    act_b = _write(work / "b.action.json", shift_action_json(checks, bits, order, +1))
    base = [(i, j) for i in range(rows) for j in range(cols) for _ in m1[i][j]]
    base_a = _write(work / "a_base.graph", graph_text(rows, cols, base))
    cover = _write(work / "a_cover.json", json.dumps({
        "check_map": [c // order for c in range(checks)],
        "bit_map": [b // order for b in range(bits)]}))

    h_x, h_z = lifted_product_matrices(m1, m2, order)
    n = h_x.shape[1]
    if n != (cols * cols + rows * rows) * order or not gf2_commute(h_x, h_z):
        raise AssertionError("lifted-product reference is malformed")
    k = n - gf2_rank(h_x) - gf2_rank(h_z)
    lp, bp = work / "out" / "lp", work / "out" / "bp"
    check_lp = check_construct(lp, h_x, h_z, "lifted_product", "3d")
    check_bp_files = check_construct(bp, h_x, h_z, "balanced_product", "3d")

    def check_bp(out: Outcome) -> list[str]:
        problems = check_bp_files(out)
        for suffix in ("hx.pcm", "hz.pcm", "hx.alist", "hz.alist", "layout.json"):
            a, b = lp.with_name(f"lp.{suffix}"), bp.with_name(f"bp.{suffix}")
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                problems.append(f"LP and BP {suffix} are not byte-identical")
        return problems

    edges = len(base) * order
    vertices = n + h_x.shape[0] + h_z.shape[0]
    svg, tex, dot = (lp.with_name(f"lp.{s}") for s in ("svg", "tex", "dot"))
    graph_dot = lp.with_name("a_graph.dot")
    commands = [
        Command("construct", ["construct", "lp", "--m1", str(r1), "--m2", str(r2),
                              "--out-prefix", str(lp)], check_lp),
        Command("construct", ["construct", "bp", "--graph-a", str(ga), "--graph-b", str(gb),
                              "--action-a", str(act_a), "--action-b", str(act_b),
                              "--out-prefix", str(bp)], check_bp),
        Command("verify", ["verify", "action", "--graph", str(ga), "--action", str(act_a)],
                check_report({"valid": "True", "free": "True", "fixed_edge": "False",
                               "vertex_classes": str((checks + bits) // order),
                               "edge_classes": str(len(base))}, exit_code=0)),
        Command("verify", ["verify", "covering", "--cover", str(ga), "--base", str(base_a),
                           "--map", str(cover)],
                check_report({"valid": "True", "lift_size": str(order),
                               "violations": "[]"}, exit_code=0)),
        Command("analyze", ["analyze", "--hx", str(lp.with_name("lp.hx.pcm")),
                            "--hz", str(lp.with_name("lp.hz.pcm"))],
                check_report({"n": str(n), "commuting": "True", "k": str(k)},
                              exit_code=3, refused=True)),
        Command("layout", ["layout", "--input", str(lp.with_name("lp.layout.json")),
                           "--format", "svg", "--out", str(svg)],
                check_layout(svg, "svg", vertices - n, n)),
        Command("layout", ["layout", "--input", str(lp.with_name("lp.layout.json")),
                           "--format", "tikz", "--out", str(tex)],
                check_layout(tex, "tikz", vertices - n, n)),
        Command("layout", ["layout", "--graph", str(ga), "--format", "dot", "--edges",
                           "--out", str(graph_dot)],
                check_layout(graph_dot, "dot", checks, bits, edges)),
    ]
    corruptions = [
        Corruption("flipped BP H_X entry", 1, flip=bp.with_name("bp.hx.pcm")),
        Corruption("wrong lift size", 3, stdout=(f"lift_size: {order}", "lift_size: 1")),
        Corruption("wrong exit code", 4, exit_code=0),
    ]
    return Plan(commands, corruptions)


def build(name: str, seed: int, work: Path) -> Plan:
    """Write the inputs of workload `name` for `seed` under `work`."""
    writers = {"hgp_large": _build_hgp_large, "distance": _build_distance,
               "lift_bp": _build_lift_bp}
    (work / "out").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(name), seed])
    return writers[name](rng, work)


def corrupt(plan: Plan, c: Corruption, outcome: Outcome,
            rng: np.random.Generator) -> list[str]:
    """Apply one corruption, run the command's checker, undo it; return the problems."""
    bad = Outcome(outcome.exit_code if c.exit_code is None else c.exit_code, outcome.stdout)
    if c.stdout is not None:
        line, replacement = c.stdout
        lines = bad.stdout.splitlines()
        if line not in lines:
            return [f"self-check: {line!r} is not in the output to corrupt"]
        bad.stdout = "\n".join(replacement if ln == line else ln for ln in lines) + "\n"
    saved = c.flip.read_bytes() if c.flip is not None else None
    try:
        if saved is not None:
            buf = np.frombuffer(saved, dtype=np.uint8).copy()
            body = saved.index(b"\n") + 1
            digits = body + np.flatnonzero((buf[body:] == ord("0")) | (buf[body:] == ord("1")))
            buf[digits[rng.integers(digits.size)]] ^= ord("0") ^ ord("1")
            c.flip.write_bytes(buf.tobytes())
        return plan.commands[c.index].check(bad)
    finally:
        if saved is not None:
            c.flip.write_bytes(saved)
