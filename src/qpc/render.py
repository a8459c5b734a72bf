"""Render coordinate tables as JSON, SVG, TikZ or DOT documents.

JSON (schema "qpc-layout/1") is the normative format: it lists every
vertex with role, index and coordinate, plus optional edges and Pauli
overlays, and round-trips byte-identically.  The drawing formats are
derived views drawn by one loop, `_draw`, with one glyph convention
throughout: qubits are circles, X checks filled squares, Z checks open
squares, and operator overlays colour qubits red (Z), green (Y) or blue
(X).  Each drawing format is data in `_FORMATS`: its opening and closing
lines and the templates of an edge and of each glyph.

A `RenderSpec` holds the svg scale, whether edges are drawn, and the
oblique projection (x, y, z) -> (x + x_shear * y, z + y_scale * y) that
flattens 3D tables; 2D tables are drawn as they are and ignore it.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import NamedTuple

from .errors import FormatError, PreconditionError, load_object, typed_list

SCHEMA_VERSION = "qpc-layout/1"
PAULI_COLORS = {"Z": "red", "Y": "green", "X": "blue"}
ROLE_ORDER = ("x", "z", "q1", "q2")
# A graph file names its part sizes without listing the vertices: a line layout is capped.
MAX_LINE_LAYOUT_VERTICES = 2**20


class CoordinateTable:
    """One coordinate per X check, Z check and qubit (Q1/Q2 blocks).

    2D tables hold (x, y) pairs, 3D tables (x, y, z) triples.  The four
    families never collide; that is validated at construction.  `edges`
    optionally lists (check, qubit) incidences with block-local indices;
    it may be given as a zero-argument function, called on first read.
    """

    def __init__(self, kind: str, x_checks: tuple, z_checks: tuple, qubits_q1: tuple,
                 qubits_q2: tuple, edges=()):
        self.kind = kind
        self.x_checks = x_checks
        self.z_checks = z_checks
        self.qubits_q1 = qubits_q1
        self.qubits_q2 = qubits_q2
        self._edges = edges
        if self.kind not in ("2d", "3d"):
            raise PreconditionError(f"unknown layout kind {self.kind!r}")
        width = 2 if self.kind == "2d" else 3
        # one set of widths and one of coordinates; only a refusal walks vertex by vertex
        coords = list(chain.from_iterable(self.families().values()))
        if set(map(len, coords)) - {width} or len(set(coords)) != len(coords):
            self._refuse(width)

    def _refuse(self, width: int):
        """Name the first vertex, in family order, whose width is wrong or that clashes."""
        seen = {}
        for role, coords in self.families().items():
            for idx, coord in enumerate(coords):
                if len(coord) != width:
                    raise PreconditionError(
                        f"{role}[{idx}] has {len(coord)} components, expected {width}")
                if coord in seen:
                    raise PreconditionError(
                        f"coordinate clash: {role}[{idx}] and {seen[coord]} at {coord}")
                seen[coord] = f"{role}[{idx}]"

    @property
    def edges(self) -> tuple:
        if callable(self._edges):
            self._edges = self._edges()
        return self._edges

    def families(self) -> dict:
        return dict(zip(ROLE_ORDER, (self.x_checks, self.z_checks, self.qubits_q1, self.qubits_q2)))


class RenderSpec(NamedTuple):
    """How to draw: the svg scale, whether to draw edges, and the oblique
    flattening (x, y, z) -> (x + x_shear*y, z + y_scale*y) of a 3D table.

    The defaults 9/20 and 3/10 keep integer lattice points distinct
    until the y extent reaches 20, so desk-scale 3D layouts never get
    coincident glyph centres.
    """

    scale: float = 12.0
    include_edges: bool = False
    x_shear: float = 0.45
    y_scale: float = 0.3


class OperatorOverlay(NamedTuple):
    """Pauli letters on (global) qubit indices, as (qubit, letter) pairs."""

    paulis: tuple = ()

    def validate(self, n_qubits: int) -> None:
        for idx, letter in self.paulis:
            if not 0 <= idx < n_qubits:
                raise PreconditionError(f"overlay index {idx} out of range [0, {n_qubits})")
            if letter not in PAULI_COLORS:
                raise PreconditionError(f"unknown Pauli letter {letter!r}")


def emit(table: CoordinateTable, spec: RenderSpec, overlays, fmt: str) -> str:
    """Serialise a layout; identical inputs give identical bytes."""
    overlays = tuple(overlays)
    n_qubits = len(table.qubits_q1) + len(table.qubits_q2)
    for overlay in overlays:
        overlay.validate(n_qubits)
    if fmt == "json":
        return _emit_json(table, spec, overlays)
    if fmt in _FORMATS:
        return _draw(table, spec, overlays, _FORMATS[fmt])
    raise FormatError(f"unknown output format {fmt!r}")


def _emit_json(table: CoordinateTable, spec: RenderSpec, overlays) -> str:
    import json

    vertices = [{"role": role, "index": idx, "coord": [int(c) for c in coord]}
                for role, coords in table.families().items() for idx, coord in enumerate(coords)]
    payload = {"version": SCHEMA_VERSION, "kind": table.kind, "vertices": vertices}
    if spec.include_edges and table.edges:
        payload["edges"] = [[list(a), list(b)] for a, b in table.edges]
    if overlays:
        payload["overlays"] = [{"paulis": [list(p) for p in ov.paulis]} for ov in overlays]
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _overlay(data) -> OperatorOverlay:
    if type(data) is not dict or "paulis" not in data:
        raise FormatError("an overlay needs a 'paulis' list of [qubit, letter] pairs")
    pairs = typed_list(data, "paulis", list)
    for entry in pairs:
        if len(entry) != 2 or type(entry[0]) is not int or type(entry[1]) is not str:
            raise FormatError(f"overlay entry {entry!r} is not a [qubit, letter] pair")
    return OperatorOverlay(tuple(map(tuple, pairs)))


def parse_overlay(text: str) -> OperatorOverlay:
    """An overlay file: {"paulis": [[qubit, letter], ...]}."""
    return _overlay(load_object(text, "an overlay file"))


def parse_layout(text: str):
    """Inverse of the JSON emitter; returns (table, overlays)."""
    data = load_object(text, "a layout file")
    if data.get("version") != SCHEMA_VERSION:
        raise FormatError(f"unsupported layout version {data.get('version')!r}")
    if data.get("kind") not in ("2d", "3d"):
        raise FormatError(f"layout kind {data.get('kind')!r} is not '2d' or '3d'")
    families = {role: [] for role in ROLE_ORDER}
    for k, vertex in enumerate(typed_list(data, "vertices")):
        if type(vertex) is not dict or "role" not in vertex:
            raise FormatError(f"vertex {k} has no role")
        role = vertex["role"]
        rows = families.get(role) if type(role) is str else None
        if rows is None:
            raise FormatError(f"unknown vertex role {role!r}")
        index, coord = vertex.get("index"), vertex.get("coord")
        if type(index) is not int or type(coord) is not list:
            raise FormatError(f"vertex {k} needs an integer index and a coordinate list")
        rows.append((index, tuple(coord)))
    if {type(c) for rows in families.values() for _, coord in rows for c in coord} - {int}:
        raise FormatError("vertex coordinates must be integers")
    for role, rows in families.items():
        rows.sort()
        if [i for i, _ in rows] != list(range(len(rows))):
            raise FormatError(f"{role} indices are not contiguous from zero")
    edges = []
    for edge in typed_list(data, "edges"):
        ends = edge if isinstance(edge, list) and len(edge) == 2 else []
        if not ends or not all(
            isinstance(end, list) and len(end) == 2 and isinstance(end[0], str)
            and end[0] in families and type(end[1]) is int
            and 0 <= end[1] < len(families[end[0]])
            for end in ends
        ):
            raise FormatError(f"edge {edge!r} does not join two listed vertices")
        edges.append((tuple(ends[0]), tuple(ends[1])))
    coords = (tuple(c for _, c in rows) for rows in families.values())
    table = CoordinateTable(data["kind"], *coords, edges=tuple(edges))
    overlays = tuple(_overlay(ov) for ov in typed_list(data, "overlays"))
    return table, overlays


def line_layout_table(graph) -> CoordinateTable:
    """Classical 1D arrangement of a Tanner graph: checks first, then bits.

    Checks render as X-check glyphs and bits as qubits, so a plain
    classical code can go through the same emitters as a product code.
    """
    from .tanner import TannerGraph

    if not isinstance(graph, TannerGraph):
        raise PreconditionError("line layout needs a Tanner graph")
    if (vertices := graph.check_count + graph.bit_count) > MAX_LINE_LAYOUT_VERTICES:
        raise PreconditionError(
            f"line layout of {vertices} vertices exceeds the limit {MAX_LINE_LAYOUT_VERTICES}")
    edges = tuple((("x", c), ("q1", b)) for c, b in sorted(graph.edges))
    return line_table(graph.check_count, 0, graph.bit_count, edges)


def line_table(x_count: int, z_count: int, bit_count: int, edges) -> CoordinateTable:
    """The line rule: X checks, then Z checks, then bits (all Q1) at x = 0, 1, ... on y = 0."""
    line = [(i, 0) for i in range(x_count + z_count + bit_count)]
    bits = x_count + z_count
    return CoordinateTable("2d", tuple(line[:x_count]), tuple(line[x_count:bits]),
                           tuple(line[bits:]), (), edges)


class _Format(NamedTuple):
    """A drawing format as data: its opening and closing lines and its templates.

    `x`, `z` and `qubit` are (template, columns) glyphs; a template is filled by
    one %-format from the columns it names, the edge's from the `ends` columns
    of both its ends, or from their (role, index) when `ends` is empty.
    Columns: x, y the drawn centre; x-, y-, x+, y+ a check square's corners,
    h, w its half side and side; i the index; role; c a qubit's colour,
    `paint[0]` filled with an overlay colour, else `paint[1]`.  A `placed`
    format is scaled, flipped and offset to a box with a margin.
    """

    head: str
    edge: str
    ends: str
    x: tuple
    z: tuple
    qubit: tuple
    tail: str
    paint: tuple = ("%s", "black")
    placed: bool = False
    edges_last: bool = False


_RECT = '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill='
_FORMATS = {
    "svg": _Format(
        head='<svg xmlns="http://www.w3.org/2000/svg" width="%.1f" height="%.1f"'
             ' viewBox="0 0 %.1f %.1f">',
        edge='<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="gray" stroke-width="0.5"/>',
        ends="x y",
        x=(_RECT + '"black"><title>x%d</title></rect>', "x- y- w w i"),
        z=(_RECT + '"white" stroke="black"><title>z%d</title></rect>', "x- y- w w i"),
        qubit=('<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s"><title>%s[%d]</title></circle>',
               "x y h c role i"),
        tail="</svg>",
        placed=True,
    ),
    "tikz": _Format(
        head="\\documentclass[tikz]{standalone}\n\\begin{document}\n"
             "\\begin{tikzpicture}[scale=0.8]",
        edge="\\draw[gray] (%.2f,%.2f) -- (%.2f,%.2f);",
        ends="x y",
        x=("\\filldraw (%.2f,%.2f) rectangle (%.2f,%.2f);", "x- y- x+ y+"),
        z=("\\draw (%.2f,%.2f) rectangle (%.2f,%.2f);", "x- y- x+ y+"),
        qubit=("\\filldraw%s (%.2f,%.2f) circle (3pt);", "c x y"),
        tail="\\end{tikzpicture}\n\\end{document}",
        paint=("[%s]", ""),
    ),
    "dot": _Format(
        head="graph layout {",
        edge='  "%s%d" -- "%s%d";',
        ends="",
        x=('  "x%d" [shape=box style=filled pos="%.2f,%.2f!"];', "i x y"),
        z=('  "z%d" [shape=square style=solid pos="%.2f,%.2f!"];', "i x y"),
        qubit=('  "%s%d" [shape=circle style=solid pos="%.2f,%.2f!"%s];', "role i x y c"),
        tail="}",
        paint=(" color=%s", ""),
        edges_last=True,
    ),
}


def _draw(table: CoordinateTable, spec: RenderSpec, overlays, fmt: _Format) -> str:
    """One drawing loop: project once, then fill the format's templates."""
    bent, families = [], table.families()              # the options that bend each axis (3D)
    every = chain.from_iterable(chain.from_iterable(families.values()))
    if max(map(abs, every), default=0) > 2**53:        # a float holds each integer up to 2^53
        role, idx = next((role, idx) for role, coords in families.items()
                         for idx, c in enumerate(coords) if max(map(abs, c)) > 2**53)
        raise FormatError(f"vertex {role}[{idx}] has a coordinate too large to draw")
    if table.kind == "2d":
        points = {role: ([float(c[0]) for c in coords], [float(c[1]) for c in coords])
                  for role, coords in families.items()}
    else:
        shear, lift = spec.x_shear, spec.y_scale
        points = {role: ([float(x) + shear * float(y) for x, y, _ in coords],
                         [float(z) + lift * float(y) for _, y, z in coords])
                  for role, coords in families.items()}
        bent = [f"--shear {shear:g}", f"--yscale {lift:g}"]
        for axis, option in enumerate(bent):
            if not all(math.isfinite(v) for p in points.values() for v in p[axis]):
                raise FormatError(f"{option} makes a drawn coordinate infinite")
    head, half = fmt.head, 0.1
    if fmt.placed:
        scale = spec.scale
        every_x = [x for xs, _ in points.values() for x in xs] or [0.0]
        every_y = [y for _, ys in points.values() for y in ys] or [0.0]
        x0, y1 = min(every_x), max(every_y)
        width = (max(every_x) - x0) * scale + 2 * scale
        height = (y1 - min(every_y)) * scale + 2 * scale
        for axis, size in enumerate((width, height)):      # a finite size bounds every point
            if not math.isfinite(size):
                options = " with ".join([f"--scale {scale:g}", *bent[axis:axis + 1]])
                side = ("width", "height")[axis]
                raise FormatError(f"{options} makes the drawing's {side} infinite")
        head %= (width, height, width, height)
        points = {role: ([(x - x0) * scale + scale for x in xs],
                         [(y1 - y) * scale + scale for y in ys])
                  for role, (xs, ys) in points.items()}
        half = scale * 0.22
    painted = {qubit: fmt.paint[0] % PAULI_COLORS[letter]
               for overlay in overlays for qubit, letter in overlay.paulis}
    offsets = {"q1": 0, "q2": len(table.qubits_q1)}

    def rows(role: str, names: str):
        xs, ys = points[role]
        columns = {
            "x": lambda: xs, "y": lambda: ys,
            "x-": lambda: [x - half for x in xs], "y-": lambda: [y - half for y in ys],
            "x+": lambda: [x + half for x in xs], "y+": lambda: [y + half for y in ys],
            "h": lambda: repeat(half), "w": lambda: repeat(2 * half),
            "i": lambda: range(len(xs)), "role": lambda: repeat(role),
            "c": lambda: [painted.get(offsets[role] + i, fmt.paint[1]) for i in range(len(xs))],
        }
        return zip(*[columns[name]() for name in names.split()])

    glyphs = [template % row
              for role, (template, names) in zip(ROLE_ORDER, (fmt.x, fmt.z, fmt.qubit, fmt.qubit))
              for row in rows(role, names)]
    edges = table.edges if spec.include_edges else ()
    if fmt.ends and edges:
        ends = {role: list(rows(role, fmt.ends)) for role in ROLE_ORDER}
        edges = [fmt.edge % (ends[a][i] + ends[b][j]) for (a, i), (b, j) in edges]
    else:  # an edge end named by its (role, index)
        edges = [fmt.edge % (a + b) for a, b in edges]
    body = glyphs + edges if fmt.edges_last else edges + glyphs
    return "\n".join([head, *body, fmt.tail]) + "\n"
