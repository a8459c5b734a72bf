"""Render coordinate tables as JSON, SVG, TikZ or DOT documents.

JSON (schema "qpc-layout/1") is the normative format: it lists every
vertex with role, index and coordinate, plus optional edges and Pauli
overlays, and round-trips byte-identically.  The drawing formats are
derived views with one glyph convention throughout: qubits are circles,
X checks filled squares, Z checks open squares, and operator overlays
colour qubits red (Z), green (Y) or blue (X).

3D tables are flattened by an oblique projection
(x, y, z) -> (x + shear * y, z + y_scale * y); 2D tables must not carry
a projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
        seen = {}
        for role, coords in self.families().items():
            for idx, coord in enumerate(coords):
                if len(coord) != width:
                    raise PreconditionError(
                        f"{role}[{idx}] has {len(coord)} components, expected {width}"
                    )
                if coord in seen:
                    raise PreconditionError(
                        f"coordinate clash: {role}[{idx}] and {seen[coord]} at {coord}"
                    )
                seen[coord] = f"{role}[{idx}]"

    @property
    def edges(self) -> tuple:
        if callable(self._edges):
            self._edges = self._edges()
        return self._edges

    def families(self) -> dict:
        return {
            "x": self.x_checks,
            "z": self.z_checks,
            "q1": self.qubits_q1,
            "q2": self.qubits_q2,
        }


@dataclass(frozen=True)
class Oblique:
    """Oblique flattening (x, y, z) -> (x + x_shear*y, z + y_scale*y).

    The defaults 9/20 and 3/10 keep integer lattice points distinct
    until the y extent reaches 20, so desk-scale 3D layouts never get
    coincident glyph centres.
    """

    x_shear: float = 0.45
    y_scale: float = 0.3


@dataclass(frozen=True)
class RenderSpec:
    projection: Oblique | None = None
    scale: float = 12.0
    include_edges: bool = False


@dataclass(frozen=True)
class OperatorOverlay:
    """Pauli letters on (global) qubit indices."""

    paulis: tuple = field(default=())

    @classmethod
    def from_dict(cls, mapping: dict) -> "OperatorOverlay":
        items = tuple(sorted((int(k), v) for k, v in mapping.items()))
        return cls(paulis=items)

    def validate(self, n_qubits: int) -> None:
        for idx, letter in self.paulis:
            if not 0 <= idx < n_qubits:
                raise PreconditionError(
                    f"overlay index {idx} out of range [0, {n_qubits})"
                )
            if letter not in PAULI_COLORS:
                raise PreconditionError(f"unknown Pauli letter {letter!r}")


def _check_projection(table: CoordinateTable, spec: RenderSpec) -> None:
    if table.kind == "3d" and spec.projection is None:
        raise PreconditionError("3D layouts require an oblique projection")
    if table.kind == "2d" and spec.projection is not None:
        raise PreconditionError("2D layouts must not carry a projection")


def _project(coord, spec: RenderSpec):
    if len(coord) == 2:
        return float(coord[0]), float(coord[1])
    x, y, z = coord
    p = spec.projection
    return float(x) + p.x_shear * float(y), float(z) + p.y_scale * float(y)


def emit(table: CoordinateTable, spec: RenderSpec, overlays, fmt: str) -> str:
    """Serialise a layout; identical inputs give identical bytes."""
    overlays = tuple(overlays)
    n_qubits = len(table.qubits_q1) + len(table.qubits_q2)
    for overlay in overlays:
        overlay.validate(n_qubits)
    if fmt == "json":
        return _emit_json(table, spec, overlays)
    if fmt == "svg":
        _check_projection(table, spec)
        return _emit_svg(table, spec, overlays)
    if fmt == "tikz":
        _check_projection(table, spec)
        return _emit_tikz(table, spec, overlays)
    if fmt == "dot":
        _check_projection(table, spec)
        return _emit_dot(table, spec)
    raise FormatError(f"unknown output format {fmt!r}")


def _emit_json(table: CoordinateTable, spec: RenderSpec, overlays) -> str:
    vertices = []
    for role in ROLE_ORDER:
        coords = table.families()[role]
        for idx, coord in enumerate(coords):
            vertices.append(
                {"role": role, "index": idx, "coord": [int(c) for c in coord]}
            )
    payload = {
        "version": SCHEMA_VERSION,
        "kind": table.kind,
        "vertices": vertices,
    }
    if spec.include_edges and table.edges:
        payload["edges"] = [
            [[a_role, a_idx], [b_role, b_idx]]
            for (a_role, a_idx), (b_role, b_idx) in table.edges
        ]
    if overlays:
        payload["overlays"] = [
            {"paulis": [[idx, letter] for idx, letter in ov.paulis]}
            for ov in overlays
        ]
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _overlay(data) -> OperatorOverlay:
    if type(data) is not dict or "paulis" not in data:
        raise FormatError("an overlay needs a 'paulis' list of [qubit, letter] pairs")
    pairs = typed_list(data, "paulis", list)
    for entry in pairs:
        if len(entry) != 2 or type(entry[0]) is not int or type(entry[1]) is not str:
            raise FormatError(f"overlay entry {entry!r} is not a [qubit, letter] pair")
    return OperatorOverlay(paulis=tuple(map(tuple, pairs)))


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
            and end[0] in families and isinstance(end[1], int)
            and 0 <= end[1] < len(families[end[0]])
            for end in ends
        ):
            raise FormatError(f"edge {edge!r} does not join two listed vertices")
        edges.append((tuple(ends[0]), tuple(ends[1])))
    table = CoordinateTable(
        kind=data["kind"],
        x_checks=tuple(c for _, c in families["x"]),
        z_checks=tuple(c for _, c in families["z"]),
        qubits_q1=tuple(c for _, c in families["q1"]),
        qubits_q2=tuple(c for _, c in families["q2"]),
        edges=tuple(edges),
    )
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
    edges = tuple(
        (("x", c), ("q1", b)) for (c, b) in sorted(graph.edges)
    )
    return CoordinateTable(
        kind="2d",
        x_checks=tuple((i, 0) for i in range(graph.check_count)),
        z_checks=(),
        qubits_q1=tuple(
            (graph.check_count + j, 0) for j in range(graph.bit_count)
        ),
        qubits_q2=(),
        edges=edges,
    )


def _bounds(points):
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    return min(xs), max(xs), min(ys), max(ys)


def _projected(table: CoordinateTable, spec: RenderSpec, overlays):
    """Flattened points of every role, and the colour of each overlaid qubit."""
    projected = {
        role: [_project(c, spec) for c in table.families()[role]]
        for role in ROLE_ORDER
    }
    colors = {
        qubit: PAULI_COLORS[letter] for overlay in overlays for qubit, letter in overlay.paulis
    }
    return projected, colors


def _emit_svg(table: CoordinateTable, spec: RenderSpec, overlays) -> str:
    scale = spec.scale
    margin = scale
    projected, overlay_colors = _projected(table, spec, overlays)
    everything = [p for pts in projected.values() for p in pts]
    x0, x1, y0, y1 = _bounds(everything)
    width = (x1 - x0) * scale + 2 * margin
    height = (y1 - y0) * scale + 2 * margin

    def place(p):
        return (
            (p[0] - x0) * scale + margin,
            (y1 - p[1]) * scale + margin,
        )

    half = scale * 0.22
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}"'
        f' height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">'
    ]
    if spec.include_edges and table.edges:
        for (role_a, ia), (role_b, ib) in table.edges:
            xa, ya = place(projected[role_a][ia])
            xb, yb = place(projected[role_b][ib])
            lines.append(
                f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}"'
                ' stroke="gray" stroke-width="0.5"/>'
            )
    for idx, p in enumerate(projected["x"]):
        cx, cy = place(p)
        lines.append(
            f'<rect x="{cx - half:.2f}" y="{cy - half:.2f}" width="{2 * half:.2f}"'
            f' height="{2 * half:.2f}" fill="black"><title>x{idx}</title></rect>'
        )
    for idx, p in enumerate(projected["z"]):
        cx, cy = place(p)
        lines.append(
            f'<rect x="{cx - half:.2f}" y="{cy - half:.2f}" width="{2 * half:.2f}"'
            f' height="{2 * half:.2f}" fill="white" stroke="black">'
            f"<title>z{idx}</title></rect>"
        )
    q1 = len(table.qubits_q1)
    for role, offset in (("q1", 0), ("q2", q1)):
        for idx, p in enumerate(projected[role]):
            cx, cy = place(p)
            color = overlay_colors.get(offset + idx, "black")
            lines.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{half:.2f}"'
                f' fill="{color}"><title>{role}[{idx}]</title></circle>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _emit_tikz(table: CoordinateTable, spec: RenderSpec, overlays) -> str:
    projected, overlay_colors = _projected(table, spec, overlays)
    lines = [
        "\\documentclass[tikz]{standalone}",
        "\\begin{document}",
        "\\begin{tikzpicture}[scale=0.8]",
    ]
    if spec.include_edges and table.edges:
        for (role_a, ia), (role_b, ib) in table.edges:
            xa, ya = projected[role_a][ia]
            xb, yb = projected[role_b][ib]
            lines.append(
                f"\\draw[gray] ({xa:.2f},{ya:.2f}) -- ({xb:.2f},{yb:.2f});"
            )
    for x, y in projected["x"]:
        lines.append(
            f"\\filldraw ({x - 0.1:.2f},{y - 0.1:.2f}) rectangle"
            f" ({x + 0.1:.2f},{y + 0.1:.2f});"
        )
    for x, y in projected["z"]:
        lines.append(
            f"\\draw ({x - 0.1:.2f},{y - 0.1:.2f}) rectangle"
            f" ({x + 0.1:.2f},{y + 0.1:.2f});"
        )
    q1 = len(table.qubits_q1)
    for role, offset in (("q1", 0), ("q2", q1)):
        for idx, (x, y) in enumerate(projected[role]):
            color = overlay_colors.get(offset + idx)
            if color:
                lines.append(f"\\filldraw[{color}] ({x:.2f},{y:.2f}) circle (3pt);")
            else:
                lines.append(f"\\filldraw ({x:.2f},{y:.2f}) circle (3pt);")
    lines.extend(["\\end{tikzpicture}", "\\end{document}"])
    return "\n".join(lines) + "\n"


def _emit_dot(table: CoordinateTable, spec: RenderSpec) -> str:
    shapes = {"x": "box", "z": "square", "q1": "circle", "q2": "circle"}
    styles = {"x": "filled", "z": "solid", "q1": "solid", "q2": "solid"}
    lines = ["graph layout {"]
    for role in ROLE_ORDER:
        for idx, coord in enumerate(table.families()[role]):
            px, py = _project(coord, spec)
            lines.append(
                f'  "{role}{idx}" [shape={shapes[role]} style={styles[role]}'
                f' pos="{px:.2f},{py:.2f}!"];'
            )
    if spec.include_edges and table.edges:
        for (role_a, ia), (role_b, ib) in table.edges:
            lines.append(f'  "{role_a}{ia}" -- "{role_b}{ib}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
