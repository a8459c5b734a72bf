import json
import random
from collections import Counter

import pytest

from qpc.classical import ClassicalCode
from qpc.errors import FormatError, PreconditionError
from qpc.groups import FiniteGroup, GroupAlgebraMatrix, parse_element
from qpc.products import hgp, lifted_product
from qpc.render import (
    PAULI_COLORS,
    ROLE_ORDER,
    CoordinateTable,
    OperatorOverlay,
    RenderSpec,
    emit,
    parse_layout,
)

from oracles import from_masks, repetition_check, total_vertices

DRAWN = ("svg", "tikz", "dot")


def toric():
    return hgp(ClassicalCode(repetition_check(3)), ClassicalCode(repetition_check(3)))


def lp_code():
    group = FiniteGroup.cyclic(3)
    m = GroupAlgebraMatrix(group, [[parse_element("1+x", group)]])
    return lifted_product(m, m)


def svg_centres(doc, scale):
    """Glyph centres from the SVG text; rect corners are shifted back."""
    half = round(scale * 0.22, 2)
    centres = []
    for line in doc.splitlines():
        if "<circle" in line:
            cx = float(line.split('cx="')[1].split('"')[0])
            cy = float(line.split('cy="')[1].split('"')[0])
            centres.append((round(cx, 2), round(cy, 2)))
        elif "<rect" in line:
            x = float(line.split('x="')[1].split('"')[0])
            y = float(line.split('y="')[1].split('"')[0])
            centres.append((round(x + half, 2), round(y + half, 2)))
    return centres


class TestJson:
    def test_empty_layout(self):
        table = CoordinateTable(kind="2d", x_checks=(), z_checks=(),
                                qubits_q1=(), qubits_q2=())
        doc = emit(table, RenderSpec(), (), "json")
        data = json.loads(doc)
        assert data["version"] == "qpc-layout/1"
        assert data["vertices"] == []

    def test_toric_vertex_counts(self):
        code = toric()
        doc = emit(code.layout, RenderSpec(), (), "json")
        data = json.loads(doc)
        roles = [v["role"] for v in data["vertices"]]
        assert roles.count("q1") + roles.count("q2") == 18
        assert roles.count("x") == 9 and roles.count("z") == 9

    def test_coordinates_match_layout(self):
        code = toric()
        doc = emit(code.layout, RenderSpec(), (), "json")
        data = json.loads(doc)
        for vertex in data["vertices"]:
            fam = code.layout.families()[vertex["role"]]
            assert tuple(vertex["coord"]) == fam[vertex["index"]]

    def test_roundtrip_is_byte_identical(self):
        code = toric()
        overlay = OperatorOverlay(((0, "Z"), (3, "Z"), (6, "Z")))
        for include_edges in (False, True):
            spec = RenderSpec(include_edges=include_edges)
            doc = emit(code.layout, spec, (overlay,), "json")
            table, overlays = parse_layout(doc)
            doc2 = emit(table, spec, overlays, "json")
            assert doc2 == doc

    def test_parse_rejects_bad_version(self):
        with pytest.raises(FormatError):
            parse_layout(json.dumps({"version": "other", "kind": "2d"}))

    @pytest.mark.parametrize("kind", [None, 5, "4d", ["2d"]])
    def test_parse_rejects_unknown_kind(self, kind):
        payload = {"version": "qpc-layout/1", "kind": kind, "vertices": []}
        with pytest.raises(FormatError, match="layout kind .* is not '2d' or '3d'"):
            parse_layout(json.dumps(payload))

    def test_parse_rejects_gappy_indices(self):
        payload = {
            "version": "qpc-layout/1",
            "kind": "2d",
            "vertices": [{"role": "x", "index": 1, "coord": [0, 0]}],
        }
        with pytest.raises(FormatError):
            parse_layout(json.dumps(payload))

    @pytest.mark.parametrize("kind", ["2d", "3d"])
    def test_seeded_layouts_round_trip_byte_identical(self, kind):
        # Distinct integer coordinates in four families of 0-6 vertices each,
        # edges between any listed vertices and up to two overlays.
        rng = random.Random(71 + len(kind))
        width = 2 if kind == "2d" else 3
        for _ in range(60):
            sizes = [rng.randrange(7) for _ in ROLE_ORDER]
            box = [tuple(rng.randrange(-5, 6) for _ in range(width)) for _ in range(80)]
            coords = iter(rng.sample(sorted(set(box)), sum(sizes)))
            families = [tuple(next(coords) for _ in range(size)) for size in sizes]
            listed = [(role, i) for role, size in zip(ROLE_ORDER, sizes) for i in range(size)]
            count = rng.randrange(6) if len(listed) > 1 else 0
            edges = tuple(tuple(rng.sample(listed, 2)) for _ in range(count))
            table = CoordinateTable(kind, *families, edges=edges)
            qubits = range(sizes[2] + sizes[3])
            overlays = tuple(
                OperatorOverlay(tuple((q, rng.choice("XYZ"))
                                      for q in sorted(rng.sample(qubits, len(qubits) // 2))))
                for _ in range(rng.randrange(3)))
            spec = RenderSpec(include_edges=rng.random() < 0.5)
            doc = emit(table, spec, overlays, "json")
            back, back_overlays = parse_layout(doc)
            assert emit(back, spec, back_overlays, "json") == doc
            # the vertex list in any order reads back to the same file
            data = json.loads(doc)
            rng.shuffle(data["vertices"])
            back, back_overlays = parse_layout(json.dumps(data))
            assert emit(back, spec, back_overlays, "json") == doc


class TestProjection:
    def test_3d_defaults_to_oblique(self):
        layout = lp_code().layout
        for fmt in DRAWN:
            default = emit(layout, RenderSpec(), (), fmt)
            assert default == emit(layout, RenderSpec(x_shear=0.45, y_scale=0.3), (), fmt)
            assert default != emit(layout, RenderSpec(x_shear=1, y_scale=1), (), fmt)

    def test_2d_ignores_projection(self):
        layout = toric().layout
        for fmt in DRAWN:
            default = emit(layout, RenderSpec(), (), fmt)
            assert emit(layout, RenderSpec(x_shear=0.9, y_scale=2.0), (), fmt) == default

    def test_oblique_formula(self):
        # (x, y, z) -> (x + shear y, z + y_scale y)
        code = lp_code()
        spec = RenderSpec(x_shear=0.5, y_scale=0.25)
        doc = emit(code.layout, spec, (), "dot")
        # X check 0 sits at (0, 0, 0) -> projected (0, 0)
        assert '"x0" [shape=box style=filled pos="0.00,0.00!"];' in doc
        # Q2 qubit 0 sits at (0, 1, 0) -> (0.5, 0.25)
        assert '"q20" [shape=circle style=solid pos="0.50,0.25!"];' in doc


class TestSvg:
    def test_glyph_counts(self):
        code = toric()
        doc = emit(code.layout, RenderSpec(), (), "svg")
        assert doc.count("<circle") == 18
        assert doc.count('fill="black"><title>x') == 9
        assert doc.count('fill="white" stroke="black"') == 9

    def test_no_two_centres_coincide(self):
        code = toric()
        doc = emit(code.layout, RenderSpec(), (), "svg")
        centres = svg_centres(doc, scale=12.0)
        assert len(centres) == len(set(centres)) == 36

    def test_overlay_renders_red_row(self):
        # canonical Z logical on Q1: three red circles
        code = toric()
        overlay = OperatorOverlay(((0, "Z"), (3, "Z"), (6, "Z")))
        doc = emit(code.layout, RenderSpec(), (overlay,), "svg")
        assert doc.count('fill="red"') == 3

    def test_overlay_out_of_range_rejected(self):
        code = toric()
        overlay = OperatorOverlay(((99, "Z"),))
        with pytest.raises(PreconditionError):
            emit(code.layout, RenderSpec(), (overlay,), "svg")

    def test_deterministic_output(self):
        code = lp_code()
        spec = RenderSpec(include_edges=True)
        assert emit(code.layout, spec, (), "svg") == emit(code.layout, spec, (), "svg")

    def test_3d_centres_stay_distinct_under_default_projection(self):
        # a lattice where shear 1/2 would collide ((1,0,1) vs (0,2,0))
        group = FiniteGroup.cyclic(2)
        m1 = from_masks(group, [[1, 2], [2, 1]])
        m2 = from_masks(group, [[1, 2, 1]])
        code = lifted_product(m1, m2)
        doc = emit(code.layout, RenderSpec(), (), "svg")
        centres = svg_centres(doc, scale=12.0)
        assert len(centres) == len(set(centres)) == total_vertices(code)


class TestOtherFormats:
    def test_tikz_is_standalone(self):
        code = toric()
        doc = emit(code.layout, RenderSpec(), (), "tikz")
        assert doc.startswith("\\documentclass[tikz]{standalone}")
        assert doc.count("circle (3pt)") == 18
        assert doc.count("\\filldraw (") == 9 + 18  # X squares + plain qubits

    def test_tikz_overlay_color(self):
        code = toric()
        overlay = OperatorOverlay(((2, "X"),))
        doc = emit(code.layout, RenderSpec(), (overlay,), "tikz")
        assert "\\filldraw[blue]" in doc

    def test_dot_overlay_color(self):
        code = toric()
        overlay = OperatorOverlay(((2, "X"), (10, "Z")))
        doc = emit(code.layout, RenderSpec(), (overlay,), "dot")
        assert [line for line in doc.splitlines() if "color=" in line] == [
            '  "q12" [shape=circle style=solid pos="3.00,2.00!" color=blue];',
            '  "q21" [shape=circle style=solid pos="0.00,4.00!" color=red];',
        ]

    def test_dot_edges(self):
        code = toric()
        doc = emit(code.layout, RenderSpec(include_edges=True), (), "dot")
        assert doc.count(" -- ") == code.h_x.weight() + code.h_z.weight()

    def test_unknown_format(self):
        code = toric()
        with pytest.raises(FormatError):
            emit(code.layout, RenderSpec(), (), "png")


# The three drawing emitters as separate functions, each walking the edges,
# the four vertex families and the overlay colours itself: the reference
# that `emit` must match byte for byte.  A 3D table needs a projection here.


def ref_project(coord, spec):
    if len(coord) == 2:
        return float(coord[0]), float(coord[1])
    x, y, z = coord
    return float(x) + spec.x_shear * float(y), float(z) + spec.y_scale * float(y)


def ref_projected(table, spec, overlays):
    projected = {role: [ref_project(c, spec) for c in table.families()[role]]
                 for role in ROLE_ORDER}
    colors = {qubit: PAULI_COLORS[letter]
              for overlay in overlays for qubit, letter in overlay.paulis}
    return projected, colors


def ref_svg(table, spec, overlays):
    scale = spec.scale
    margin = scale
    projected, overlay_colors = ref_projected(table, spec, overlays)
    everything = [p for pts in projected.values() for p in pts]
    xs = [p[0] for p in everything] or [0.0]
    ys = [p[1] for p in everything] or [0.0]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    width = (x1 - x0) * scale + 2 * margin
    height = (y1 - y0) * scale + 2 * margin

    def place(p):
        return (p[0] - x0) * scale + margin, (y1 - p[1]) * scale + margin

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


def ref_tikz(table, spec, overlays):
    projected, overlay_colors = ref_projected(table, spec, overlays)
    lines = [
        "\\documentclass[tikz]{standalone}",
        "\\begin{document}",
        "\\begin{tikzpicture}[scale=0.8]",
    ]
    if spec.include_edges and table.edges:
        for (role_a, ia), (role_b, ib) in table.edges:
            xa, ya = projected[role_a][ia]
            xb, yb = projected[role_b][ib]
            lines.append(f"\\draw[gray] ({xa:.2f},{ya:.2f}) -- ({xb:.2f},{yb:.2f});")
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


def ref_dot(table, spec, overlays):
    shapes = {"x": "box", "z": "square", "q1": "circle", "q2": "circle"}
    styles = {"x": "filled", "z": "solid", "q1": "solid", "q2": "solid"}
    _, overlay_colors = ref_projected(table, spec, overlays)
    offsets = {"q1": 0, "q2": len(table.qubits_q1)}
    lines = ["graph layout {"]
    for role in ROLE_ORDER:
        for idx, coord in enumerate(table.families()[role]):
            px, py = ref_project(coord, spec)
            color = overlay_colors.get(offsets[role] + idx) if role in offsets else None
            paint = f" color={color}" if color else ""
            lines.append(
                f'  "{role}{idx}" [shape={shapes[role]} style={styles[role]}'
                f' pos="{px:.2f},{py:.2f}!"{paint}];'
            )
    if spec.include_edges and table.edges:
        for (role_a, ia), (role_b, ib) in table.edges:
            lines.append(f'  "{role_a}{ia}" -- "{role_b}{ib}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


REFERENCE = {"svg": ref_svg, "tikz": ref_tikz, "dot": ref_dot}


class TestDrawingLoopMatchesReference:
    def test_seeded_tables(self):
        # Distinct integer coordinates in four families of 0-7 vertices each,
        # edges between any listed vertices, 0-2 overlays, and random scale,
        # shear and y-scale; every format x kind x edges x overlay count.
        rng = random.Random(1313)
        reached = Counter()
        for _ in range(1200):
            kind = rng.choice(("2d", "3d"))
            width = 2 if kind == "2d" else 3
            sizes = [rng.randrange(8) for _ in ROLE_ORDER]
            box = [tuple(rng.randrange(-6, 7) for _ in range(width)) for _ in range(90)]
            coords = iter(rng.sample(sorted(set(box)), sum(sizes)))
            families = [tuple(next(coords) for _ in range(size)) for size in sizes]
            listed = [(role, i) for role, size in zip(ROLE_ORDER, sizes) for i in range(size)]
            count = rng.randrange(8) if len(listed) > 1 else 0
            edges = tuple(tuple(rng.sample(listed, 2)) for _ in range(count))
            table = CoordinateTable(kind, *families, edges=edges)
            qubits = range(sizes[2] + sizes[3])
            overlays = tuple(
                OperatorOverlay(tuple((q, rng.choice("XYZ")) for q in
                                      sorted(rng.sample(qubits, rng.randrange(len(qubits) + 1)))))
                for _ in range(rng.randrange(3)))
            spec = RenderSpec(scale=rng.choice((12.0, 1.0, 7.5, rng.uniform(0.1, 40))),
                              include_edges=rng.random() < 0.5,
                              x_shear=rng.choice((0.45, 0.0, -0.7, rng.uniform(-2, 2))),
                              y_scale=rng.choice((0.3, 1.0, -0.25, rng.uniform(-2, 2))))
            fmt = rng.choice(DRAWN)
            assert emit(table, spec, overlays, fmt) == REFERENCE[fmt](table, spec, overlays)
            reached[fmt, kind, spec.include_edges and bool(edges), len(overlays)] += 1
        assert len(reached) == len(DRAWN) * 2 * 2 * 3
        assert min(reached.values()) >= 10
