import json
import random

import pytest

from qpc.classical import ClassicalCode, repetition_check
from qpc.errors import FormatError, PreconditionError
from qpc.groups import FiniteGroup, GroupAlgebraMatrix, parse_element
from qpc.products import CoordinateTable, hgp, lifted_product
from qpc.render import (
    ROLE_ORDER,
    Oblique,
    OperatorOverlay,
    RenderSpec,
    emit,
    parse_layout,
)


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
        overlay = OperatorOverlay.from_dict({0: "Z", 3: "Z", 6: "Z"})
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
    def test_3d_requires_projection(self):
        code = lp_code()
        with pytest.raises(PreconditionError):
            emit(code.layout, RenderSpec(), (), "svg")

    def test_2d_forbids_projection(self):
        code = toric()
        with pytest.raises(PreconditionError):
            emit(code.layout, RenderSpec(projection=Oblique()), (), "svg")

    def test_oblique_formula(self):
        # (x, y, z) -> (x + shear y, z + y_scale y)
        code = lp_code()
        spec = RenderSpec(projection=Oblique(x_shear=0.5, y_scale=0.25))
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
        overlay = OperatorOverlay.from_dict({0: "Z", 3: "Z", 6: "Z"})
        doc = emit(code.layout, RenderSpec(), (overlay,), "svg")
        assert doc.count('fill="red"') == 3

    def test_overlay_out_of_range_rejected(self):
        code = toric()
        overlay = OperatorOverlay.from_dict({99: "Z"})
        with pytest.raises(PreconditionError):
            emit(code.layout, RenderSpec(), (overlay,), "svg")

    def test_deterministic_output(self):
        code = lp_code()
        spec = RenderSpec(projection=Oblique(), include_edges=True)
        assert emit(code.layout, spec, (), "svg") == emit(code.layout, spec, (), "svg")

    def test_3d_centres_stay_distinct_under_default_projection(self):
        # a lattice where shear 1/2 would collide ((1,0,1) vs (0,2,0))
        group = FiniteGroup.cyclic(2)
        m1 = GroupAlgebraMatrix.from_masks(group, [[1, 2], [2, 1]])
        m2 = GroupAlgebraMatrix.from_masks(group, [[1, 2, 1]])
        code = lifted_product(m1, m2)
        doc = emit(code.layout, RenderSpec(projection=Oblique()), (), "svg")
        centres = svg_centres(doc, scale=12.0)
        assert len(centres) == len(set(centres)) == code.total_vertices()


class TestOtherFormats:
    def test_tikz_is_standalone(self):
        code = toric()
        doc = emit(code.layout, RenderSpec(), (), "tikz")
        assert doc.startswith("\\documentclass[tikz]{standalone}")
        assert doc.count("circle (3pt)") == 18
        assert doc.count("\\filldraw (") == 9 + 18  # X squares + plain qubits

    def test_tikz_overlay_color(self):
        code = toric()
        overlay = OperatorOverlay.from_dict({2: "X"})
        doc = emit(code.layout, RenderSpec(), (overlay,), "tikz")
        assert "\\filldraw[blue]" in doc

    def test_dot_edges(self):
        code = toric()
        doc = emit(code.layout, RenderSpec(include_edges=True), (), "dot")
        assert doc.count(" -- ") == code.h_x.weight() + code.h_z.weight()

    def test_unknown_format(self):
        code = toric()
        with pytest.raises(FormatError):
            emit(code.layout, RenderSpec(), (), "png")
