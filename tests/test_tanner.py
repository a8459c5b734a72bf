import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qpc.errors import FormatError, PreconditionError
from qpc.gf2 import matmul
from qpc.groups import (
    FiniteGroup,
    GroupAlgebraElement,
    GroupAlgebraMatrix,
    binary_map,
    parse_element,
    parse_group_spec,
)
from qpc.tanner import (
    GroupAction,
    PlainGraph,
    TannerGraph,
    emit_action,
    emit_graph,
    has_fixed_edge,
    is_free,
    lift_from_ring_matrix,
    parse_action,
    parse_covering,
    parse_graph,
    quotient,
    verify_covering,
)

from oracles import (cartesian_product_plain, cycle, from_dense, from_masks,
                     lift_with_regular_actions, nonzero, path, product_action_plain, slot_perms)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def six_cycle_action():
    """Z3 acting on the 6-cycle by shifting two positions."""
    graph = cycle(6)
    group = FiniteGroup.cyclic(3)
    shift2 = [(v + 2) % 6 for v in range(6)]
    return graph, GroupAction.from_generators(group, graph, [{"vertex_perm": shift2}])


def paper_b_graph():
    """Four-vertex companion graph: triangle 0-1-2 plus spokes to vertex 3.

    The edge set is the closure of the drawn cycle under the rotation
    (0 1 2), which fixes vertex 3; the rotation is then a valid action.
    """
    graph = PlainGraph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)])
    group = FiniteGroup.cyclic(3)
    rot = [1, 2, 0, 3]
    return graph, GroupAction.from_generators(group, graph, [{"vertex_perm": rot}])


def regular_cyclic_tanner(mat: GroupAlgebraMatrix):
    """Tanner graph of B(mat) with the slot-shift action of the cyclic group."""
    group = mat.group
    graph = TannerGraph.from_bitmatrix(binary_map(mat))
    l = group.order
    check_shift = [(i // l) * l + (i + 1) % l for i in range(graph.check_count)]
    bit_shift = [(j // l) * l + (j + 1) % l for j in range(graph.bit_count)]
    action = GroupAction.from_generators(
        group, graph, [{"check_perm": check_shift, "bit_perm": bit_shift}]
    )
    return graph, action


class TestGraphs:
    def test_multiplicity_is_preserved(self):
        g = TannerGraph(1, 1, [(0, 0), (0, 0)])
        assert g.edges[(0, 0)] == 2
        assert g.edge_count() == 2

    def test_from_bitmatrix(self):
        h = from_dense([[1, 1, 0], [0, 1, 1]])
        g = TannerGraph.from_bitmatrix(h)
        assert g.edge_count() == 4
        assert g.edges == Counter({(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1})

    def test_plain_graph_normalises_pairs(self):
        g = PlainGraph(3, [(2, 0), (0, 2)])
        assert g.edges[(0, 2)] == 2

    def test_out_of_range_edges_rejected(self):
        with pytest.raises(PreconditionError):
            TannerGraph(1, 1, [(0, 1)])


class TestActionValidation:
    def test_six_cycle_action_valid(self):
        six_cycle_action()

    def test_table_built_in_code_names_the_generators_of_its_file(self):
        # S3 acting on itself by left multiplication, which keeps each edge v -- v * g3
        read = parse_group_spec(f"table:{FIXTURES / 's3.table'}")
        built = FiniteGroup(read.mul)
        assert built.generator_names() == read.generator_names() == {
            f"g{i}": i for i in range(1, 6)}
        # an action file lists the permutations of the generating set, not all 5
        assert built.generators == read.generators == (1, 2)
        graph = PlainGraph(6, [(v, read.mul[v][3]) for v in range(6)])
        perms = [{"vertex_perm": list(read.mul[g])} for g in read.generators]
        actions = [GroupAction.from_generators(group, graph, perms) for group in (built, read)]
        assert np.array_equal(actions[0].perms["vertex"], actions[1].perms["vertex"])
        assert np.array_equal(actions[0].perms["vertex"], read.mul)
        emitted = [json.loads(emit_action(action))["generators"] for action in actions]
        assert emitted[0] == emitted[1] == perms

    def test_edge_breaking_permutation_rejected(self):
        # rotating only three vertices of a plain 4-cycle tears its edges
        graph = cycle(4)
        group = FiniteGroup.cyclic(3)
        with pytest.raises(PreconditionError, match="preserve"):
            GroupAction.from_generators(
                group, graph, [{"vertex_perm": [1, 2, 0, 3]}]
            )

    @pytest.mark.parametrize("perm, message", [
        ([1, 2], "generator 0: vertex permutation has 2 entries, expected 4"),
        ([1, 2, 0, 3, 3], "generator 0: vertex permutation has 5 entries, expected 4"),
        ([1, 2, 0, 4], "generator 0: vertex permutation entry 4 is not in 0..3"),
        ([1, 2, 0, -1], "generator 0: vertex permutation entry -1 is not in 0..3"),
        ([1, 2, 0, 3.0], "generator 0: vertex permutation entry 3.0 is not in 0..3"),
    ])
    def test_generator_permutation_shape_and_range(self, perm, message):
        graph, _ = paper_b_graph()
        with pytest.raises(PreconditionError) as err:
            GroupAction.from_generators(FiniteGroup.cyclic(3), graph, [{"vertex_perm": perm}])
        assert str(err.value) == message

    def test_generator_permutations_checked_per_part(self):
        graph, action = regular_cyclic_tanner(
            GroupAlgebraMatrix(FiniteGroup.cyclic(3), [[GroupAlgebraElement(FiniteGroup.cyclic(3), 3)]])
        )
        good = list(action.perms["check"][1])
        with pytest.raises(PreconditionError, match="generator 0: bit permutation has 2 entries, expected 3"):
            GroupAction.from_generators(action.group, graph, [{"check_perm": good, "bit_perm": [1, 2]}])

    def test_homomorphism_enforced(self):
        # order-3 element cannot act as a transposition
        graph = PlainGraph(2, [(0, 1)])
        group = FiniteGroup.cyclic(3)
        with pytest.raises(PreconditionError, match="reach|homomorphism"):
            GroupAction.from_generators(group, graph, [{"vertex_perm": [1, 0]}])

    def test_biadjacency_invariance(self):
        # mod-2 shadow of edge invariance: P_check(g) A == A P_bit(g)
        mat = GroupAlgebraMatrix(
            FiniteGroup.cyclic(4),
            [[parse_element("1+x", FiniteGroup.cyclic(4)), parse_element("x^2", FiniteGroup.cyclic(4))]],
        )
        graph, action = regular_cyclic_tanner(
            GroupAlgebraMatrix(
                FiniteGroup.cyclic(4),
                [
                    [
                        parse_element(s, FiniteGroup.cyclic(4))
                        for s in ("1+x", "x^2")
                    ]
                ],
            )
        )
        adj = binary_map(mat)  # the graph's check/bit adjacency
        for g in range(action.group.order):
            cp = action.perms["check"][g]
            bp = action.perms["bit"][g]
            p_check = from_dense(
                np.eye(graph.check_count, dtype=np.uint8)[:, list(cp)].T
            )
            p_bit = from_dense(
                np.eye(graph.bit_count, dtype=np.uint8)[:, list(bp)].T
            )
            # P[sigma(q), q] = 1 for both parts
            assert matmul(p_check, adj) == matmul(adj, p_bit)


class TestFreeness:
    def test_six_cycle_shift_is_free(self):
        _, action = six_cycle_action()
        free, witness = is_free(action)
        assert free and witness is None

    def test_fixed_vertex_detected(self):
        _, action = paper_b_graph()
        free, witness = is_free(action)
        assert not free
        g, (part, v) = witness
        assert v == 3 and g in (1, 2) and part == "vertex"

    def test_trivial_group_is_free(self):
        graph = cycle(4)
        action = GroupAction.from_generators(FiniteGroup.cyclic(1), graph, [])
        assert is_free(action) == (True, None)


class TestFixedEdge:
    def test_six_cycle_has_no_forbidden_edge(self):
        _, action = six_cycle_action()
        assert has_fixed_edge(action) == (False, None)

    def test_antipodal_double_edge_violates(self):
        graph = PlainGraph(2, Counter({(0, 1): 2}))
        group = FiniteGroup.cyclic(2)
        action = GroupAction.from_generators(group, graph, [{"vertex_perm": [1, 0]}])
        hit, witness = has_fixed_edge(action)
        assert hit
        assert witness == (1, (0, 1))

    def test_trivial_group_vacuous(self):
        graph = PlainGraph(2, Counter({(0, 1): 2}))
        action = GroupAction.from_generators(FiniteGroup.cyclic(1), graph, [])
        assert has_fixed_edge(action) == (False, None)

    def test_tanner_setwise_fixed_edge(self):
        # swap two parallel bits wired identically: the edge pair (c0, b2) is
        # fixed only if both endpoints are; build one that is
        graph = TannerGraph(1, 3, [(0, 0), (0, 1), (0, 2)])
        group = FiniteGroup.cyclic(2)
        action = GroupAction.from_generators(
            group, graph, [{"check_perm": [0], "bit_perm": [1, 0, 2]}]
        )
        hit, witness = has_fixed_edge(action)
        assert hit
        assert witness == (1, (0, 2))


class TestQuotient:
    def test_six_cycle_mod_z3_is_double_edge(self):
        graph, action = six_cycle_action()
        q, orbits = quotient(graph, action)
        assert q.vertex_count == 2
        assert q.edge_count() == 2
        assert q.edges == Counter({(0, 1): 2})
        bases, cls, row = orbits["vertex"]
        assert bases == [0, 1] and cls == [0, 1, 0, 1, 0, 1]
        assert row[0] == 0
        # class {0, 2, 4}: 2 = basepoint shifted once, 4 = shifted twice
        assert row[2] == 1
        assert row[4] == 2

    def test_trivial_group_gives_isomorphic_copy(self):
        graph = cycle(5)
        action = GroupAction.from_generators(FiniteGroup.cyclic(1), graph, [])
        q, _ = quotient(graph, action)
        assert q == graph

    def test_paper_product_quotient_has_eight_classes(self):
        a_graph, a_action = six_cycle_action()
        b_graph, b_action = paper_b_graph()
        product = cartesian_product_plain(a_graph, b_graph)
        assert product.vertex_count == 24
        action = product_action_plain(product, a_action, b_action)
        free, _ = is_free(action)
        assert free  # free on A suffices
        q, orbits = quotient(product, action)
        assert q.vertex_count == 8
        bases, cls, _ = orbits["vertex"]
        assert len(bases) == 8
        assert np.bincount(cls).tolist() == [3] * 8

    def test_free_action_quotient_size(self):
        # free action: class count is exactly |V| / |H|
        graph, action = six_cycle_action()
        q, orbits = quotient(graph, action)
        assert q.vertex_count == graph.vertex_count // action.group.order
        bases, cls, row = orbits["vertex"]
        row, cls = np.array(row), np.array(cls)
        for c in range(len(bases)):
            assert sorted(row[cls == c].tolist()) == list(range(action.group.order))

    def test_nonfree_class_rows_are_coset_representatives(self):
        _, action = paper_b_graph()
        _, orbits = quotient(action.graph, action)
        bases, cls, row = orbits["vertex"]
        sizes = np.bincount(cls)
        assert np.flatnonzero(sizes[cls] == 1).tolist() == [3]
        assert row[3] == 0

    def test_tanner_quotient_recovers_ring_base(self):
        # quotient of the lifted graph by the slot shift == multiplicity base
        group = FiniteGroup.cyclic(4)
        mat = GroupAlgebraMatrix(
            group,
            [
                [parse_element("1+x", group), parse_element("x^3", group)],
                [parse_element("0", group), parse_element("1+x+x^2", group)],
            ],
        )
        graph, action = regular_cyclic_tanner(mat)
        q, _ = quotient(graph, action)
        lifted = lift_from_ring_matrix(mat)
        assert q == lifted.base
        assert q.edges == lifted.base.edges == Counter({(0, 0): 2, (0, 1): 1, (1, 1): 3})
        # the lift's own deck action is the slot shift, so it gives the same quotient
        assert quotient(lifted.graph, lifted.action)[0] == q


class TestCovering:
    def line_two_lift(self):
        base = path(3)
        cover = PlainGraph(6, [(0, 3), (1, 2), (2, 4), (3, 5)])
        return cover, base, {"vertex": [0, 0, 1, 1, 2, 2]}

    def test_two_lift_of_line_graph(self):
        report = verify_covering(*self.line_two_lift())
        assert report.valid
        assert report.lift_size == 2

    def test_identity_map_is_a_one_lift(self):
        graph = cycle(4)
        report = verify_covering(graph, graph, {"vertex": list(range(4))})
        assert report.valid and report.lift_size == 1

    def test_collapsing_adjacent_vertices_fails(self):
        base = PlainGraph(2, [(0, 1)])
        cover = PlainGraph(3, [(0, 1), (1, 2)])
        report = verify_covering(cover, base, {"vertex": [0, 1, 0]})
        assert not report.valid
        assert report.violations
        assert "vertex 1" in report.violations[0]

    def test_corrupted_two_lift_reports_witness(self):
        cover, base, _ = self.line_two_lift()
        report = verify_covering(cover, base, {"vertex": [0, 0, 1, 1, 2, 0]})
        assert not report.valid
        assert report.lift_size is None
        assert any("vertex" in v for v in report.violations)

    @pytest.mark.parametrize("images, fault", [
        ([[0], [0], [1], [1], [2], [2]], "must list every cover vertex"),
        ([[0, 0], [1, 1], [2, 2]], "must list every cover vertex"),
        ([0, 0, 1, 1, 2], "must list every cover vertex"),
        ([0, 0, 1, 1, 2, 2, 0], "must list every cover vertex"),
        ([0, 0, 1, 1, 2, "2"], "must list every cover vertex"),
        ([0, 0, 1, 1, 2, None], "must list every cover vertex"),
        ([0, 0, 1, 1, 2, 2.0], "must list every cover vertex"),
        (6, "must list every cover vertex"),
        ("001122", "must list every cover vertex"),
        ([0, 0, 1, 1, 2, 3], "has out-of-range images"),
        ([0, 0, 1, 1, 2, -1], "has out-of-range images"),
    ], ids=["nested", "pairs", "short", "long", "str", "none", "float", "int", "text",
            "past-end", "negative"])
    def test_malformed_map_is_refused(self, images, fault):
        cover, base, _ = self.line_two_lift()
        with pytest.raises(PreconditionError, match=f"^vertex map {fault}$"):
            verify_covering(cover, base, {"vertex": images})

    def test_malformed_map_of_the_second_part_is_named(self):
        graph = TannerGraph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
        with pytest.raises(PreconditionError, match="^bit map must list every cover vertex$"):
            verify_covering(graph, graph, {"check": [0, 1], "bit": [0, 1, [2]]})

    def test_empty_cover_has_no_fibres(self):
        report = verify_covering(PlainGraph(0, []), path(2), {"vertex": []})
        assert (report.valid, report.lift_size) == (True, None)

    def test_integer_array_map_is_accepted(self):
        cover, base, _ = self.line_two_lift()
        report = verify_covering(cover, base, {"vertex": np.array([0, 0, 1, 1, 2, 2])})
        assert report.valid and report.lift_size == 2


class TestLiftFromRing:
    def test_one_plus_z_covers_double_edge_base(self):
        group = FiniteGroup.cyclic(3)
        mat = GroupAlgebraMatrix(group, [[parse_element("1+x", group)]])
        lifted = lift_from_ring_matrix(mat)
        assert lifted.graph.check_count == 3 and lifted.graph.bit_count == 3
        assert lifted.base.edges == Counter({(0, 0): 2})
        report = verify_covering(lifted.graph, lifted.base, lifted.maps)
        assert report.valid and report.lift_size == 3
        assert is_free(lifted.action) == (True, None)

    def test_monomial_over_z2_gives_disjoint_edges(self):
        group = FiniteGroup.cyclic(2)
        mat = GroupAlgebraMatrix(group, [[GroupAlgebraElement(group, 1)]])
        lifted = lift_from_ring_matrix(mat)
        assert lifted.base.edges == Counter({(0, 0): 1})
        assert lifted.graph.edges == Counter({(0, 0): 1, (1, 1): 1})
        assert verify_covering(lifted.graph, lifted.base, lifted.maps).valid

    def test_three_term_entry_flagged(self):
        group = FiniteGroup.cyclic(3)
        mat = GroupAlgebraMatrix(group, [[parse_element("1+x+x^2", group)]])
        lifted = lift_from_ring_matrix(mat)
        assert mat.entries[0][0].mask.bit_count() == 3
        assert lifted.base.edges == Counter({(0, 0): 3})

    def test_random_monomials_always_cover(self):
        rng = random.Random(101)
        for l in range(2, 9):
            group = FiniteGroup.cyclic(l)
            masks = [
                [1 << rng.randrange(l) if rng.random() < 0.7 else 0 for _ in range(3)]
                for _ in range(2)
            ]
            mat = from_masks(group, masks)
            lifted = lift_from_ring_matrix(mat)
            assert set(lifted.base.edges.values()) <= {1}
            assert lifted.base.edge_count() == sum(m != 0 for row in masks for m in row)
            assert verify_covering(lifted.graph, lifted.base, lifted.maps).valid


    @pytest.mark.parametrize("spec", ["Z1", "Z3", "Z2xZ2", "Z2xZ3", "S3"])
    def test_deck_actions_are_the_slot_permutations(self, spec):
        # right multiplication is a deck action of every lift; the left multiplication
        # table fails validation exactly for the non-abelian group
        group = parse_group_spec(f"table:{FIXTURES / 's3.table'}" if spec == "S3" else spec)
        rng = random.Random(913)
        refused = 0
        for _ in range(16):
            mat = random_ring_matrix(rng, group, rng.random() < 0.3)
            lifted = lift_from_ring_matrix(mat)
            for part, want in slot_perms(mat, left=False).items():
                assert np.array_equal(lifted.action.perms[part], want)
            report = verify_covering(lifted.graph, lifted.base, lifted.maps)
            assert report.valid and report.lift_size == group.order
            try:
                GroupAction(group, lifted.graph, slot_perms(mat, left=True))
            except PreconditionError:
                refused += 1
        assert (refused > 0) == (spec == "S3")

    def test_s3_fixtures_are_a_lift(self):
        # fixtures/s3_lift.* as written by emit_graph and emit_action: the action
        # file names the table by its path from the fixtures directory
        group = FiniteGroup.from_table_text((FIXTURES / "s3.table").read_text(), "table:s3.table")
        mat = GroupAlgebraMatrix(group, [[parse_element(t, group) for t in row] for row in
                                         [["g1+g3", "g2", "0"], ["1", "g4+g5", "g3"]]])
        lifted = lift_from_ring_matrix(mat)
        assert emit_graph(lifted.graph) == (FIXTURES / "s3_lift.graph").read_text()
        text = (FIXTURES / "s3_lift.action.json").read_text()
        assert emit_action(lifted.action) == text
        assert len(json.loads(text)["generators"]) == len(group.generators) == 2
        assert is_free(lifted.action) == (True, None)
        assert has_fixed_edge(lifted.action) == (False, None)


class TestFileFormats:
    def test_tanner_graph_roundtrip(self):
        g = TannerGraph(2, 3, [(0, 0), (0, 0), (1, 2)])
        assert parse_graph(emit_graph(g)) == g

    def test_plain_graph_roundtrip(self):
        g = PlainGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert parse_graph(emit_graph(g)) == g

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_graph("widgets 3\n")

    def test_bad_edge_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("checks 1 bits 1\nb0 c0\n")

    def test_action_roundtrip(self):
        graph, action = six_cycle_action()
        text = emit_action(action)
        parsed = parse_action(text, graph)
        assert np.array_equal(parsed.perms["vertex"], action.perms["vertex"])

    def test_action_elements_form(self):
        graph = PlainGraph(2, Counter({(0, 1): 2}))
        payload = {
            "group": "Z2",
            "elements": [{"vertex_perm": [0, 1]}, {"vertex_perm": [1, 0]}],
        }
        action = parse_action(json.dumps(payload), graph)
        assert action.perms["vertex"] == ((0, 1), (1, 0))

    @pytest.mark.parametrize("second, message", [
        ([1], "element 1: vertex permutation has 1 entries, expected 2"),   # ragged table
        ([1, 2], "element 1: vertex permutation entry 2 is not in 0..1"),
        ([1, -2], "element 1: vertex permutation entry -2 is not in 0..1"),
    ])
    def test_action_elements_checked_like_generators(self, second, message):
        graph = PlainGraph(2, Counter({(0, 1): 2}))
        payload = {"group": "Z2", "elements": [{"vertex_perm": [0, 1]}, {"vertex_perm": second}]}
        with pytest.raises(PreconditionError) as err:
            parse_action(json.dumps(payload), graph)
        assert str(err.value) == message

    def test_covering_parse(self):
        base = path(3)
        cover = PlainGraph(6, [(0, 3), (1, 2), (2, 4), (3, 5)])
        maps = parse_covering(json.dumps({"vertex_map": [0, 0, 1, 1, 2, 2]}), cover)
        assert maps == {"vertex": [0, 0, 1, 1, 2, 2]}
        assert verify_covering(cover, base, maps).valid


def random_pairs(rng: random.Random, tanner: bool):
    """Sizes and edge pairs of a seeded multigraph.

    About three pairs in ten get a parallel copy at a random position,
    reversed on plain graphs; plain graphs get a loop; vertex counts leave
    some vertices isolated; and about one graph in six has no edge.
    """
    sizes = (rng.randrange(0, 7), rng.randrange(0, 7))
    if not tanner:
        sizes = (sizes[0], sizes[0])
    pairs = [] if 0 in sizes or rng.random() < 0.15 else [
        (rng.randrange(sizes[0]), rng.randrange(sizes[1])) for _ in range(rng.randrange(1, 12))
    ]
    for u, v in list(pairs):
        if rng.random() < 0.3:
            pairs.insert(rng.randrange(len(pairs) + 1), (u, v) if tanner else (v, u))
    if pairs and not tanner:
        loop = rng.randrange(sizes[0])
        pairs.insert(rng.randrange(len(pairs) + 1), (loop, loop))
    return sizes, pairs


def make_graph(sizes, pairs, tanner: bool):
    return TannerGraph(*sizes, pairs) if tanner else PlainGraph(sizes[0], pairs)


def random_ring_matrix(rng: random.Random, group: FiniteGroup, monomial: bool):
    """A matrix of at most 3 x 3 entries over `group`, about a quarter of them zero.

    The other entries are monomials, or any element when `monomial` is false,
    so that quotients get parallel edges.
    """
    def entry() -> int:
        if rng.random() < 0.25:
            return 0
        return 1 << rng.randrange(group.order) if monomial else rng.randrange(1, 1 << group.order)

    rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
    return from_masks(group, [[entry() for _ in range(cols)] for _ in range(rows)])


class TestGraphProperties:
    """Seeded random Tanner and plain multigraphs, against their input pairs."""

    @pytest.mark.parametrize("tanner", [True, False])
    def test_emit_parse_round_trip(self, tanner):
        rng = random.Random(901 + tanner)
        for _ in range(80):
            g = make_graph(*random_pairs(rng, tanner), tanner)
            back = parse_graph(emit_graph(g))
            assert type(back) is type(g) and back == g
            assert back.edge_count() == g.edge_count()

    @pytest.mark.parametrize("tanner", [True, False])
    def test_edges_in_first_listed_order(self, tanner):
        rng = random.Random(903 + tanner)
        for _ in range(80):
            sizes, pairs = random_pairs(rng, tanner)
            g = make_graph(sizes, pairs, tanner)
            keys = [pair if tanner else tuple(sorted(pair)) for pair in pairs]
            counts = Counter(keys)
            assert list(g.edges.items()) == [(k, counts[k]) for k in dict.fromkeys(keys)]
            assert g.edge_count() == len(pairs)

    def test_from_bitmatrix_biadjacency_is_the_matrix(self):
        rng = np.random.default_rng(905)
        for rows, cols in [(0, 0), (0, 5), (4, 0), (1, 1), (3, 7), (5, 64), (7, 65), (9, 130)]:
            for density in (0.0, 0.3, 1.0):
                h = from_dense((rng.random((rows, cols)) < density).astype(np.uint8))
                g = TannerGraph.from_bitmatrix(h)
                assert g == TannerGraph(rows, cols, list(zip(*(a.tolist() for a in nonzero(h)))))

    @pytest.mark.parametrize("monomial", [True, False])
    @pytest.mark.parametrize("spec", ["Z2", "Z3", "Z5", "Z2xZ2", "Z2xZ3"])
    def test_free_regular_quotient_collapses_by_group_order(self, spec, monomial):
        group = parse_group_spec(spec)
        rng = random.Random(907)
        for _ in range(6):
            graph_a, graph_b, act_a, act_b = lift_with_regular_actions(
                random_ring_matrix(rng, group, monomial), random_ring_matrix(rng, group, monomial))
            for graph, action in ((graph_a, act_a), (graph_b, act_b)):
                assert is_free(action)[0]
                q, orbits = quotient(graph, action)
                assert q.check_count * group.order == graph.check_count
                assert q.bit_count * group.order == graph.bit_count
                assert [len(orbits[part][0]) for part in ("check", "bit")] == [
                    q.check_count, q.bit_count]
                assert q.edge_count() * group.order == graph.edge_count()

    @pytest.mark.parametrize("spec", ["Z2", "Z3", "Z5", "Z2xZ2", "Z2xZ3"])
    def test_action_emit_parse_round_trip(self, spec):
        # Deck actions of seeded lifts, each carried to a seeded relabelling
        # of its graph: p'[sigma[v]] = sigma[p[v]] in every part.
        group = parse_group_spec(spec)
        rng = random.Random(909)
        for _ in range(6):
            lifts = lift_with_regular_actions(random_ring_matrix(rng, group, False),
                                              random_ring_matrix(rng, group, False))
            for graph, action in zip(lifts[:2], lifts[2:]):
                sigma = {part: np.array(rng.sample(range(size), size), dtype=np.int64)
                         for part, size in graph.part_sizes().items()}
                relabelled = TannerGraph(graph.check_count, graph.bit_count, [
                    (int(sigma["check"][c]), int(sigma["bit"][b]))
                    for (c, b), mult in graph.edges.items() for _ in range(mult)])
                perms = {}
                for part, p in action.perms.items():
                    p = np.array(p)
                    perms[part] = np.empty_like(p)
                    perms[part][:, sigma[part]] = sigma[part][p]
                moved = GroupAction(group, relabelled, perms)
                text = emit_action(moved)
                back = parse_action(text, relabelled)
                for part in graph.part_sizes():
                    assert np.array_equal(back.perms[part], moved.perms[part])
                assert emit_action(back) == text


@pytest.mark.parametrize("header", [
    "checks 99999999999999999999 bits 1", "checks 1 bits -1", "vertices -2",
    "vertices 99999999999999999999",
])
def test_graph_sizes_must_fit_an_array(header):
    with pytest.raises(FormatError, match="^line 1: graph sizes must be non-negative"):
        parse_graph(header + "\n")


def test_covering_map_beyond_int64_is_out_of_range():
    line = path(3)
    with pytest.raises(PreconditionError, match="vertex map has out-of-range images"):
        verify_covering(line, line, {"vertex": [0, 1, 10**30]})
