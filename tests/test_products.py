import random
from pathlib import Path

import numpy as np
import pytest

from qpc import products
from qpc.classical import ClassicalCode
from qpc.errors import PreconditionError
from qpc.gf2 import BitMatrix, hstack, matmul, transpose
from qpc.groups import (
    FiniteGroup,
    GroupAlgebraMatrix,
    binary_map,
    parse_element,
)
from qpc.products import (
    balanced_product,
    css_from_matrices,
    hgp,
    lifted_product,
)
from qpc.render import CoordinateTable
from qpc.tanner import GroupAction, TannerGraph

from oracles import (conj_transpose, from_dense, from_masks, hgp_of_lifts,
                     lift_with_regular_actions, repetition_check, ring_kron_identity,
                     total_vertices)


def rep3():
    return ClassicalCode(repetition_check(3))


def ring_1px(group):
    return GroupAlgebraMatrix(group, [[parse_element("1+x", group)]])


def random_classical(rng, max_m=4, max_n=5):
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    dense = np.array(
        [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)], dtype=np.uint8
    )
    return ClassicalCode(from_dense(dense))


def random_monomial_matrix(rng, group, rows, cols, density=0.8):
    masks = [
        [1 << rng.randrange(group.order) if rng.random() < density else 0
         for _ in range(cols)]
        for _ in range(rows)
    ]
    return from_masks(group, masks)


class TestHgp:
    def test_toric_shapes(self):
        code = hgp(rep3(), rep3())
        assert code.n == 18
        assert code.m_x == 9 and code.m_z == 9
        assert code.q1_size == 9 and code.q2_size == 9
        assert code.commuting

    def test_first_x_row_support(self):
        # row (i1=0, i2=0): left block hits qubits (j1, 0) for H1[0, j1] = 1,
        # i.e. columns 0 and 3; right block (I x H2^T) hits Q2 columns
        # 9 + j2 for H2[j2, 0] = 1, i.e. 9 and 11
        code = hgp(rep3(), rep3())
        dense = code.h_x.to_dense()
        assert sorted(np.nonzero(dense[0])[0].tolist()) == [0, 3, 9, 11]

    def test_degenerate_one_bit_code(self):
        trivial = ClassicalCode(BitMatrix.zeros(0, 1))
        code = hgp(trivial, trivial)
        assert code.n == 1
        assert code.m_x == 0 and code.m_z == 0

    def test_commutation_random_pairs(self):
        rng = random.Random(103)
        for _ in range(40):
            code = hgp(random_classical(rng), random_classical(rng))
            assert matmul(code.h_x, transpose(code.h_z)).is_zero()

    def test_layout_closed_forms(self):
        code = hgp(rep3(), rep3())
        table = code.layout
        m1 = n1 = m2 = n2 = 3
        for i, coord in enumerate(table.x_checks):
            assert coord == (i // n2, i % n2)
        for i, coord in enumerate(table.z_checks):
            assert coord == (i // m2 + m1, (i % m2) + n2)
        for j, coord in enumerate(table.qubits_q1):
            assert coord == (j // n2 + m1, j % n2)
        for j, coord in enumerate(table.qubits_q2):
            assert coord == (j // m2, (j % m2) + n2)

    def test_layout_coordinates_distinct(self):
        code = hgp(rep3(), ClassicalCode(from_dense([[1, 1]])))
        coords = [
            c for fam in code.layout.families().values() for c in fam
        ]
        assert len(coords) == len(set(coords)) == total_vertices(code)


class TestLiftedProduct:
    def test_z3_one_plus_x_shapes(self):
        group = FiniteGroup.cyclic(3)
        code = lifted_product(ring_1px(group), ring_1px(group))
        assert code.n == 6
        assert code.h_x.shape == (3, 6)
        assert code.commuting

    def test_z3_blocks_are_binary_images(self):
        group = FiniteGroup.cyclic(3)
        code = lifted_product(ring_1px(group), ring_1px(group))
        c = binary_map(ring_1px(group)).to_dense()
        dense = code.h_x.to_dense()
        assert np.array_equal(dense[:, :3], c)
        assert np.array_equal(dense[:, 3:], c.T)

    def test_trivial_group_reduces_to_hgp(self):
        group = FiniteGroup.cyclic(1)
        rng = random.Random(107)
        for _ in range(10):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            masks = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
            ring = from_masks(group, masks)
            classical = ClassicalCode(from_dense(np.array(masks)))
            lp = lifted_product(ring, ring)
            plain = hgp(classical, classical)
            assert lp.h_x == plain.h_x
            assert lp.h_z == plain.h_z

    def test_z1_layout_projects_to_hgp_layout(self):
        group = FiniteGroup.cyclic(1)
        masks = [[1, 1], [0, 1]]
        ring = from_masks(group, masks)
        lp = lifted_product(ring, ring)
        plain = hgp(
            ClassicalCode(from_dense(np.array(masks))),
            ClassicalCode(from_dense(np.array(masks))),
        )
        for fam in ("x_checks", "z_checks", "qubits_q1", "qubits_q2"):
            three_d = getattr(lp.layout, fam)
            two_d = getattr(plain.layout, fam)
            assert all(c[2] == 0 for c in three_d)
            assert tuple((x, y) for x, y, _ in three_d) == two_d

    def test_degenerate_checkless_ring_matrix(self):
        group = FiniteGroup.cyclic(3)
        empty = GroupAlgebraMatrix(group, [], cols=1)
        code = lifted_product(empty, empty)
        assert code.n == 3
        assert code.m_x == 0 and code.m_z == 0

    def test_group_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            lifted_product(
                ring_1px(FiniteGroup.cyclic(3)), ring_1px(FiniteGroup.cyclic(4))
            )

    def test_matches_binary_map_of_the_ring_formula(self):
        # H_X = (m1 (x) I | I (x) m2*), H_Z = (I (x) m2 | m1* (x) I) over F2[G],
        # expanded by the dense loop that the entry-wise binary_map replaced
        def dense_binary_map(m):
            l, mul = m.group.order, np.array(m.group.mul)
            dense = np.zeros((m.rows * l, m.cols * l), dtype=np.uint8)
            for i in range(m.rows):
                for j in range(m.cols):
                    for g in m.entries[i][j].support():
                        dense[i * l + mul[g], j * l + np.arange(l)] ^= 1
            return from_dense(dense)

        def ring_formula(m1, m2):
            (r1, c1), (r2, c2) = m1.shape, m2.shape
            h_x = hstack(dense_binary_map(ring_kron_identity(m1, c2, "right")),
                         dense_binary_map(ring_kron_identity(conj_transpose(m2), r1, "left")))
            h_z = hstack(dense_binary_map(ring_kron_identity(m2, c1, "left")),
                         dense_binary_map(ring_kron_identity(conj_transpose(m1), r2, "right")))
            return h_x, h_z

        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        s3 = FiniteGroup.from_table_text((fixtures / "s3.table").read_text(), spec="S3")
        groups = [FiniteGroup.cyclic(l) for l in (1, 2, 3, 5, 8)]
        groups += [FiniteGroup.direct_product(2, 3), FiniteGroup.direct_product(4, 2), s3]
        rng = random.Random(233)
        commuting = {True: 0, False: 0}
        for group in groups:
            for _ in range(8):
                m1, m2 = (from_masks(group, [
                    [rng.getrandbits(group.order) for _ in range(cols)] for _ in range(rows)])
                    for rows, cols in ((rng.randint(0, 3), rng.randint(1, 3)) for _ in range(2)))
                code = lifted_product(m1, m2)
                assert (code.h_x, code.h_z) == ring_formula(m1, m2)
                assert binary_map(m1) == dense_binary_map(m1)
                commuting[code.commuting] += 1
        assert commuting[True] and commuting[False]

    def test_factor_l_saving(self):
        group = FiniteGroup.cyclic(3)
        lp = lifted_product(ring_1px(group), ring_1px(group))
        baseline = hgp_of_lifts(ring_1px(group), ring_1px(group))
        assert total_vertices(lp) == 12
        assert total_vertices(baseline) == 36
        assert total_vertices(baseline) == 3 * total_vertices(lp)

    def test_factor_l_saving_random(self):
        rng = random.Random(109)
        for l in (2, 3, 4, 5):
            group = FiniteGroup.cyclic(l)
            m1 = random_monomial_matrix(rng, group, rng.randint(1, 2), rng.randint(1, 3))
            m2 = random_monomial_matrix(rng, group, rng.randint(1, 2), rng.randint(1, 3))
            lp = lifted_product(m1, m2)
            baseline = hgp_of_lifts(m1, m2)
            r1, c1 = m1.shape
            r2, c2 = m2.shape
            assert total_vertices(lp) == (r1 + c1) * (r2 + c2) * l
            assert lp.n == (c1 * c2 + r1 * r2) * l
            assert total_vertices(baseline) == l * total_vertices(lp)

    def test_abelian_products_commute(self):
        rng = random.Random(113)
        for spec_group in (FiniteGroup.cyclic(4), FiniteGroup.direct_product(2, 2)):
            for _ in range(5):
                m1 = random_monomial_matrix(rng, spec_group, 2, 2)
                m2 = random_monomial_matrix(rng, spec_group, 2, 2)
                assert lifted_product(m1, m2).commuting


class TestBalancedProduct:
    def test_trivial_group_is_hgp(self):
        group = FiniteGroup.cyclic(1)
        h = repetition_check(3)
        graph = TannerGraph.from_bitmatrix(h)
        ident = {
            "check": [list(range(3))],
            "bit": [list(range(3))],
        }
        act = GroupAction(group, graph, ident)
        code = balanced_product(graph, graph, act, act)
        plain = hgp(ClassicalCode(h), ClassicalCode(h))
        assert code.h_x == plain.h_x
        assert code.h_z == plain.h_z

    def test_z3_lift_matches_lifted_product(self):
        group = FiniteGroup.cyclic(3)
        m1, m2 = ring_1px(group), ring_1px(group)
        a, b, act_a, act_b = lift_with_regular_actions(m1, m2)
        code = balanced_product(a, b, act_a, act_b)
        lp = lifted_product(m1, m2)
        assert code.h_x == lp.h_x
        assert code.h_z == lp.h_z
        assert code.n == 6

    def test_random_monomial_lifts_match_lifted_product(self):
        rng = random.Random(127)
        for group in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(4),
                      FiniteGroup.direct_product(2, 2)):
            for _ in range(4):
                m1 = random_monomial_matrix(rng, group, rng.randint(1, 2), rng.randint(1, 2))
                m2 = random_monomial_matrix(rng, group, rng.randint(1, 2), rng.randint(1, 2))
                a, b, act_a, act_b = lift_with_regular_actions(m1, m2)
                code = balanced_product(a, b, act_a, act_b)
                lp = lifted_product(m1, m2)
                assert code.h_x == lp.h_x and code.h_z == lp.h_z

    def test_size_is_product_over_group_order(self):
        group = FiniteGroup.cyclic(3)
        m1, m2 = ring_1px(group), ring_1px(group)
        a, b, act_a, act_b = lift_with_regular_actions(m1, m2)
        code = balanced_product(a, b, act_a, act_b)
        product_vertices = (a.check_count + a.bit_count) * (
            b.check_count + b.bit_count
        )
        assert total_vertices(code) == product_vertices // 3

    def test_non_free_first_action_rejected(self):
        group = FiniteGroup.cyclic(2)
        graph = TannerGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        # swap the two checks, fix both bits: bits are fixed points
        act = GroupAction(
            group,
            graph,
            {"check": [[0, 1], [1, 0]], "bit": [[0, 1], [0, 1]]},
        )
        with pytest.raises(PreconditionError, match="free"):
            balanced_product(graph, graph, act, act)

    def test_commutation_for_valid_instances(self):
        rng = random.Random(131)
        for group in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)):
            for _ in range(5):
                m1 = random_monomial_matrix(rng, group, 1, 2)
                m2 = random_monomial_matrix(rng, group, 1, 2)
                a, b, act_a, act_b = lift_with_regular_actions(m1, m2)
                code = balanced_product(a, b, act_a, act_b)
                assert code.commuting


class TestCoordinateTable:
    def test_rejects_clash(self):
        with pytest.raises(PreconditionError, match="clash"):
            CoordinateTable(
                kind="2d",
                x_checks=((0, 0),),
                z_checks=((0, 0),),
                qubits_q1=(),
                qubits_q2=(),
            )

    def test_rejects_wrong_width(self):
        with pytest.raises(PreconditionError):
            CoordinateTable(
                kind="3d",
                x_checks=((0, 0),),
                z_checks=(),
                qubits_q1=(),
                qubits_q2=(),
            )


class TestLazyLayout:
    def test_layout_and_edges_are_built_on_first_read(self, monkeypatch):
        calls = []
        real = products._incidence_edges

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(products, "_incidence_edges", counted)
        group = FiniteGroup.cyclic(3)
        codes = [hgp(rep3(), rep3()), lifted_product(ring_1px(group), ring_1px(group))]
        a, b, act_a, act_b = lift_with_regular_actions(ring_1px(group), ring_1px(group))
        codes.append(balanced_product(a, b, act_a, act_b))
        for code in codes:
            assert "layout" not in vars(code)
            table = code.layout
            assert code.layout is table and calls == []
            edges = table.edges
            assert len(calls) == 1 and table.edges is edges
            assert edges == real(code.h_x, code.h_z, code.q1_size)
            assert len(edges) == code.h_x.weight() + code.h_z.weight()
            calls.clear()

    def test_matrices_alone_build_no_layout(self):
        toric = hgp(rep3(), rep3())
        code = css_from_matrices(toric.h_x, toric.h_z)
        assert code.commuting
        assert "layout" not in vars(code)
        assert len(code.layout.x_checks) == toric.m_x
        assert code.layout.edges[0] == (("x", 0), ("q1", 0))
