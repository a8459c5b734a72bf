"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Tolerances and budgets are fixed here, not tuned at runtime.
"""

import random
import time
from pathlib import Path

import numpy as np

from qpc.analysis import (
    css_distance,
    css_params,
    hgp_distance_bound,
    hgp_k_formula,
    logical_count,
)
from qpc.classical import ClassicalCode
from qpc.errors import BudgetError
from qpc.gf2 import matmul, transpose
from qpc.groups import (
    FiniteGroup,
    GroupAlgebraMatrix,
    binary_map,
    parse_element,
)
from qpc.products import (
    balanced_product,
    hgp,
    lifted_product,
)
from qpc.render import OperatorOverlay, RenderSpec, emit, parse_layout
from qpc.tanner import (
    GroupAction,
    TannerGraph,
    is_free,
    parse_covering,
    parse_graph,
    quotient,
    verify_covering,
)

from oracles import (cartesian_product_plain, from_dense, from_masks, hgp_of_lifts,
                     lift_with_regular_actions, lp_bp_coincide, product_action_plain,
                     repetition_check, search_noncommuting_lp, total_vertices)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(number, text):
    print(f"[acceptance {number}] PASS - {text}")


def rep3():
    return ClassicalCode(repetition_check(3))


def random_classical(rng, max_m, max_n):
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    dense = np.array(
        [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)], dtype=np.uint8
    )
    return ClassicalCode(from_dense(dense))


def random_monomial(rng, group, rows, cols):
    return from_masks(
        group,
        [[1 << rng.randrange(group.order) for _ in range(cols)] for _ in range(rows)],
    )


def test_criterion_1_toric_reproduction():
    start = time.perf_counter()
    code = hgp(rep3(), rep3())
    k = logical_count(code)
    d_x, d_z, d = css_distance(code)
    elapsed = time.perf_counter() - start
    assert code.n == 18
    assert k == 2
    assert k == hgp_k_formula(rep3(), rep3())
    assert (d_x, d_z, d) == (3, 3, 3)
    assert elapsed < 1.0
    report(1, f"toric code is [[18,2,3]] (both k routes agree) in {elapsed:.3f}s")


def test_criterion_2_hgp_commutation():
    rng = random.Random(20240)
    failures = 0
    for _ in range(200):
        c1 = random_classical(rng, 6, 8)
        c2 = random_classical(rng, 6, 8)
        code = hgp(c1, c2)
        if not matmul(code.h_x, transpose(code.h_z)).is_zero():
            failures += 1
    assert failures == 0
    report(2, "200/200 random hypergraph products have H_X H_Z^T = 0")


def test_criterion_3_factor_l_saving():
    rng = random.Random(20241)
    checked = 0
    for _ in range(20):
        l = rng.randint(2, 5)
        group = FiniteGroup.cyclic(l)
        m1 = random_monomial(rng, group, rng.randint(1, 2), rng.randint(1, 3))
        m2 = random_monomial(rng, group, rng.randint(1, 2), rng.randint(1, 3))
        lifted = lifted_product(m1, m2)
        baseline = hgp_of_lifts(m1, m2)
        assert total_vertices(baseline) == l * total_vertices(lifted)
        checked += 1
    assert checked == 20
    report(3, "20/20 lifted products save exactly a factor of l over expanded HGP")


def test_criterion_4_lp_noncommutation_exists():
    s3 = FiniteGroup.from_table_text((FIXTURES / "s3.table").read_text(), spec="S3")
    hit = search_noncommuting_lp(s3, 2, 2, 10_000, seed=424242)
    assert hit is not None
    m1, m2, draw = hit
    assert not lifted_product(m1, m2).commuting
    for spec in ("Z2", "Z3", "Z4", "Z5"):
        group = FiniteGroup.cyclic(int(spec[1:]))
        assert search_noncommuting_lp(group, 2, 2, 50, seed=7) is None
    assert search_noncommuting_lp(FiniteGroup.direct_product(2, 2), 2, 2, 50, seed=7) is None
    report(4, f"S3 lifted product anticommutes at draw {draw}; all abelian draws commute")


def _extend_with_fixed_bit(graph: TannerGraph, action: GroupAction):
    """Append one bit fixed by the whole group, wired to check block 0."""
    l = action.group.order
    edges = dict(graph.edges)
    new_bit = graph.bit_count
    for s in range(l):
        edges[(s, new_bit)] = 1
    bigger = TannerGraph(graph.check_count, graph.bit_count + 1, edges)
    bit_perms = np.concatenate(
        [
            np.array(action.perms["bit"]),
            np.full((l, 1), new_bit, dtype=np.int64),
        ],
        axis=1,
    )
    new_action = GroupAction(
        action.group, bigger, {"check": action.perms["check"], "bit": bit_perms}
    )
    return bigger, new_action


def test_criterion_5_bp_commutation_and_size():
    rng = random.Random(20242)
    group_specs = [
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(4),
        FiniteGroup.direct_product(2, 2),
    ]
    built = 0
    free_b_cases = 0
    nonfree_b_cases = 0
    while built < 50:
        group = group_specs[built % len(group_specs)]
        l = group.order
        max_a_blocks = 12 // l
        rows_a = rng.randint(1, max(1, max_a_blocks - 1))
        cols_a = rng.randint(1, max(1, max_a_blocks - rows_a))
        max_b_blocks = 8 // l
        rows_b = rng.randint(1, max(1, max_b_blocks - 1)) if max_b_blocks > 1 else 1
        cols_b = max(1, min(max_b_blocks - rows_b, rng.randint(1, 2)))
        m_a = random_monomial(rng, group, rows_a, cols_a)
        m_b = random_monomial(rng, group, rows_b, cols_b)
        graph_a, graph_b, act_a, act_b = lift_with_regular_actions(m_a, m_b)
        if graph_a.check_count + graph_a.bit_count > 12:
            continue
        make_nonfree = l <= 3 and (
            graph_b.check_count + graph_b.bit_count + 1 <= 8
        ) and built % 3 == 2
        if make_nonfree:
            graph_b, act_b = _extend_with_fixed_bit(graph_b, act_b)
        if graph_b.check_count + graph_b.bit_count > 8:
            continue
        code = balanced_product(graph_a, graph_b, act_a, act_b)
        assert code.commuting, "balanced product must commute"
        product_vertices = (graph_a.check_count + graph_a.bit_count) * (
            graph_b.check_count + graph_b.bit_count
        )
        if is_free(act_b)[0]:
            free_b_cases += 1
            assert total_vertices(code) == product_vertices // l
        else:
            nonfree_b_cases += 1
        built += 1
    assert free_b_cases > 0 and nonfree_b_cases > 0

    # the worked 6-cycle x 4-vertex example collapses to 8 classes
    a_graph = parse_graph((FIXTURES / "cycle6.graph").read_text())
    b_graph = parse_graph((FIXTURES / "b4.graph").read_text())
    from qpc.tanner import parse_action

    act_a = parse_action((FIXTURES / "cycle6_z3.action.json").read_text(), a_graph)
    act_b = parse_action((FIXTURES / "b4_z3.action.json").read_text(), b_graph)
    product = cartesian_product_plain(a_graph, b_graph)
    action = product_action_plain(product, act_a, act_b)
    collapsed, layout = quotient(product, action)
    assert collapsed.vertex_count == 8
    report(
        5,
        f"50 balanced products commute ({free_b_cases} free-B size checks,"
        f" {nonfree_b_cases} non-free); worked example collapses 24 -> 8 vertices",
    )


def test_criterion_6_lp_bp_coincidence():
    rng = random.Random(20243)
    groups = [FiniteGroup.cyclic(3), FiniteGroup.direct_product(2, 2)]
    for i in range(10):
        group = groups[i % 2]
        m1 = random_monomial(rng, group, rng.randint(1, 2), rng.randint(1, 2))
        m2 = random_monomial(rng, group, rng.randint(1, 2), rng.randint(1, 2))
        same, perm = lp_bp_coincide(m1, m2)
        assert same and perm == list(range(lifted_product(m1, m2).n))

    group = FiniteGroup.cyclic(3)
    fixture = GroupAlgebraMatrix(group, [[parse_element("1+x", group)]])
    graph_a, graph_b, act_a, act_b = lift_with_regular_actions(fixture, fixture)
    bp_code = balanced_product(graph_a, graph_b, act_a, act_b)
    lp_code = lifted_product(fixture, fixture)
    assert bp_code.h_x == lp_code.h_x and bp_code.h_z == lp_code.h_z
    for code in (bp_code, lp_code):
        params = css_params(code)
        assert (params.n, params.k, params.d) == (6, 2, 2)
    report(6, "10/10 monomial instances coincide; fixture gives [[6,2,2]] both ways")


def test_criterion_7_distance_bound_direction():
    rng = random.Random(20244)
    checked = 0
    attempts = 0
    while checked < 12 and attempts < 400:
        attempts += 1
        c1 = random_classical(rng, 3, 4)
        c2 = random_classical(rng, 3, 4)
        code = hgp(c1, c2)
        if logical_count(code) == 0:
            continue
        bound = hgp_distance_bound(c1, c2)
        if bound is None:
            continue
        try:
            _, _, d = css_distance(code, budget=1 << 18)
        except BudgetError:
            continue
        assert d >= bound, f"distance {d} below bound {bound}"
        checked += 1
    assert checked == 12

    equalities = []
    for size in (3, 4):
        code = ClassicalCode(repetition_check(size))
        _, _, d = css_distance(hgp(code, code))
        bound = hgp_distance_bound(code, code)
        assert d == bound == size
        equalities.append(f"{size}x{size} toric: {d} = {bound}")
    report(
        7,
        f"css distance >= classical bound on {checked} random instances;"
        f" equality on curated fixtures ({'; '.join(equalities)})",
    )


def _assert_plane_structure(m1: GroupAlgebraMatrix, m2: GroupAlgebraMatrix):
    code = lifted_product(m1, m2)
    l = m1.group.order
    r1, c1 = m1.shape
    r2, c2 = m2.shape
    n2 = c2
    m2_rows = r2
    b1 = binary_map(m1)
    b2 = binary_map(m2)
    b1_edges = {(int(i), int(j)) for i, j in zip(*np.nonzero(b1.to_dense()))}
    b2_edges = {(int(i), int(j)) for i, j in zip(*np.nonzero(b2.to_dense()))}
    hx = code.h_x.to_dense()
    hz = code.h_z.to_dense()
    q1 = code.q1_size

    # planes with x in [0, m1): X checks vs Q2, wired by B(m2) transposed
    for px in range(r1):
        got = set()
        for i in range(hx.shape[0]):
            if i // (n2 * l) != px:
                continue
            for j in range(q1, code.n):
                if hx[i, j]:
                    jq = j - q1
                    if jq // (m2_rows * l) == px:
                        got.add((jq % (m2_rows * l), i % (n2 * l)))
        assert got == b2_edges
    # planes with x in [m1, m1 + n1): Z checks vs Q1, wired by B(m2)
    for px in range(c1):
        got = set()
        for i in range(hz.shape[0]):
            if i // (m2_rows * l) != px:
                continue
            for j in range(q1):
                if hz[i, j] and j // (n2 * l) == px:
                    got.add((i % (m2_rows * l), j % (n2 * l)))
        assert got == b2_edges
    # planes with y in [0, n2): X checks vs Q1, wired by B(m1)
    for py in range(c2):
        got = set()
        for i in range(hx.shape[0]):
            if (i // l) % n2 != py:
                continue
            for j in range(q1):
                if hx[i, j] and (j // l) % n2 == py:
                    got.add(
                        (
                            (i // (n2 * l)) * l + i % l,
                            (j // (n2 * l)) * l + j % l,
                        )
                    )
        assert got == b1_edges
    # planes with y in [n2, n2 + m2): Q2 vs Z checks, wired by B(m1)
    for py in range(r2):
        got = set()
        for i in range(hz.shape[0]):
            if (i // l) % m2_rows != py:
                continue
            for j in range(q1, code.n):
                jq = j - q1
                if hz[i, j] and (jq // l) % m2_rows == py:
                    got.add(
                        (
                            (jq // (m2_rows * l)) * l + jq % l,
                            (i // (m2_rows * l)) * l + i % l,
                        )
                    )
        assert got == b1_edges


def test_criterion_8_plane_structure():
    rng = random.Random(20245)
    fixtures = []
    g3 = FiniteGroup.cyclic(3)
    fixtures.append((
        GroupAlgebraMatrix(g3, [[parse_element("1+x", g3)]]),
        GroupAlgebraMatrix(g3, [[parse_element("1+x", g3)]]),
    ))
    g4 = FiniteGroup.cyclic(4)
    fixtures.append((random_monomial(rng, g4, 2, 2), random_monomial(rng, g4, 1, 2)))
    g22 = FiniteGroup.direct_product(2, 2)
    fixtures.append((random_monomial(rng, g22, 1, 2), random_monomial(rng, g22, 2, 1)))
    for m1, m2 in fixtures:
        _assert_plane_structure(m1, m2)
    report(8, f"every plane of {len(fixtures)} lifted products is a copy of the lifted input")


def test_criterion_9_covering_verification():
    cover = parse_graph((FIXTURES / "line3_2lift.graph").read_text())
    base = parse_graph((FIXTURES / "line3.graph").read_text())
    good = parse_covering((FIXTURES / "line3_2lift.map.json").read_text(), cover)
    good_report = verify_covering(cover, base, good)
    assert good_report.valid and good_report.lift_size == 2
    bad = parse_covering((FIXTURES / "line3_2lift_bad.map.json").read_text(), cover)
    bad_report = verify_covering(cover, base, bad)
    assert not bad_report.valid
    assert bad_report.violations and "vertex" in bad_report.violations[0]
    report(
        9,
        f"2-lift verifies (l=2); corrupted map fails with witness"
        f" {bad_report.violations[0].split(':')[0]!r}",
    )


def test_criterion_10_layout_exactness():
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

    overlay = OperatorOverlay(((0, "Z"), (3, "Z"), (6, "Z")))
    for include_edges in (False, True):
        spec = RenderSpec(include_edges=include_edges)
        doc = emit(table, spec, (overlay,), "json")
        parsed_table, parsed_overlays = parse_layout(doc)
        again = emit(parsed_table, spec, parsed_overlays, "json")
        assert again.encode() == doc.encode()
    report(10, "toric coordinates match the closed forms; JSON round-trip is byte-identical")
