import itertools
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qpc.errors import FormatError, PreconditionError
from qpc.gf2 import BitMatrix, matmul, transpose
from qpc.groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupAlgebraElement,
    GroupAlgebraMatrix,
    binary_map,
    parse_element,
    parse_group_spec,
    parse_ring_matrix,
)
from qpc.tanner import parse_graph

from oracles import (_validate_group_table, add, conj_transpose, emit_ring_matrix, is_abelian,
                     monomial, ring_kron_identity, ring_matmul)


def s3_table():
    """Multiplication table of the symmetric group on 3 points, identity first."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(g[h[x]] for x in range(3))] for h in perms] for g in perms
    ]
    return np.array(table)


def s3():
    return FiniteGroup(s3_table(), spec="S3")


def random_group_table(rng) -> list[list[int]]:
    """A cyclic, direct-product, S3 or dihedral multiplication table, identity first."""
    kind = rng.randrange(4)
    if kind == 0:
        l = rng.randint(1, 12)
        return [[(i + j) % l for j in range(l)] for i in range(l)]
    if kind == 1:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        return [[(i // b + j // b) % a * b + (i + j) % b for j in range(a * b)]
                for i in range(a * b)]
    if kind == 2:
        return s3_table().tolist()
    # D_n as pairs (r, f), r^k f^e at k + n e, with (k, e)(k', e') = (k + (-1)^e k', e + e')
    n = rng.randint(2, 6)
    return [[(i % n + (-1) ** (i // n) * (j % n)) % n + n * ((i // n + j // n) % 2)
             for j in range(2 * n)] for i in range(2 * n)]


def _old_table_check(mul: np.ndarray) -> tuple[int, ...]:
    """The square and range checks `FiniteGroup` made before the numpy table check."""
    order = mul.shape[0]
    if mul.shape != (order, order):
        raise PreconditionError(f"multiplication table must be square, got {mul.shape}")
    if mul.min(initial=0) < 0 or mul.max(initial=0) >= order:
        raise PreconditionError("table entries out of range")
    return _validate_group_table(mul)


def random_element(rng, group, max_terms=3):
    mask = 0
    for _ in range(rng.randint(0, max_terms)):
        mask ^= 1 << rng.randrange(group.order)
    return GroupAlgebraElement(group, mask)


def random_ring_matrix(rng, group, rows, cols):
    return GroupAlgebraMatrix(
        group,
        [[random_element(rng, group) for _ in range(cols)] for _ in range(rows)],
    )


class TestGroupConstruction:
    def test_cyclic_identity_first(self):
        g = FiniteGroup.cyclic(5)
        assert g.multiply(0, 3) == 3
        assert g.multiply(2, 4) == 1
        assert int(g.inv[2]) == 3

    def test_trivial_group(self):
        g = FiniteGroup.cyclic(1)
        assert g.order == 1

    def test_direct_product(self):
        g = FiniteGroup.direct_product(2, 3)
        assert g.order == 6
        x = g.generator_names()["x"]
        y = g.generator_names()["y"]
        assert g.multiply(x, x) == 0
        assert g.multiply(y, g.multiply(y, y)) == 0
        assert is_abelian(g)

    def test_s3_is_a_group_and_nonabelian(self):
        g = s3()
        assert g.order == 6
        assert not is_abelian(g)

    @pytest.mark.parametrize("wrap", [np.array, lambda t: [np.array(row) for row in t],
                                      lambda t: [list(np.array(row)) for row in t]],
                             ids=["array", "array-rows", "numpy-scalars"])
    def test_numpy_tables_give_python_ints(self, wrap):
        # a table of numpy ints kept as such would shift 1 << 70 in int64 and lose the term
        table = [[(i + j) % 100 for j in range(100)] for i in range(100)]
        group = FiniteGroup(wrap(table))
        assert group.mul == FiniteGroup(table).mul
        assert {type(v) for row in group.mul for v in row} == {int}
        x35, x40 = (GroupAlgebraElement(group, 1 << k) for k in (35, 40))
        assert (x35 * x35).support() == (70,) and (x40 * x40 * x40).support() == (20,)

    def test_non_latin_rejected(self):
        with pytest.raises(PreconditionError):
            FiniteGroup([[0, 1], [1, 1]])

    def test_nonassociative_loop_rejected(self):
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(PreconditionError, match="associat"):
            FiniteGroup(loop)

    @pytest.mark.parametrize("order, a", [(512, 3), (1024, 2)])
    def test_large_nonassociative_loop_rejected(self, order, a):
        # Swapping an intercalate of the cyclic table keeps a Latin square
        # with identity 0 but breaks associativity at a handful of triples,
        # which no sample of 20,000 triples is likely to hit.
        idx = np.arange(order)
        mul = (idx[:, None] + idx[None, :]) % order
        b = a + order // 2
        mul[[a, a, b, b], [a, b, a, b]] = mul[[a, a, b, b], [b, a, b, a]]
        assert (np.sort(mul, axis=0) == idx[:, None]).all()
        assert (np.sort(mul, axis=1) == idx).all()
        with pytest.raises(PreconditionError, match="associativity fails at triple"):
            FiniteGroup(mul)

    def test_associativity_witness_is_a_failing_triple(self):
        loop = np.array([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ])
        with pytest.raises(PreconditionError) as info:
            FiniteGroup(loop)
        x, s, y = map(int, re.findall(r"\d+", str(info.value)))
        assert loop[loop[x, s], y] != loop[x, loop[s, y]]

    @pytest.mark.parametrize("group", [
        FiniteGroup.cyclic(1), FiniteGroup.cyclic(12), FiniteGroup.direct_product(4, 6),
        FiniteGroup.direct_product(1, 5),
    ])
    def test_generators_generate_greedily(self, group):
        reached = {0}
        for _ in range(group.order):
            reached |= {group.multiply(w, s) for w in reached for s in group.generators}
        assert reached == set(range(group.order))
        assert 0 not in group.generators
        assert len(group.generators) <= max(group.order.bit_length() - 1, 0)
        assert list(group.generators) == sorted(group.generators)

    @pytest.mark.parametrize("seed", range(3))
    def test_table_check_matches_numpy_oracle(self, seed):
        # Group tables (cyclic, direct products, S3, dihedral), some relabelled, and
        # their perturbations: a swap within a row or a column (no Latin square, only
        # the rows or only the columns Latin), an intercalate swapped (a Latin square
        # that is not associative) or one entry set at random (maybe out of range).
        # The Python check gives the numpy check's verdict, message and generators.
        rng = random.Random(3100 + seed)
        verdicts = Counter()
        for _ in range(80):
            table = np.array(random_group_table(rng))
            order = len(table)
            kind = rng.randrange(6) if order > 2 else 0
            if kind == 1:   # relabel by a permutation fixing the identity: still a group
                sigma = np.array([0] + rng.sample(range(1, order), order - 1))
                table[np.ix_(sigma, sigma)] = sigma[table]
            elif kind in (2, 3):
                x, (u, v) = rng.randrange(1, order), rng.sample(range(1, order), 2)
                line = table[x] if kind == 2 else table[:, x]
                line[[u, v]] = line[[v, u]]
            elif kind == 4:
                swaps = [(x, y, u, v) for x, y in itertools.combinations(range(1, order), 2)
                         for u, v in itertools.combinations(range(1, order), 2)
                         if table[x, u] == table[y, v] and table[x, v] == table[y, u]]
                if swaps:
                    x, y, u, v = rng.choice(swaps)
                    table[[x, x, y, y], [u, v, u, v]] = table[[x, x, y, y], [v, u, v, u]]
            elif kind == 5:
                table[rng.randrange(order), rng.randrange(order)] = rng.randrange(order + 1)
            try:
                want = ("ok", _old_table_check(table))
            except PreconditionError as exc:
                want = ("refused", str(exc))
            try:
                got = ("ok", FiniteGroup(table).generators)
            except PreconditionError as exc:
                got = ("refused", str(exc))
            assert got == want, table.tolist()
            verdicts[want[0] if want[0] == "ok" else want[1].split()[0]] += 1
        assert set(verdicts) == {"ok", "table", "element", "associativity"}, verdicts

    def test_missing_identity_rejected(self):
        with pytest.raises(PreconditionError):
            FiniteGroup([[1, 0], [0, 1]])

    def test_spec_parsing(self):
        assert parse_group_spec("Z4").order == 4
        assert parse_group_spec("Z2xZ2").order == 4
        with pytest.raises(FormatError):
            parse_group_spec("D8")
        for spec in ("Z0", "Z2xZ0", "Z0xZ3"):
            with pytest.raises(FormatError, match="has a cyclic factor of order 0"):
                parse_group_spec(spec)
        with pytest.raises(PreconditionError):
            FiniteGroup.cyclic(0)

    def test_table_text_roundtrip(self):
        table = s3_table()
        text = "6\n" + "\n".join(" ".join(str(v) for v in row) for row in table)
        g = FiniteGroup.from_table_text(text)
        assert g.order == 6
        assert np.array_equal(g.mul, table)


class TestBinaryMap:
    def test_identity_element_maps_to_identity(self):
        for group in (FiniteGroup.cyclic(4), s3()):
            m = GroupAlgebraMatrix(group, [[GroupAlgebraElement(group, 1)]])
            assert binary_map(m) == BitMatrix.identity(group.order)

    def test_z3_generator_is_cyclic_shift(self):
        group = FiniteGroup.cyclic(3)
        z = monomial(group, 1)
        out = binary_map(GroupAlgebraMatrix(group, [[z]]))
        # column q carries a one in row q+1 mod 3
        assert out.to_dense().tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]

    def test_one_plus_z_over_z3(self):
        group = FiniteGroup.cyclic(3)
        e = parse_element("1+x", group)
        out = binary_map(GroupAlgebraMatrix(group, [[e]]))
        assert out.to_dense().tolist() == [[1, 0, 1], [1, 1, 0], [0, 1, 1]]

    def test_ring_homomorphism_on_products(self):
        rng = random.Random(53)
        for group in (FiniteGroup.cyclic(5), FiniteGroup.direct_product(2, 3), s3()):
            for _ in range(15):
                a = random_element(rng, group)
                b = random_element(rng, group)
                ma = GroupAlgebraMatrix(group, [[a]])
                mb = GroupAlgebraMatrix(group, [[b]])
                lhs = binary_map(GroupAlgebraMatrix(group, [[a * b]]))
                rhs = matmul(binary_map(ma), binary_map(mb))
                assert lhs == rhs
                assert binary_map(GroupAlgebraMatrix(group, [[a + b]])) == add(
                    binary_map(ma), binary_map(mb)
                )

    def test_matrix_product_commutes_with_binary_map(self):
        rng = random.Random(59)
        group = FiniteGroup.direct_product(2, 2)
        for _ in range(10):
            a = random_ring_matrix(rng, group, 2, 3)
            b = random_ring_matrix(rng, group, 3, 2)
            assert binary_map(ring_matmul(a, b)) == matmul(binary_map(a), binary_map(b))

    def test_abelian_images_commute(self):
        rng = random.Random(61)
        group = FiniteGroup.cyclic(6)
        for _ in range(10):
            a = binary_map(GroupAlgebraMatrix(group, [[random_element(rng, group)]]))
            b = binary_map(GroupAlgebraMatrix(group, [[random_element(rng, group)]]))
            assert matmul(a, b) == matmul(b, a)

    def test_s3_has_noncommuting_pair(self):
        group = s3()
        found = False
        for g in range(group.order):
            for h in range(group.order):
                a = binary_map(
                    GroupAlgebraMatrix(group, [[monomial(group, g)]])
                )
                b = binary_map(
                    GroupAlgebraMatrix(group, [[monomial(group, h)]])
                )
                if matmul(a, b) != matmul(b, a):
                    found = True
        assert found


class TestConjTranspose:
    def test_one_plus_z_becomes_one_plus_z_squared(self):
        group = FiniteGroup.cyclic(3)
        m = GroupAlgebraMatrix(group, [[parse_element("1+x", group)]])
        out = conj_transpose(m)
        assert out.entries[0][0] == parse_element("1+x^2", group)

    def test_involution(self):
        rng = random.Random(67)
        group = s3()
        m = random_ring_matrix(rng, group, 2, 3)
        assert conj_transpose(conj_transpose(m)) == m

    def test_binary_map_of_conj_transpose_is_transpose(self):
        rng = random.Random(71)
        for group in (FiniteGroup.cyclic(4), s3()):
            for _ in range(10):
                m = random_ring_matrix(rng, group, 2, 3)
                assert binary_map(conj_transpose(m)) == transpose(binary_map(m))


class TestRingKron:
    def test_identity_one_is_neutral(self):
        group = FiniteGroup.cyclic(3)
        m = random_ring_matrix(random.Random(73), group, 2, 2)
        assert ring_kron_identity(m, 1, "left") == m
        assert ring_kron_identity(m, 1, "right") == m

    def test_left_identity_is_block_diagonal(self):
        group = FiniteGroup.cyclic(3)
        m = random_ring_matrix(random.Random(79), group, 2, 2)
        big = binary_map(ring_kron_identity(m, 2, "left"))
        small = binary_map(m).to_dense()
        dense = big.to_dense()
        rows, cols = small.shape
        assert np.array_equal(dense[:rows, :cols], small)
        assert np.array_equal(dense[rows:, cols:], small)
        assert not dense[:rows, cols:].any() and not dense[rows:, :cols].any()

    def test_right_identity_matches_index_rule(self):
        # B(H kron I_r)[i,j] = B(H)[(i mod l) + (i // (r l)) l, (j mod l) + (j // (r l)) l]
        # when floor(i/l) = floor(j/l) mod r, else 0
        rng = random.Random(83)
        group = FiniteGroup.cyclic(3)
        l = group.order
        for _ in range(5):
            m = random_ring_matrix(rng, group, 2, 2)
            r = rng.randint(1, 3)
            big = binary_map(ring_kron_identity(m, r, "right")).to_dense()
            small = binary_map(m).to_dense()
            for i in range(big.shape[0]):
                for j in range(big.shape[1]):
                    if (i // l) % r == (j // l) % r:
                        expect = small[(i % l) + (i // (r * l)) * l,
                                       (j % l) + (j // (r * l)) * l]
                    else:
                        expect = 0
                    assert big[i, j] == expect

    def test_left_identity_matches_index_rule(self):
        # B(I_r kron H)[i,j] = B(H)[i mod ml, j mod nl] when i // ml = j // nl
        rng = random.Random(89)
        group = FiniteGroup.cyclic(2)
        l = group.order
        for _ in range(5):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = random_ring_matrix(rng, group, rows, cols)
            r = rng.randint(1, 3)
            big = binary_map(ring_kron_identity(m, r, "left")).to_dense()
            small = binary_map(m).to_dense()
            ml, nl = rows * l, cols * l
            for i in range(big.shape[0]):
                for j in range(big.shape[1]):
                    expect = small[i % ml, j % nl] if i // ml == j // nl else 0
                    assert big[i, j] == expect


class TestRingMatrixFormat:
    def test_roundtrip_cyclic(self):
        group = FiniteGroup.cyclic(3)
        m = GroupAlgebraMatrix(
            group,
            [
                [parse_element("1+x", group), parse_element("0", group)],
                [parse_element("x^2", group), parse_element("1", group)],
            ],
        )
        assert parse_ring_matrix(emit_ring_matrix(m)) == m

    def test_roundtrip_product_group(self):
        m = parse_ring_matrix("1 2 group=Z2xZ3\n1+x*y^2,y\n")
        assert [[e.support() for e in row] for row in m.entries] == [[(0, 5), (1,)]]
        assert parse_ring_matrix(emit_ring_matrix(m)) == m

    def test_header_errors(self):
        with pytest.raises(FormatError):
            parse_ring_matrix("1 1\n1\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_ring_matrix("1 1 group=Z3\nq\n")

    def test_term_arithmetic(self):
        group = FiniteGroup.cyclic(4)
        assert parse_element("x^2", group).support() == (2,)
        assert parse_element("x+x", group).mask == 0
        assert parse_element("x^4", group).support() == (0,)

    def test_random_roundtrip(self):
        rng = random.Random(97)
        for spec in ("Z2", "Z5", "Z2xZ2"):
            group = parse_group_spec(spec)
            m = random_ring_matrix(rng, group, 2, 3)
            assert parse_ring_matrix(emit_ring_matrix(m)) == m

    def test_zero_row_matrix_keeps_width(self):
        empty = parse_ring_matrix("0 2 group=Z3\n")
        assert empty.shape == (0, 2)
        assert conj_transpose(empty).shape == (2, 0)
        assert binary_map(empty).shape == (0, 6)
        assert parse_ring_matrix(emit_ring_matrix(empty)).shape == (0, 2)

    def test_exponents_reduce_mod_the_order(self):
        group = FiniteGroup.cyclic(3)
        for power in (0, 1, 2, 3, 7, 3_000_000):
            assert parse_element(f"x^{power}", group).support() == (power % 3,)
        s3 = FiniteGroup.from_table_text(
            (Path(__file__).resolve().parent.parent / "fixtures" / "s3.table").read_text())
        for g in range(1, 6):
            loop = 0
            for _ in range(13):
                loop = s3.multiply(loop, g)
            assert parse_element(f"g{g}^13", s3).support() == (loop,)

    def test_exponent_beyond_int_conversion_names_the_line(self):
        with pytest.raises(FormatError, match="^line 3: exponent has more than 4300 digits$"):
            parse_ring_matrix("2 1 group=Z3\n1\nx^" + "7" * 5000 + "\n")

    @pytest.mark.parametrize("spec", [
        "Z99999999999999999999", "Z" + "9" * 5000, "Z2000000000", "Z100000xZ100000",
    ])
    def test_group_beyond_the_largest_array_is_refused(self, spec):
        with pytest.raises(FormatError, match="^group table would exceed the largest array size$"):
            parse_group_spec(spec)

    def test_group_order_limit(self):
        assert parse_group_spec(f"Z32xZ{MAX_GROUP_ORDER // 32}").order == MAX_GROUP_ORDER
        for spec in (f"Z{MAX_GROUP_ORDER + 1}", f"Z2xZ{MAX_GROUP_ORDER // 2 + 1}"):
            with pytest.raises(FormatError, match=f"exceeds the limit {MAX_GROUP_ORDER}$"):
                parse_group_spec(spec)

    def test_negative_dimensions_refused(self):
        for header in ("-1 1", "1 -1"):
            with pytest.raises(FormatError, match="^line 1: expected non-negative dimensions$"):
                parse_ring_matrix(f"{header} group=Z3\n1\n")

    def test_table_file_faults(self):
        with pytest.raises(PreconditionError, match="table entries out of range"):
            FiniteGroup.from_table_text("2\n0 1\n1 99999999999999999999\n")
        with pytest.raises(FormatError, match="null byte"):
            parse_group_spec("table:s3\0.table")


def refusal(parse, text: str) -> str:
    """The message of the FormatError `parse(text)` raises."""
    with pytest.raises(FormatError) as caught:
        parse(text)
    return str(caught.value)


class TestLineNumbers:
    """The ring, table and graph readers name the line a refused text fails at, as
    str.splitlines counts it: blank and comment-only lines count but hold no content."""

    @pytest.mark.parametrize("text, message", [
        ("# ring\n\n  \n1 1\n1\n", "line 4: expected header 'm n group=<spec>'"),
        ("\n# c\n1 x group=Z3\n", "line 3: expected integer dimensions"),
        ("1 -1 group=Z3 # width\n", "line 1: expected non-negative dimensions"),
        ("2 1 group=Z3\n1 # first\n# no second\n\n", "line 4: expected 2 rows of entries"),
        ("2 1 group=Z3\r\n1\r\n\r\nz\r\n", "line 4: cannot parse term 'z'"),
        ("1 2 group=Z3\u2028# c\u20281, q\n", "line 3: cannot parse term 'q'"),
        ("1 2 group=Z3\n\n1 # , x\n", "line 3: expected 2 comma-separated entries"),
        ("# only\n\n", "empty ring-matrix file"),
    ])
    def test_ring(self, text, message):
        assert refusal(parse_ring_matrix, text) == message

    @pytest.mark.parametrize("text, message", [
        ("# S2\n\n2 2\n", "line 3: expected the group order alone"),
        ("2\n0 1\n# row\n1 x\n", "line 4: table entries must be integers"),
        ("2\r\n0 1\r\n\r\n1\r\n", "line 4: expected 2 entries"),
        ("2\u20280 1\u2028\u20281 0 0\n", "line 4: expected 2 entries"),
        ("2 # order\n0 1 # identity\n\n", "expected 2 table rows, got 1"),
        ("\n# none\n", "expected ? table rows, got 0"),
    ])
    def test_table(self, text, message):
        assert refusal(FiniteGroup.from_table_text, text) == message

    @pytest.mark.parametrize("text, message", [
        ("# graph\n\nchecks 1 bits\n", "line 3: expected 'checks <m> bits <n>'"),
        ("vertices 2\n\nv0 v1\n# c\nv0 c1\n", "line 5: expected edge 'v<i> v<j>'"),
        ("checks 1 bits 1\r\n\r\nc0 b0\u2028c0 bx # x\n", "line 4: expected an integer, got 'x'"),
        ("  \n# c\nfoo 1 # bar\n", "line 3: unknown graph header 'foo 1'"),
        ("# c\n \n", "empty graph file"),
    ])
    def test_graph(self, text, message):
        assert refusal(parse_graph, text) == message
