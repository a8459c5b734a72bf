import itertools
import random
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from qpc import analysis, gf2
from qpc.analysis import (
    CSSParams,
    LogicalBasis,
    check_commutation,
    css_distance,
    css_params,
    hgp_canonical_logicals,
    hgp_distance_bound,
    hgp_k_formula,
    logical_count,
    lp_bp_coincide,
)
from qpc.classical import ClassicalCode
from qpc.errors import BudgetError, PreconditionError
from qpc.gf2 import BitMatrix, coset_min_weight, matmul, rank, transpose, vstack
from qpc.groups import (
    FiniteGroup,
    GroupAlgebraMatrix,
    parse_element,
)
from qpc.products import css_from_matrices, hgp, lifted_product

from oracles import (add, from_dense, from_masks, from_row_ints, hamming_7_4_check,
                     repetition_check, row_int, row_weight, rows_as_ints, search_noncommuting_lp,
                     verify_logical_basis)


def rep3():
    return ClassicalCode(repetition_check(3))


def toric():
    return hgp(rep3(), rep3())


def ring_1px(group):
    return GroupAlgebraMatrix(group, [[parse_element("1+x", group)]])


def s3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(g[h[x]] for x in range(3))] for h in perms] for g in perms
    ]
    return FiniteGroup(table, spec="S3")


def in_rowspace(vec_int, h):
    stacked = vstack(h, from_row_ints([vec_int], h.cols))
    return rank(stacked) == rank(h)


def weight_ordered_distance(code, max_weight=4):
    """Oracle: scan vectors of increasing weight for the lightest Z logical."""
    n = code.n
    hx = code.h_x
    for w in range(1, max_weight + 1):
        for support in itertools.combinations(range(n), w):
            vec = 0
            for j in support:
                vec |= 1 << j
            as_col = transpose(from_row_ints([vec], n))
            if not matmul(hx, as_col).is_zero():
                continue
            if not in_rowspace(vec, code.h_z):
                return w
    return None


def brute_force_css_distance(code):
    """Oracle: scan all of F_2^n (n <= 14) for the lightest logical each way."""
    assert code.n <= 14
    best_z = best_x = None
    for vec in range(1, 1 << code.n):
        col = transpose(from_row_ints([vec], code.n))
        w = vec.bit_count()
        if matmul(code.h_x, col).is_zero() and not in_rowspace(vec, code.h_z):
            best_z = w if best_z is None else min(best_z, w)
        if matmul(code.h_z, col).is_zero() and not in_rowspace(vec, code.h_x):
            best_x = w if best_x is None else min(best_x, w)
    return best_x, best_z


def brute_force_coset(checks: BitMatrix, stab: BitMatrix) -> int | None:
    """Oracle: the lightest of all 2^n vectors in kernel(checks) outside rowspace(stab)."""
    n = checks.cols
    vectors = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1   # bit j of v is column j
    in_kernel = ~(vectors @ checks.to_dense().T.astype(np.int64) % 2).any(axis=1)
    span = {0}
    for row in rows_as_ints(stab):
        span |= {s ^ row for s in span}
    outside = [v for v in np.flatnonzero(in_kernel).tolist() if v not in span]
    return min((v.bit_count() for v in outside), default=None)


def random_check_matrix(rng, max_m, max_n, min_n=1):
    m, n = rng.randint(0, max_m), rng.randint(min_n, max_n)
    return from_dense(np.array(
        [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)], dtype=np.uint8
    ).reshape(m, n))


def random_small_css_codes(rng, count):
    """Seeded HGP and commuting LP codes of at most 14 qubits, with k > 0."""
    groups = [FiniteGroup.cyclic(l) for l in range(1, 8)]
    groups += [FiniteGroup.direct_product(2, 2), FiniteGroup.direct_product(2, 3)]
    codes = []
    while len(codes) < count:
        if len(codes) % 2:
            group = rng.choice(groups)
            shapes = [(1, 1), (1, 1)] if group.order > 3 else [(1, rng.randint(1, 2)), (1, 1)]
            m1, m2 = (from_masks(
                group, [[rng.getrandbits(group.order) for _ in range(c)] for _ in range(r)])
                for r, c in shapes)
            code = lifted_product(m1, m2)
        else:
            code = hgp(ClassicalCode(random_check_matrix(rng, 3, 4, 2)),
                       ClassicalCode(random_check_matrix(rng, 2, 3, 2)))
        if code.n <= 14 and code.commuting and logical_count(code):
            codes.append(code)
    return codes


class TestCosetMinWeight:
    def test_classical_codes_match_brute_force(self):
        rng = random.Random(211)
        for _ in range(60):
            h = random_check_matrix(rng, 6, 12)
            empty = BitMatrix.zeros(0, h.cols)
            expected = brute_force_coset(h, empty)
            assert coset_min_weight(h, empty) == expected
            assert ClassicalCode(h).min_distance() == expected

    def test_css_codes_match_brute_force(self):
        rng = random.Random(223)
        kinds = set()
        for code in random_small_css_codes(rng, 40):
            kinds.add(code.provenance["kind"])
            d_z = brute_force_coset(code.h_x, code.h_z)
            d_x = brute_force_coset(code.h_z, code.h_x)
            assert coset_min_weight(code.h_x, code.h_z) == d_z
            assert coset_min_weight(code.h_z, code.h_x) == d_x
            assert css_distance(code) == (d_x, d_z, min(d_x, d_z))
        assert kinds == {"hgp", "lifted_product"}

    def test_classical_and_css_share_the_refusal_boundary(self):
        # budget 2^dim decides, 2^dim - 1 refuses, with the same message on both paths
        def boundary(decide, dim, expected):
            assert decide(1 << dim) == expected
            with pytest.raises(BudgetError) as err:
                decide((1 << dim) - 1)
            assert str(err.value) == (f"distance enumeration refused: needs {1 << dim} steps,"
                                      f" limit is {(1 << dim) - 1}")

        rng = random.Random(227)
        for _ in range(30):
            h = random_check_matrix(rng, 5, 10)
            k = ClassicalCode(h).dimension()
            if k:
                boundary(lambda budget: ClassicalCode(h).min_distance(budget), k,
                         brute_force_coset(h, BitMatrix.zeros(0, h.cols)))
        for code in random_small_css_codes(rng, 20):
            dim = code.n - min(rank(code.h_x), rank(code.h_z))
            boundary(lambda budget: css_distance(code, budget), dim, css_distance(code))

    def test_hamming_rep3_analyze_reduces_each_matrix_once(self, tmp_path, monkeypatch):
        # H_X and H_Z, for their kernels, then the Hamming code's H: each kernel is
        # read off the reduced rows as Python ints, as are the stabilisers, the
        # logical completions and the systematic forms, so no `rref` runs.  Every
        # matrix read from a file is ranked in Python: H^T (k = 0) needs no
        # distance, and rep3 and its transpose are graphs, their distances found by
        # breadth-first search, so none of them is reduced.
        from qpc import cli, gf2

        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        original, original_rref = gf2._kernel, gf2.rref
        shapes, rrefs = [], []

        def counted(m):
            shapes.append(m.shape)
            return original(m)

        def counted_rref(m):
            rrefs.append(m.shape)
            return original_rref(m)

        monkeypatch.chdir(tmp_path)
        codes = ["--c1", str(fixtures / "hamming74.pcm"), "--c2", str(fixtures / "rep3.pcm")]
        with redirect_stdout(StringIO()):
            assert cli.main(["construct", "hgp", *codes, "--out-prefix", "ham"]) == 0
            for module in map(sys.modules.get, [n for n in sys.modules if n.startswith("qpc.")]):
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, counted)
                    elif value is original_rref:
                        monkeypatch.setattr(module, name, counted_rref)
            analyze = ["analyze", "--hx", "ham.hx.alist", "--hz", "ham.hz.alist", *codes]
            assert cli.main(analyze) == 0
        assert shapes == [(9, 30), (21, 30), (3, 7)] and rrefs == []

    def test_hamming_squared_is_decided_beyond_the_walk(self):
        # Hamming(7,4) x Hamming(7,4) is [[58,16,3]]: each direction's kernel has
        # dimension 58 - 21 = 37, past the default budget
        ham = ClassicalCode(hamming_7_4_check())
        code = hgp(ham, ham)
        assert (code.n, logical_count(code)) == (58, 16)
        for checks, stab in ((code.h_x, code.h_z), (code.h_z, code.h_x)):
            assert checks.cols - rank(checks) == 37
            assert coset_min_weight(checks, stab, 1 << 37) == 3
            with pytest.raises(BudgetError):
                coset_min_weight(checks, stab)


class TestCommutation:
    def test_hgp_always_commutes(self):
        ok, pairs = check_commutation(toric())
        assert ok and pairs == []

    def test_checkless_code_commutes(self):
        trivial = ClassicalCode(BitMatrix.zeros(0, 1))
        ok, pairs = check_commutation(hgp(trivial, trivial))
        assert ok

    def test_noncommuting_lp_lists_pairs(self):
        hit = search_noncommuting_lp(s3(), 2, 2, 10_000, seed=11)
        assert hit is not None
        m1, m2, draw = hit
        code = lifted_product(m1, m2)
        ok, pairs = check_commutation(code)
        assert not ok and len(pairs) >= 1
        i, j = pairs[0]
        assert 0 <= i < code.m_x and 0 <= j < code.m_z
        # every anticommuting pair, row-major, as a scan of the dense product lists them
        dense = code.h_x.to_dense().astype(int) @ code.h_z.to_dense().T.astype(int) % 2
        assert pairs == [(i, j) for i in range(code.m_x) for j in range(code.m_z) if dense[i, j]]

    def test_pairs_are_read_off_the_kept_commutator(self, monkeypatch):
        m1, m2, _ = search_noncommuting_lp(s3(), 2, 2, 10_000, seed=11)
        code = lifted_product(m1, m2)
        monkeypatch.setattr(analysis, "matmul_t", lambda a, b: pytest.fail("H_X H_Z^T again"))
        ok, pairs = check_commutation(code)
        assert not ok and len(pairs) == code.commutator.weight() > 0

    def test_seeded_pairs_match_a_dense_scan(self):
        # a tall H_Z with light columns takes the entry-pair product, the rest the packed one
        rng = np.random.default_rng(4321)
        for density in (0.0005, 0.002, 0.02, 0.3):
            for _ in range(5):
                n = int(rng.integers(1, 300))
                h_x = rng.random((rng.integers(0, 100), n)) < density
                h_z = rng.random((rng.integers(0, 3000), n)) < density
                ok, pairs = check_commutation(css_from_matrices(from_dense(h_x),
                                                                from_dense(h_z)))
                dense = h_x.astype(np.float32) @ h_z.T.astype(np.float32) % 2
                assert pairs == list(zip(*map(np.ndarray.tolist, np.nonzero(dense))))
                assert ok == (not pairs)


class TestLogicalCount:
    def test_toric_has_two(self):
        assert logical_count(toric()) == 2

    def test_checkless_code_has_n(self):
        trivial = ClassicalCode(BitMatrix.zeros(0, 1))
        assert logical_count(hgp(trivial, trivial)) == 1

    def test_lifted_z3_example(self):
        group = FiniteGroup.cyclic(3)
        code = lifted_product(ring_1px(group), ring_1px(group))
        assert logical_count(code) == 2

    def test_noncommuting_refused(self):
        m1, m2, _ = search_noncommuting_lp(s3(), 2, 2, 10_000, seed=11)
        code = lifted_product(m1, m2)
        with pytest.raises(PreconditionError):
            logical_count(code)


class TestKFormula:
    def test_rep3_squared(self):
        assert hgp_k_formula(rep3(), rep3()) == 2

    def test_full_rank_square_inputs(self):
        c = ClassicalCode(BitMatrix.identity(3))
        assert hgp_k_formula(c, c) == 0

    def test_hamming_squared(self):
        ham = ClassicalCode(hamming_7_4_check())
        assert hgp_k_formula(ham, ham) == 16

    def test_matches_rank_count_on_random_pairs(self):
        rng = random.Random(137)
        for _ in range(100):
            def rand_code():
                m = rng.randint(1, 5)
                n = rng.randint(1, 7)
                return ClassicalCode(from_dense(
                    np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
                ))
            c1, c2 = rand_code(), rand_code()
            assert logical_count(hgp(c1, c2)) == hgp_k_formula(c1, c2)


class TestDistance:
    def test_toric_parameters(self):
        code = toric()
        d_x, d_z, d = css_distance(code)
        assert (d_x, d_z, d) == (3, 3, 3)
        assert weight_ordered_distance(code) == 3

    def test_lifted_z3_is_distance_two(self):
        group = FiniteGroup.cyclic(3)
        code = lifted_product(ring_1px(group), ring_1px(group))
        d_x, d_z, d = css_distance(code)
        assert d == 2
        oracle_x, oracle_z = brute_force_css_distance(code)
        assert (d_x, d_z) == (oracle_x, oracle_z)

    def test_zero_k_has_no_distance(self):
        c = ClassicalCode(BitMatrix.identity(2))
        code = hgp(c, c)
        assert logical_count(code) == 0
        assert css_distance(code) == (None, None, None)

    def test_budget_refusal(self):
        trivial = ClassicalCode(BitMatrix.zeros(1, 4))
        code = hgp(trivial, trivial)
        with pytest.raises(BudgetError) as err:
            css_distance(code, budget=1 << 10)
        assert err.value.limit == 1 << 10

    def test_budget_edge_is_exact(self):
        # toric [[18,2,3]]: each kernel has dimension 18 - 8 = 10
        rep = ClassicalCode(repetition_check(3))
        code = hgp(rep, rep)
        assert css_distance(code, budget=1 << 10) == (3, 3, 3)
        with pytest.raises(BudgetError) as err:
            css_distance(code, budget=(1 << 10) - 1)
        assert (err.value.exponent, err.value.required_text) == (10, "1024")
        assert str(err.value) == "distance enumeration refused: needs 1024 steps, limit is 1023"

    def test_decided_distance_checks_pivots_against_components(self):
        # A graph H_X with H_Z made heavier by a redundant row (a column of three
        # ones): the Gray-code route eliminates H_X, whose rank its components gave.
        # A code of two graphs is never eliminated.
        h_x, h_z = toric().h_x, toric().h_z
        h_z = vstack(h_z, add(from_row_ints([row_int(h_z, 0)], h_z.cols),
                              from_row_ints([row_int(h_z, 1)], h_z.cols)))
        code = css_from_matrices(h_x, h_z)
        assert gf2._edges(h_x) is not None and gf2._edges(h_z) is None
        code.h_x._rank = rank(code.h_x) - 1
        with pytest.raises(AssertionError, match="the rank found before elimination"):
            css_distance(code)

    def test_refusal_text_stays_decimal_while_python_can_print_it(self):
        # 2^14284 has 4300 digits, the most Python converts to text by default
        assert BudgetError("x", 14284, 1).required_text == str(1 << 14284)
        assert BudgetError("x", 14285, 1).required_text == "2^14285"
        assert str(BudgetError("x", 10**15, 7)) == "x refused: needs 2^1000000000000000 steps, limit is 7"

    def test_matches_brute_force_on_small_random(self):
        rng = random.Random(139)
        tried = 0
        while tried < 6:
            m = rng.randint(1, 2)
            n = rng.randint(2, 3)
            c1 = ClassicalCode(from_dense(
                np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
            ))
            c2 = ClassicalCode(from_dense(
                np.array([[rng.randint(0, 1) for _ in range(2)] for _ in range(1)])
            ))
            code = hgp(c1, c2)
            if code.n > 14 or logical_count(code) == 0:
                continue
            tried += 1
            d_x, d_z, _ = css_distance(code)
            assert (d_x, d_z) == brute_force_css_distance(code)

    def test_params_helper(self):
        params = css_params(toric())
        assert params == CSSParams(n=18, k=2, d=3, d_x=3, d_z=3)


class TestDistanceBound:
    def test_rep3_squared(self):
        assert hgp_distance_bound(rep3(), rep3()) == 3

    def test_hamming_squared_excludes_transpose(self):
        ham = ClassicalCode(hamming_7_4_check())
        assert ham.transpose_code().dimension() == 0
        assert hgp_distance_bound(ham, ham) == 3

    def test_no_bound_when_everything_trivial(self):
        c = ClassicalCode(BitMatrix.identity(2))
        assert hgp_distance_bound(c, c) is None

    def test_distance_at_least_bound_on_random_suite(self):
        rng = random.Random(149)
        checked = 0
        while checked < 10:
            m = rng.randint(1, 2)
            n = rng.randint(2, 4)
            c1 = ClassicalCode(from_dense(
                np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
            ))
            c2 = ClassicalCode(from_dense(
                np.array([[rng.randint(0, 1) for _ in range(3)] for _ in range(rng.randint(1, 2))])
            ))
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
            checked += 1
            assert d >= bound

    def test_each_transposed_code_is_reduced_once(self, monkeypatch):
        # the HGP cross-check: hgp_k_formula, then hgp_distance_bound
        calls = []
        real = gf2._kernel
        monkeypatch.setattr(gf2, "_kernel", lambda m: calls.append(m) or real(m))
        c1, c2 = ClassicalCode(hamming_7_4_check()), rep3()
        assert hgp_k_formula(c1, c2) == 4
        assert hgp_distance_bound(c1, c2) == 3
        assert c1.transpose_code() is c1.transpose_code()
        # rep3 and its transpose are graphs: ranked by components, never reduced;
        # the Hamming transpose (k = 0) is ranked as Python ints, never reduced
        for code in (c1, c2, c1.transpose_code(), c2.transpose_code()):
            assert sum(m is code.h for m in calls) == (code is c1)

    def test_toric_meets_bound_exactly(self):
        _, _, d = css_distance(toric())
        assert d == hgp_distance_bound(rep3(), rep3())


def oracle_canonical_logicals(c1: ClassicalCode, c2: ClassicalCode) -> LogicalBasis:
    """Reference: the bit-scatter loops that the packed kron replaced."""
    k1, k2 = c1.dimension(), c2.dimension()
    c1t, c2t = c1.transpose_code(), c2.transpose_code()
    k1t, k2t = c1t.dimension(), c2t.dimension()
    total = k1 * k2 + k1t * k2t
    if total == 0:
        raise PreconditionError("code has no logical qubits")
    n1, m1 = c1.n, c1.m
    n2, m2 = c2.n, c2.m
    n = n1 * n2 + m1 * m2

    def pack(rows):
        return from_row_ints(rows, n)

    z_rows = []
    x_rows = []
    if k1 * k2:
        sys1 = c1.systematic_basis()
        sys2 = c2.systematic_basis()
        gen1 = rows_as_ints(sys1.generator)
        gen2 = rows_as_ints(sys2.generator)
        for a in range(k1):
            for b in range(k2):
                word = gen1[a]
                pos = sys2.column_permutation[b]
                vec = 0
                j1 = 0
                while word:
                    if word & 1:
                        vec |= 1 << (j1 * n2 + pos)
                    word >>= 1
                    j1 += 1
                z_rows.append(vec)
                word2 = gen2[b]
                posa = sys1.column_permutation[a]
                vec2 = 0
                j2 = 0
                while word2:
                    if word2 & 1:
                        vec2 |= 1 << (posa * n2 + j2)
                    word2 >>= 1
                    j2 += 1
                x_rows.append(vec2)
    if k1t * k2t:
        sys1t = c1t.systematic_basis()
        sys2t = c2t.systematic_basis()
        gen1t = rows_as_ints(sys1t.generator)
        gen2t = rows_as_ints(sys2t.generator)
        offset = n1 * n2
        for c in range(k1t):
            for d in range(k2t):
                posc = sys1t.column_permutation[c]
                word = gen2t[d]
                vec = 0
                j2 = 0
                while word:
                    if word & 1:
                        vec |= 1 << (offset + posc * m2 + j2)
                    word >>= 1
                    j2 += 1
                z_rows.append(vec)
                word2 = gen1t[c]
                posd = sys2t.column_permutation[d]
                vec2 = 0
                j1 = 0
                while word2:
                    if word2 & 1:
                        vec2 |= 1 << (offset + j1 * m2 + posd)
                    word2 >>= 1
                    j1 += 1
                x_rows.append(vec2)

    basis = LogicalBasis(
        x_logicals=pack(x_rows),
        z_logicals=pack(z_rows),
        pairing=matmul(pack(x_rows), transpose(pack(z_rows))),
    )
    if basis.pairing != BitMatrix.identity(total):
        raise AssertionError("canonical logical pairing failed to reduce to identity")
    return basis


class TestCanonicalLogicals:
    def test_toric_pairs(self):
        basis = hgp_canonical_logicals(rep3(), rep3())
        assert basis.x_logicals.rows == 2
        assert basis.pairing == BitMatrix.identity(2)
        # each Z logical is the weight-3 repetition word along one line
        assert row_weight(basis.z_logicals, 0) == 3
        assert row_weight(basis.z_logicals, 1) == 3
        verify_logical_basis(toric(), basis)

    def test_zero_k_refused(self):
        c = ClassicalCode(BitMatrix.identity(2))
        with pytest.raises(PreconditionError):
            hgp_canonical_logicals(c, c)

    def test_hamming_square_left_block_only(self):
        ham = ClassicalCode(hamming_7_4_check())
        basis = hgp_canonical_logicals(ham, ham)
        assert basis.x_logicals.rows == 16
        assert basis.pairing == BitMatrix.identity(16)
        verify_logical_basis(hgp(ham, ham), basis)

    def test_transpose_only_blocks(self):
        # 1 check, 1 bit, zero entry: k = 1 and k^T = 1
        wide = ClassicalCode(BitMatrix.zeros(2, 1))
        tall = ClassicalCode(from_dense([[1], [1]]))
        # tall: k = 0, k^T = 1; wide: k = 1, k^T = 2 -> only Q2 pairs survive
        assert hgp_k_formula(tall, tall) == 1
        basis = hgp_canonical_logicals(tall, tall)
        assert basis.x_logicals.rows == 1
        verify_logical_basis(hgp(tall, tall), basis)

    def test_random_instances_verify(self):
        rng = random.Random(151)
        built = 0
        while built < 8:
            m = rng.randint(1, 3)
            n = rng.randint(1, 4)
            c1 = ClassicalCode(from_dense(
                np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
            ))
            c2 = ClassicalCode(from_dense(
                np.array([[rng.randint(0, 1) for _ in range(3)] for _ in range(2)])
            ))
            if hgp_k_formula(c1, c2) == 0:
                continue
            built += 1
            basis = hgp_canonical_logicals(c1, c2)
            verify_logical_basis(hgp(c1, c2), basis)
            assert basis.x_logicals.rows == hgp_k_formula(c1, c2)

    def test_matches_bit_scatter_loops(self):
        rng = random.Random(907)
        pairs = [(rep3(), rep3()), (ClassicalCode(hamming_7_4_check()), rep3()),
                 (ClassicalCode(from_dense([[1], [1]])),) * 2,
                 (ClassicalCode(repetition_check(5)), ClassicalCode(hamming_7_4_check()))]
        while len(pairs) < 60:
            c1, c2 = (ClassicalCode(from_dense(np.array(
                [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            ))) for n in (rng.randint(1, 6), rng.randint(1, 6)))
            if hgp_k_formula(c1, c2):
                pairs.append((c1, c2))
        for c1, c2 in pairs:
            assert hgp_canonical_logicals(c1, c2) == oracle_canonical_logicals(c1, c2)


class TestLpBpCoincidence:
    def test_z3_fixture(self):
        group = FiniteGroup.cyclic(3)
        same, perm = lp_bp_coincide(ring_1px(group), ring_1px(group))
        assert same
        assert perm == list(range(6))

    def test_trivial_group(self):
        group = FiniteGroup.cyclic(1)
        m = from_masks(group, [[1, 1]])
        same, perm = lp_bp_coincide(m, m)
        assert same

    def test_z2xz2_random_monomials(self):
        rng = random.Random(157)
        group = FiniteGroup.direct_product(2, 2)
        for _ in range(10):
            def monomials(rows, cols):
                return from_masks(
                    group,
                    [[1 << rng.randrange(4) for _ in range(cols)] for _ in range(rows)],
                )
            same, _ = lp_bp_coincide(monomials(2, 2), monomials(2, 2))
            assert same

    def test_nonabelian_lift_rejected(self):
        # left multiplication by a non-central element tears the second
        # graph, so the paired regular actions do not exist
        group = s3()
        transposition = from_masks(group, [[1 << 1]])
        with pytest.raises(PreconditionError, match="lift"):
            lp_bp_coincide(transposition, transposition)


class TestNoncommutingSearch:
    def test_s3_search_finds_instance(self):
        hit = search_noncommuting_lp(s3(), 2, 2, 10_000, seed=2024)
        assert hit is not None
        _, _, draw = hit
        assert draw < 10_000

    def test_abelian_draws_always_commute(self):
        for spec in ("Z2", "Z3", "Z4", "Z2xZ2"):
            group = (
                FiniteGroup.direct_product(2, 2)
                if spec == "Z2xZ2"
                else FiniteGroup.cyclic(int(spec[1:]))
            )
            assert search_noncommuting_lp(group, 2, 2, 60, seed=5) is None

    def test_search_is_deterministic(self):
        a = search_noncommuting_lp(s3(), 2, 2, 200, seed=77)
        b = search_noncommuting_lp(s3(), 2, 2, 200, seed=77)
        if a is None:
            assert b is None
        else:
            assert a[2] == b[2] and a[0] == b[0]
