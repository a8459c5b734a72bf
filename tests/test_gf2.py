import random
import time
from collections import Counter

import numpy as np
import pytest

from qpc import gf2
from qpc.classical import ClassicalCode
from qpc.errors import DimensionError
from qpc.gf2 import (
    BitMatrix,
    _row_ints,
    hstack,
    kernel_basis,
    kron,
    matmul,
    matmul_t,
    min_weight,
    rank,
    rref,
    transpose,
    vstack,
)
from qpc.groups import FiniteGroup
from qpc.products import hgp, lifted_product

from oracles import (coset_rows, entries, from_dense, from_masks, from_row_ints, from_words,
                     gray_walk, packed_words, repetition_check, row_int, row_ops, row_weight,
                     rows_as_ints)

# Circulant parity check of the 3-bit repetition code; its rows sum to zero.
CIRC = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def bm(rows):
    return from_dense(np.array(rows, dtype=np.uint8))


def random_bitmatrix(rng, rows, cols):
    return from_dense(
        np.array([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)])
    )


class TestStorage:
    def test_pack_unpack_roundtrip(self):
        rng = random.Random(7)
        for _ in range(25):
            r = rng.randint(0, 9)
            c = rng.randint(0, 130)
            dense = np.array(
                [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)],
                dtype=np.uint8,
            ).reshape(r, c)
            m = from_dense(dense)
            assert np.array_equal(m.to_dense(), dense)
            assert m.weight() == int(dense.sum())

    def test_entry_access(self):
        m = bm(CIRC)
        assert entries(m, [0, 0, 2], [0, 2, 1]).tolist() == [True, False, False]

    @pytest.mark.parametrize("i, j", [([0], [40]), ([0], [-1]), ([3], [0]), ([-1], [0]),
                                      ([0, 2], [1, 3]), (0, 64)])
    def test_entries_outside_the_shape_raise(self, i, j):
        # (0, 40) and (0, -1) lie in row 0's word, past the last column
        with pytest.raises(IndexError, match=r"out of range for \(3, 3\)"):
            entries(bm(CIRC), i, j)

    def test_row_ints(self):
        m = bm([[1, 0, 1, 1]])
        assert row_int(m, 0) == 0b1101
        back = from_row_ints([0b1101], 4)
        assert back == m

    def test_wide_matrix_crosses_word_boundary(self):
        dense = np.zeros((2, 150), dtype=np.uint8)
        dense[0, 149] = 1
        dense[1, 63] = 1
        dense[1, 64] = 1
        m = from_dense(dense)
        assert entries(m, [0, 1, 1], [149, 63, 64]).all()
        assert m.weight() == 3


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank(BitMatrix.zeros(2, 5)) == 0

    def test_circulant_rows_sum_to_zero(self):
        assert rank(bm(CIRC)) == 2

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(11)
        for _ in range(30):
            m = random_bitmatrix(rng, rng.randint(1, 8), rng.randint(1, 9))
            assert rank(m) == rank(transpose(m))


def int_rank(row_ints: list[int]) -> int:
    """Rank by Python-int elimination: each row is reduced by the basis rows at its lowest ones."""
    basis: dict[int, int] = {}
    for v in row_ints:
        while v and v & -v in basis:
            v ^= basis[v & -v]
        if v:
            basis[v & -v] = v
    return len(basis)


def graph_matrix(rng: random.Random) -> tuple[int, int, list[list[int]]]:
    """rows, cols and each column's rows: none, one or two, from one block of rows.

    Row r is in block r % blocks, so several components are common, and
    some rows hold no one.
    """
    rows = rng.randint(0, rng.choice((4, 12, 12, 80)))
    cols = rng.randint(0, rng.choice((6, 24, 24, 140)))
    blocks = rng.randint(1, max(rows, 1))
    column_rows = []
    for _ in range(cols):
        block = range(rng.randrange(blocks), rows, blocks)
        column_rows.append(rng.sample(block, min(rng.choice((0, 1, 2, 2)), len(block))))
    return rows, cols, column_rows


def from_columns(rows: int, cols: int, column_rows: list[list[int]]) -> BitMatrix:
    entries = [(r, c) for c, rs in enumerate(column_rows) for r in rs]
    return BitMatrix.from_entries(rows, cols, [r for r, _ in entries], [c for _, c in entries])


def flat_from_columns(rows: int, cols: int, column_rows: list[list[int]]) -> BitMatrix:
    """The same matrix as `from_columns`, kept as flat positions the way the readers give it."""
    flat = [r * cols + c for c, rs in enumerate(column_rows) for r in rs]
    return BitMatrix(rows, cols, flat=flat)


class TestComponentRank:
    """`rank` of a graph, or of any other matrix, runs no `rref`."""

    def test_against_int_elimination(self):
        # every path of `rank`: the components of a graph, else one `_echelon` of
        # Python ints, for a matrix packed or read as flat positions.  The kernel of
        # a fresh copy agrees with the rank found.
        rng = random.Random(1818)
        seen = Counter()
        echelon = gf2._echelon
        with pytest.MonkeyPatch.context() as patch:
            for trial in range(2400):
                rows, cols, column_rows = graph_matrix(rng)
                three = trial % 6 == 0 and rows >= 3 and cols
                if three:                               # one column with three ones
                    column_rows[rng.randrange(cols)] = rng.sample(range(rows), 3)
                dense = trial % 6 == 1
                if dense:                               # each entry a one with odds 1/2
                    column_rows = [[r for r in range(rows) if rng.random() < 0.5]
                                   for _ in range(cols)]
                expected = int_rank([sum(1 << c for c, rs in enumerate(column_rows) if r in rs)
                                     for r in range(rows)])
                for m in (from_columns(rows, cols, column_rows),
                          flat_from_columns(rows, cols, column_rows)):
                    graph = max(map(len, column_rows), default=0) <= 2
                    path = "components" if graph else "ints"
                    eliminated = []
                    patch.setattr(gf2, "_echelon", lambda rows: eliminated.append(rows) or echelon(rows))
                    got = rank(m)
                    assert rank(m) == got                # remembered: no second elimination
                    patch.undo()
                    assert got == expected, (rows, cols, column_rows)
                    assert len(eliminated) == (path == "ints"), path
                    copy = BitMatrix(m.rows, m.cols, list(m._flat))
                    assert len(gf2._kernel(copy)) == cols - expected
                    seen[path] += 1
                    seen["flat " + path] += m._flat is not None
                touched = {r for rs in column_rows for r in rs}
                seen["empty"] += rows == 0 or cols == 0
                seen["one_one"] += any(len(rs) == 1 for rs in column_rows)
                seen["empty_row"] += 0 < len(touched) < rows
                seen["several components"] += rows - expected > 1
                seen["three"] += bool(three)
                seen["dense"] += dense and rows * cols > 0
        assert len(seen) == 10 and min(seen.values()) >= 50, seen

    def test_toric_checks_have_one_unmarked_component(self):
        # the L x L toric code's H_X: L^2 checks in one component, no one-one column
        c = ClassicalCode(repetition_check(16))
        code = hgp(c, c)
        assert (rank(code.h_x), rank(code.h_z)) == (255, 255)

    def test_columns_are_grouped_at_most_once(self, monkeypatch):
        # rank, the commutator and the distance share one reading of a matrix's
        # columns; a matrix that averages more than two ones a column is no graph
        # without one, and a reading stops at the third one of a column
        read = []
        monkeypatch.setattr(BitMatrix, "ones", lambda m: (read.append(m.shape) or divmod(p, m.cols)
                                                          for p in m._flat))
        h = BitMatrix(5, 6, flat=[p for i in range(5) for p in (7 * i, 7 * i + 1)])  # rep. code
        assert rank(h) == 5 and gf2.coset_min_weight(h) == 6
        assert matmul_t(BitMatrix.zeros(2, 6), h).is_zero()
        assert read == [(5, 6)] * 10
        dense = BitMatrix(3, 4, flat=[0, 1, 2, 3, 5, 6, 7, 8, 10])  # nine ones, rank 3
        assert gf2._edges(dense) is None and rank(dense) == 3 and read == [(5, 6)] * 10
        heavy = BitMatrix(3, 40, flat=[0, 40, 80, *range(1, 40)])  # column 0 first, then row 0
        assert gf2._edges(heavy) is None and gf2._edges(heavy) is None
        assert rank(heavy) == 2 and matmul_t(heavy, heavy).shape == (3, 3)
        assert read[10:] == [(3, 40)] * 3

    def test_kernel_refuses_a_rank_it_disagrees_with(self):
        # the rank found before, by components or by Python ints, against the pivots
        heavy = BitMatrix(3, 4, flat=[0, 4, 8, 1, 6, 11])  # column 0 holds three ones
        for m, r in ((repetition_check(5), 4), (heavy, 3)):
            assert rank(m) == r
            m._rank = r - 1
            with pytest.raises(AssertionError, match="the rank found before elimination"):
                gf2._kernel(m)
            m._rank = r
            assert len(gf2._kernel(m)) == m.cols - r


class TestRref:
    def test_identity_already_reduced(self):
        res = rref(BitMatrix.identity(2))
        assert res.rref == BitMatrix.identity(2)
        assert res.pivot_cols == (0, 1)

    def test_circulant_manual_elimination(self):
        res = rref(bm(CIRC))
        assert res.rref == bm([[1, 0, 1], [0, 1, 1], [0, 0, 0]])
        assert res.pivot_cols == (0, 1)
        assert res.rank == 2

    def test_zero_matrix(self):
        res = rref(BitMatrix.zeros(3, 4))
        assert res.rref == BitMatrix.zeros(3, 4)
        assert res.pivot_cols == ()

    def test_row_ops_reproduce_rref(self):
        rng = random.Random(3)
        for _ in range(40):
            m = random_bitmatrix(rng, rng.randint(1, 7), rng.randint(1, 9))
            res = rref(m)
            assert matmul(row_ops(m), m) == res.rref
            # row_ops is invertible
            assert rank(row_ops(m)) == m.rows

    def test_pivot_cols_strictly_increasing(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_bitmatrix(rng, 5, 8)
            piv = rref(m).pivot_cols
            assert all(a < b for a, b in zip(piv, piv[1:]))

    def test_wide_matrices_against_dense_oracle(self):
        # elimination across word boundaries vs a plain uint8 row-reduction
        def dense_rank(dense):
            work = dense.copy()
            r = 0
            for c in range(work.shape[1]):
                rows = np.nonzero(work[r:, c])[0]
                if rows.size == 0:
                    continue
                p = r + rows[0]
                work[[r, p]] = work[[p, r]]
                others = np.nonzero(work[:, c])[0]
                for o in others:
                    if o != r:
                        work[o] ^= work[r]
                r += 1
                if r == work.shape[0]:
                    break
            return r

        rng = random.Random(7919)
        for _ in range(10):
            rows, cols = rng.randint(3, 8), rng.randint(100, 180)
            dense = np.array(
                [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)],
                dtype=np.uint8,
            )
            m = from_dense(dense)
            res = rref(m)
            assert res.rank == dense_rank(dense)
            assert matmul(row_ops(m), m) == res.rref
            basis = kernel_basis(m)
            assert basis.rows == cols - res.rank
            assert matmul(m, transpose(basis)).is_zero()


class TestKernel:
    def test_full_column_rank_has_empty_kernel(self):
        assert kernel_basis(BitMatrix.identity(3)).rows == 0

    def test_circulant_kernel_is_all_ones(self):
        basis = kernel_basis(bm(CIRC))
        assert basis.rows == 1
        assert basis.to_dense().tolist() == [[1, 1, 1]]

    def test_zero_matrix_kernel_is_everything(self):
        basis = kernel_basis(BitMatrix.zeros(2, 3))
        assert basis.rows == 3
        assert rank(basis) == 3

    def test_kernel_members_annihilate(self):
        rng = random.Random(13)
        for _ in range(30):
            m = random_bitmatrix(rng, rng.randint(1, 6), rng.randint(1, 9))
            basis = kernel_basis(m)
            assert basis.rows == m.cols - rank(m)
            if basis.rows:
                assert matmul(m, transpose(basis)).is_zero()
                assert rank(basis) == basis.rows


    def test_matches_free_column_loop(self):
        # the per-free-column fill that the kernel's int rows replaced
        def loop_kernel(m):
            res = rref(m)
            free = [c for c in range(m.cols) if c not in set(res.pivot_cols)]
            dense = np.zeros((len(free), m.cols), dtype=np.uint8)
            reduced = res.rref.to_dense()
            for t, f in enumerate(free):
                dense[t, f] = 1
                for row, col in enumerate(res.pivot_cols):
                    dense[t, col] = reduced[row, f]
            return from_dense(dense) if free else BitMatrix.zeros(0, m.cols)

        rng = random.Random(17)
        for _ in range(60):
            m = random_bitmatrix(rng, rng.randint(0, 9), rng.randint(0, 150))
            assert kernel_basis(m) == loop_kernel(m)
            assert gf2._kernel(m) == _row_ints(loop_kernel(m))


    def test_matches_dense_oracle_across_word_boundaries(self):
        # kernel of the dense rref: identity on free columns, the rref's free
        # columns (transposed) on pivot columns
        rng = np.random.default_rng(31)
        shapes = [(0, 0), (0, 70), (70, 0), (1, 64), (64, 1), (70, 150), (150, 70), (130, 130)]
        shapes += [tuple(rng.integers(0, 160, 2)) for _ in range(40)]
        for rows, cols in shapes:
            dense = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
            if rows > 2:
                dense[rows // 2:] = dense[: rows - rows // 2] ^ dense[rows - rows // 2 - 1]
            res = rref(from_dense(dense))
            reduced = res.rref.to_dense()
            free = [c for c in range(cols) if c not in res.pivot_cols]
            oracle = np.zeros((len(free), cols), dtype=np.uint8)
            oracle[np.arange(len(free)), free] = 1
            oracle[:, list(res.pivot_cols)] = reduced[: res.rank][:, free].T
            kernel = kernel_basis(from_dense(dense))
            assert kernel.shape == (len(free), cols)
            assert np.array_equal(kernel.to_dense(), oracle), (rows, cols)
            assert not (dense.astype(int) @ oracle.T.astype(int) % 2).any()


class TestLazyRowOps:
    def test_row_ops_of_wide_and_empty_inputs(self):
        rng = random.Random(19)
        for rows, cols in [(0, 0), (0, 5), (4, 0), (3, 64), (5, 130), (70, 3)]:
            m = random_bitmatrix(rng, rows, cols) if rows and cols else BitMatrix.zeros(rows, cols)
            res, ops = rref(m), row_ops(m)
            assert ops.shape == (rows, rows)
            assert matmul(ops, m) == res.rref
            assert rank(ops) == rows


class TestPackedTranspose:
    def test_matches_dense_transpose(self):
        # the dense round trip that the packed transpose replaced
        rng = np.random.default_rng(23)
        shapes = [(r, c) for r in (0, 1, 7, 8, 63, 64, 65, 129) for c in (0, 1, 8, 64, 65, 200)]
        shapes += [tuple(rng.integers(0, 300, 2)) for _ in range(200)]
        for rows, cols in shapes:
            dense = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
            m = from_dense(dense)
            t = transpose(m)
            assert t == from_dense(dense.T), (rows, cols)
            assert transpose(t) == m

    def test_padding_bits_stay_zero(self):
        m = from_dense(np.ones((70, 3), dtype=np.uint8))
        t = transpose(m)
        assert t.weight() == 210
        assert row_weight(t, 0) == 70


class TestEntries:
    def test_from_entries_and_entries(self):
        rng = np.random.default_rng(29)
        dense = rng.integers(0, 2, (9, 140), dtype=np.uint8)
        i, j = np.nonzero(dense)
        m = BitMatrix.from_entries(9, 140, np.concatenate([i, i]), np.concatenate([j, j]))
        assert m == from_dense(dense)
        qi, qj = rng.integers(0, 9, 500), rng.integers(0, 140, 500)
        assert np.array_equal(entries(m, qi, qj), dense[qi, qj] == 1)

    def test_from_entries_matches_dense_with_repeats(self):
        assert BitMatrix.from_entries(0, 0, [], []) == BitMatrix.zeros(0, 0)
        assert BitMatrix.from_entries(5, 70, [], []) == BitMatrix.zeros(5, 70)
        assert BitMatrix.from_entries(0, 70, [], []) == BitMatrix.zeros(0, 70)
        assert BitMatrix.from_entries(2, 3, range(2), [2, 0]) == bm([[0, 0, 1], [1, 0, 0]])
        rng = np.random.default_rng(1213)
        for rows, cols in ((1, 1), (3, 64), (9, 65), (40, 300), (200, 1)):
            for count in (1, 10, 500):
                i, j = rng.integers(0, rows, count), rng.integers(0, cols, count)
                # a third of the positions again, and the bits of one word all set twice
                i = np.concatenate([i, i[::3], np.zeros(min(cols, 64), dtype=np.int64)])
                j = np.concatenate([j, j[::3], np.arange(min(cols, 64))])
                i, j = np.concatenate([i, i]), np.concatenate([j, j])
                dense = np.zeros((rows, cols), dtype=np.uint8)
                dense[i, j] = 1
                got = BitMatrix.from_entries(rows, cols, i, j)
                assert got == from_dense(dense), (rows, cols, count)


class TestKron:
    def test_identity_left_gives_block_diagonal(self):
        h = bm(CIRC)
        out = kron(BitMatrix.identity(2), h)
        dense = out.to_dense()
        assert np.array_equal(dense[:3, :3], h.to_dense())
        assert np.array_equal(dense[3:, 3:], h.to_dense())
        assert not dense[:3, 3:].any() and not dense[3:, :3].any()

    def test_right_identity_matches_index_rule(self):
        # (H kron I_r)[i, j] = H[i//r, j//r] when i = j mod r, else 0
        h = bm(CIRC).to_dense()
        r = 2
        out = kron(bm(CIRC), BitMatrix.identity(r)).to_dense()
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                expect = h[i // r, j // r] if i % r == j % r else 0
                assert out[i, j] == expect

    def test_left_identity_matches_index_rule(self):
        # (I_r kron H)[i, j] = H[i mod m, j mod n] when i//m = j//n, else 0
        rng = random.Random(17)
        for _ in range(10):
            m_rows, n_cols, r = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
            h = random_bitmatrix(rng, m_rows, n_cols)
            out = kron(BitMatrix.identity(r), h).to_dense()
            h = h.to_dense()
            for i in range(out.shape[0]):
                for j in range(out.shape[1]):
                    expect = (
                        h[i % m_rows, j % n_cols]
                        if i // m_rows == j // n_cols
                        else 0
                    )
                    assert out[i, j] == expect

    def test_scalar_one_is_neutral(self):
        h = bm(CIRC)
        assert kron(bm([[1]]), h) == h


class TestArithmetic:
    def test_hstack_shapes(self):
        out = hstack(BitMatrix.identity(2), BitMatrix.zeros(2, 1))
        assert out.shape == (2, 3)
        assert out.to_dense().tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_matmul_circulant_times_its_transpose(self):
        h = bm(CIRC)
        out = matmul(h, transpose(h))
        assert out == bm([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_vstack(self):
        out = vstack(BitMatrix.identity(2), BitMatrix.zeros(1, 2))
        assert out.to_dense().tolist() == [[1, 0], [0, 1], [0, 0]]

    def test_dimension_errors_carry_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)|\(2, 3\)"):
            matmul(bm(CIRC[:2]), bm(CIRC[:2]))
        with pytest.raises(DimensionError):
            hstack(bm(CIRC), bm([[1, 0]]))

    def test_matmul_against_numpy(self):
        rng = random.Random(23)
        for _ in range(25):
            a = random_bitmatrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            b = random_bitmatrix(rng, a.cols, rng.randint(1, 7))
            expect = (a.to_dense().astype(int) @ b.to_dense().astype(int)) % 2
            assert np.array_equal(matmul(a, b).to_dense(), expect)

    def test_empty_shapes(self):
        empty = BitMatrix.zeros(0, 4)
        assert matmul(empty, BitMatrix.zeros(4, 2)).shape == (0, 2)
        assert transpose(empty).shape == (4, 0)
        assert kron(empty, BitMatrix.identity(2)).shape == (0, 8)


def oracle_rref(m: BitMatrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reference: a per-column elimination on the packed words, one pivot at a time."""
    r = packed_words(m).copy()
    pivots: list[int] = []
    pr = 0
    for c in range(m.cols):
        if pr == m.rows:
            break
        w = c >> 6
        bit = np.uint64(c & 63)
        hits = np.nonzero((r[pr:, w] >> bit) & np.uint64(1))[0]
        if hits.size == 0:
            continue
        p = pr + int(hits[0])
        if p != pr:
            r[[pr, p]] = r[[p, pr]]
        others = np.nonzero((r[:, w] >> bit) & np.uint64(1))[0]
        others = others[others != pr]
        if others.size:
            r[others] ^= r[pr]
        pivots.append(c)
        pr += 1
    return r, tuple(pivots)


def oracle_matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Reference: the dense-row matmul that the packed gather replaced."""
    out = np.zeros((a.rows, packed_words(b).shape[1]), dtype=np.uint64)
    dense_a = a.to_dense()
    for i in range(a.rows):
        picked = np.nonzero(dense_a[i])[0]
        if picked.size:
            out[i] = np.bitwise_xor.reduce(packed_words(b)[picked], axis=0)
    return from_words(out, b.cols)


def oracle_shapes():
    """Seeded matrices of the shapes elimination and the packed kernels must handle:
    widths about one, two and three words, rows past the width, duplicate rows."""
    rng = np.random.default_rng(2024)
    out = [np.zeros((0, 0)), np.zeros((0, 7)), np.zeros((5, 0)), np.zeros((0, 129))]
    for cols in (1, 63, 64, 65, 127, 129):
        for rows in (1, 7, 64, 150):                  # 150 rows exceed most widths
            for density in (0.02, 0.5):
                out.append(rng.random((rows, cols)) < density)
        out.append(np.ones((9, cols)))
        half = rng.integers(0, 2, (6, cols))
        out.append(half[rng.integers(0, 6, 12)])      # duplicate rows
    for _ in range(40):
        rows, cols = rng.integers(1, 90, 2)
        out.append(rng.random((rows, cols)) < rng.choice([0.01, 0.1, 0.5, 0.9]))
    return [from_dense(d.astype(np.uint8)) for d in out]


def block_edge_cases():
    """Seeded matrices each tried against the oracle: Z127 lifted-product checks, zero
    word runs between non-zero ones, low-rank leading columns, and dense shapes."""
    rng = np.random.default_rng(127)
    group = FiniteGroup.cyclic(127)
    ring = lambda: from_masks(  # noqa: E731  two-term entries over Z127
        group, [[sum(1 << int(e) for e in rng.choice(127, 2, replace=False)) for _ in range(3)]
                for _ in range(2)])
    lifted = lifted_product(ring(), ring())
    out = [lifted.h_x, lifted.h_z]                       # 762 x 1651 each
    gaps = rng.random((150, 320)) < 0.5
    gaps[:, 64:192] = False                             # zero words between non-zero ones
    gaps[:, 256:] &= rng.random((150, 64)) < 0.05
    out.append(gaps)
    sparse = np.zeros((90, 400), dtype=bool)
    sparse[rng.integers(0, 90, 30), rng.integers(0, 400, 30)] = True
    sparse[:, 130:260] = False
    out.append(sparse)
    # 200 rows of rank 40 in the first 64 columns, then random columns
    low_rank = (rng.integers(0, 2, (200, 40)) @ rng.integers(0, 2, (40, 64))) % 2
    out.append(np.hstack([low_rank, rng.random((200, 100)) < 0.5]))
    out.append(np.hstack([low_rank[:, :50], np.zeros((200, 100)), low_rank]))
    # the first 64 columns: 100 rows of rank 10, then 200 rows adding rank 20
    first, later = (rng.integers(0, 2, (rows, rank)) @ rng.integers(0, 2, (rank, 64)) % 2
                    for rows, rank in ((100, 10), (200, 20)))
    out.append(np.hstack([np.vstack([first, later]), rng.random((300, 80)) < 0.5]))
    for shape in ((300, 700), (700, 300), (500, 1000), (129, 1000)):
        out.append(rng.random(shape) < 0.5)
    return [m if isinstance(m, BitMatrix) else from_dense(m.astype(np.uint8))
            for m in out]


def word_views():
    """Seeded matrices, and matrices cut from others: a reduced basis of one, every
    other row of one, and the first word column (64 columns) of a wider one.
    """
    rng = np.random.default_rng(1212)
    out = oracle_shapes()
    for rows, cols in ((0, 130), (7, 0), (40, 64), (33, 200), (9, 129)):
        m = from_dense(rng.random((rows, cols)) < 0.3)
        res = rref(m)
        out.append(BitMatrix(res.rank, cols, res.rref._flat))
        out.append(from_words(packed_words(m)[::2], cols))
        if cols > 64:
            out.append(from_words(packed_words(m)[:, :1], 64))
    return out


def flat_copy(m: BitMatrix) -> BitMatrix:
    """The same matrix kept as flat positions, the form the file readers give."""
    return BitMatrix(m.rows, m.cols, flat=[i * m.cols + j for i, j in m.ones()])


class TestAgainstOracles:
    def test_rref_matches_per_column_loop(self):
        # packed words, views of other matrices' words, and flat positions
        for packed in word_views():
            words, pivots = oracle_rref(packed)
            for m in (packed, flat_copy(packed)):
                res = rref(m)
                assert np.array_equal(packed_words(res.rref), words), m.shape
                assert res.pivot_cols == pivots, m.shape
                assert res.rank == len(pivots)

    def test_rref_of_toric_code_matches(self):
        # 1600 x 3200: 1599 pivots, few rows cleared per pivot;
        # H_Z's cyclic I (x) H2 blocks combine into dense pivot rows
        code = ClassicalCode(repetition_check(40))
        product = hgp(code, code)
        for h in (product.h_x, product.h_z):
            res = rref(h)
            words, pivots = oracle_rref(h)
            assert np.array_equal(packed_words(res.rref), words)
            assert res.pivot_cols == pivots
            assert transpose(h) == from_dense(h.to_dense().T)

    def test_rref_of_block_edge_cases_matches(self):
        for packed in block_edge_cases():
            words, pivots = oracle_rref(packed)
            for m in (packed, flat_copy(packed)):
                res = rref(m)
                assert np.array_equal(packed_words(res.rref), words), m.shape
                assert res.pivot_cols == pivots, m.shape
                assert transpose(m) == from_dense(m.to_dense().T), m.shape

    @pytest.mark.parametrize("seed", [8, 64, 1000, 1 << 20])
    def test_matmul_matches_dense_rows(self, seed):
        rng = np.random.default_rng(seed)
        for a in oracle_shapes():
            b = from_dense(rng.random((a.cols, rng.integers(0, 140))) < 0.3)
            assert matmul(a, b) == oracle_matmul(a, b), (a.shape, b.shape)
            assert matmul(a, transpose(a)) == oracle_matmul(a, transpose(a))

    def test_kron_and_hstack_match_dense(self):
        shapes = oracle_shapes()
        rng = random.Random(99)
        for a in shapes:
            b = shapes[rng.randrange(len(shapes))]
            if a.rows * b.rows * a.cols * b.cols <= 1 << 20:
                assert np.array_equal(kron(a, b).to_dense(), np.kron(a.to_dense(), b.to_dense()))
            c = from_dense(
                np.random.default_rng(a.cols).random((a.rows, rng.choice([0, 1, 63, 64, 65, 130]))) < 0.5
            )
            for left, right in ((a, c), (c, a)):
                out = hstack(left, right)
                assert np.array_equal(out.to_dense(), np.concatenate(
                    [left.to_dense(), right.to_dense()], axis=1))
                assert out == from_dense(out.to_dense())   # padding bits stay zero


class TestMatmulT:
    """`matmul_t` against dense numpy and against `matmul` of the transpose."""

    def test_matmul_t_matches_numpy(self):
        # sparse and dense sides, tall and short; b's first rows against b meet
        # themselves at each of their ones, so a row of even weight gives a zero
        rng = np.random.default_rng(1214)
        for _ in range(60):
            cols = int(rng.integers(0, 200))
            density = rng.choice([0.0005, 0.002, 0.01, 0.1, 0.5])
            a = rng.random((rng.integers(0, 300), cols)) < density
            b = rng.random((rng.integers(0, 3000), cols)) < density
            for left, right in ((a, b), (b[:50], b)):
                got = matmul_t(from_dense(left), from_dense(right))
                want = left.astype(np.float32) @ right.T.astype(np.float32) % 2  # exact counts
                assert np.array_equal(got.to_dense(), want), (left.shape, right.shape, density)

    def test_matmul_t_on_codes(self):
        # toric codes and the Z127 lifted product; H_X H_X^T does not vanish, so
        # pairs met an odd number of times count
        code = ClassicalCode(repetition_check(40))
        toric = hgp(code, code)
        lifted = block_edge_cases()[:2]
        for a, b in ((toric.h_x, toric.h_z), (toric.h_x, toric.h_x), (toric.h_z, toric.h_z),
                     tuple(lifted), (lifted[0], lifted[0])):
            assert matmul_t(a, b) == oracle_matmul(a, transpose(b)), (a.shape, b.shape)
        assert matmul_t(toric.h_x, toric.h_z).is_zero()
        assert not matmul_t(toric.h_x, toric.h_x).is_zero()

    def test_matmul_t_shapes(self):
        assert matmul_t(BitMatrix.zeros(0, 5), BitMatrix.zeros(3, 5)) == BitMatrix.zeros(0, 3)
        assert matmul_t(BitMatrix.zeros(4, 0), BitMatrix.zeros(2, 0)) == BitMatrix.zeros(4, 2)
        assert matmul_t(BitMatrix.zeros(0, 10**15), BitMatrix.zeros(0, 10**15)).shape == (0, 0)
        with pytest.raises(DimensionError, match=r"\(2, 3\) vs \(2, 4\)"):
            matmul_t(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 4))


def gray_oracle(stab_rows: list[int], logical_rows: list[int]) -> int | None:
    """Reference: one Python-int XOR and popcount per Gray-code step."""
    order = logical_rows + stab_rows
    n_log = len(logical_rows)
    if n_log == 0:
        return None
    best = None
    current = 0
    logical_mask = 0
    for step in range(1, 1 << len(order)):
        bit = (step & -step).bit_length() - 1
        current ^= order[bit]
        if bit < n_log:
            logical_mask ^= 1 << bit
        if logical_mask:
            w = current.bit_count()
            if best is None or w < best:
                best = w
    return best


def random_rows(rng, rows: int, cols: int, density: float) -> BitMatrix:
    return BitMatrix(rows, cols, [i * cols + j for i in range(rows) for j in range(cols)
                                  if rng.random() < density])


def random_hgp_direction(rng, max_rows: int, max_cols: int) -> tuple[BitMatrix, BitMatrix]:
    """(checks, stabiliser) of one direction of the HGP of two random factors, each
    with up to `max_rows` rows (none at times) and 1 to `max_cols` columns."""
    a, b = (ClassicalCode(random_rows(rng, rng.randint(0, max_rows), rng.randint(1, max_cols),
                                      rng.choice([0.3, 0.5]))) for _ in range(2))
    code = hgp(a, b)
    return rng.choice([(code.h_x, code.h_z), (code.h_z, code.h_x)])


def cross_check_cases(rng) -> list[tuple[BitMatrix, BitMatrix]]:
    """(stabiliser, logical) rows for `min_weight`, of dimension up to 24:

    - random rows, which may be dependent: 1 to 7 logical rows and up to 6
      stabiliser rows, some 65 to 2600 bits wide, and 17 logical rows and
      one stabiliser row of 30 bits;
    - both directions of hypergraph products of random factors, some with
      no rows, some with k = 0, as `gf2.coset_min_weight` clears them;
    - random classical codes, dense and sparse, among them one of each
      dimension 18 and 21 to 24.
    """
    cases = [(random_rows(rng, 1, 30, 0.5), random_rows(rng, 17, 30, 0.5))]
    for _ in range(300):
        cols = rng.choice([rng.randint(1, 40), 65, 130, 200, 2600])
        cases.append((random_rows(rng, rng.randint(0, 6), cols, 0.5),
                      random_rows(rng, rng.randint(1, 7), cols, 0.5)))
    while len(cases) < 800:
        checks, stab = random_hgp_direction(rng, 4, 6)
        if checks.cols - rank(checks) <= 20:
            cases.append(coset_rows(checks, stab))
    for dim in [rng.randint(1, 16) for _ in range(300)] + [18, 21, 22, 23, 24]:
        while True:
            cols = dim + rng.randint(1, 30)
            h = random_rows(rng, cols - dim, cols, rng.choice([0.15, 0.5]))
            if cols - rank(h) == dim:
                break
        cases.append(coset_rows(h, None))
    return cases


class TestMinWeight:
    def test_empty_logical_is_none(self):
        rng = random.Random(401)
        assert min_weight(_row_ints(random_bitmatrix(rng, 4, 9)), [], 9) is None
        assert min_weight([], [], 9) is None

    def test_matches_the_gray_walk(self):
        cases = cross_check_cases(random.Random(409))
        assert len(cases) >= 1000
        assert any(not logical.rows for _, logical in cases)       # k = 0
        assert max(stab.rows + logical.rows for stab, logical in cases) == 24
        for stab, logical in cases:
            got = min_weight(_row_ints(stab), _row_ints(logical), logical.cols)
            assert got == gray_walk(stab, logical), (stab, logical)
            if stab.rows + logical.rows <= 12:
                assert got == gray_oracle(rows_as_ints(stab), rows_as_ints(logical))

    def test_no_code_of_dimension_18_to_24_takes_a_second(self):
        # hypergraph products in either direction, dense and sparse classical codes
        rng, slowest, count = random.Random(419), 0.0, 0
        while count < 500:
            if count % 3 == 0:
                checks, stab = random_hgp_direction(rng, 5, 8)
            else:
                cols = rng.randint(24, 100)
                checks, stab = random_rows(rng, cols - rng.randint(18, 24), cols,
                                           0.5 if count % 3 == 1 else 0.1), None
            stab, logical = coset_rows(checks, stab)
            if logical.rows and 18 <= stab.rows + logical.rows <= 24:
                start = time.perf_counter()
                assert 0 < min_weight(_row_ints(stab), _row_ints(logical), checks.cols) <= checks.cols
                slowest = max(slowest, time.perf_counter() - start)
                count += 1
        assert slowest < 1.0
