import itertools
import random
import sys

import numpy as np
import pytest

from qpc import gf2
from qpc.classical import (
    ClassicalCode,
    emit_alist,
    emit_pcm_text,
    parse_alist,
    parse_pcm_text,
)
from qpc.errors import BudgetError, FormatError, PreconditionError
from qpc.gf2 import DEFAULT_BUDGET, BitMatrix, matmul, rank, transpose

from oracles import (from_dense, from_entries, hamming_7_4_check, repetition_check,
                     systematic_basis)


def rep3():
    return ClassicalCode(repetition_check(3))


def brute_force_distance(h: BitMatrix) -> int | None:
    """Oracle: scan every vector in F_2^n and keep the lightest codeword."""
    assert h.cols <= 16
    cols = h.to_dense()
    best = None
    for v in range(1, 1 << h.cols):
        bits = np.array([(v >> j) & 1 for j in range(h.cols)], dtype=np.uint8)
        if not (cols @ bits % 2).any():
            w = int(bits.sum())
            if best is None or w < best:
                best = w
    return best


def random_code(rng, max_m=5, max_n=8):
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    dense = np.array(
        [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)], dtype=np.uint8
    )
    return ClassicalCode(from_dense(dense))


class TestDimension:
    def test_repetition_code(self):
        assert rep3().dimension() == 1

    def test_identity_check_matrix(self):
        assert ClassicalCode(BitMatrix.identity(4)).dimension() == 0

    def test_zero_single_check(self):
        assert ClassicalCode(BitMatrix.zeros(1, 4)).dimension() == 4


class TestMinDistance:
    def test_repetition_distance(self):
        assert rep3().min_distance() == 3

    def test_zero_dimensional_code_has_no_distance(self):
        assert ClassicalCode(BitMatrix.identity(3)).min_distance() is None

    def test_weight_one_codewords(self):
        assert ClassicalCode(BitMatrix.zeros(1, 4)).min_distance() == 1

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(29)
        for _ in range(40):
            code = random_code(rng)
            assert code.min_distance() == brute_force_distance(code.h)

    def test_refusal_names_the_bound(self):
        big = ClassicalCode(BitMatrix.zeros(1, 30))
        with pytest.raises(BudgetError) as err:
            big.min_distance()
        assert err.value.exponent == 30
        assert err.value.limit == DEFAULT_BUDGET
        with pytest.raises(BudgetError) as err:
            big.min_distance(budget=2**29)
        assert (err.value.exponent, err.value.limit) == (30, 2**29)

    def test_hamming_distance(self):
        assert ClassicalCode(hamming_7_4_check()).min_distance() == 3

    def test_refused_distance_eliminates_nothing(self, monkeypatch):
        # each column holds one or two ones, so the rank is a component count
        rng = np.random.default_rng(19)
        ends = rng.integers(0, 300, size=(2, 600))
        h = from_entries(300, 600, ends.ravel(), np.tile(np.arange(600), 2))
        original = gf2.rref

        def refuse(m):
            raise AssertionError(f"{m} was eliminated")

        for name, module in list(sys.modules.items()):
            if name == "qpc" or name.startswith("qpc."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        code = ClassicalCode(h)
        with pytest.raises(BudgetError) as err:
            code.min_distance(budget=1024)
        assert err.value.exponent == code.dimension() > 300

    def test_budget_decides_whatever_was_asked_before(self):
        code = ClassicalCode(repetition_check(12))
        assert code.min_distance() == 12
        with pytest.raises(BudgetError):
            code.min_distance(budget=1)                  # k = 1: two steps
        assert code.min_distance(budget=2) == 12


class TestTransposeCode:
    def test_repetition_transpose_params(self):
        t = rep3().transpose_code()
        assert t.dimension() == 1
        assert t.min_distance() == 3

    def test_full_rank_identity(self):
        t = ClassicalCode(BitMatrix.identity(3)).transpose_code()
        assert t.dimension() == 0

    def test_involution(self):
        code = random_code(random.Random(31))
        assert code.transpose_code().transpose_code().h == code.h

    def test_k_minus_kt_is_n_minus_m(self):
        rng = random.Random(37)
        for _ in range(30):
            code = random_code(rng)
            kt = code.transpose_code().dimension()
            assert code.dimension() - kt == code.n - code.m


class TestSystematicBasis:
    def test_repetition_single_codeword(self):
        basis = systematic_basis(rep3())
        assert basis.generator.to_dense().tolist() == [[1, 1, 1]]
        assert len(basis.column_permutation) == 3

    def test_zero_dimension_refused(self):
        with pytest.raises(PreconditionError):
            systematic_basis(ClassicalCode(BitMatrix.identity(2)))

    def test_hamming_identity_block(self):
        code = ClassicalCode(hamming_7_4_check())
        basis = systematic_basis(code)
        gen = basis.generator
        assert gen.shape == (4, 7)
        # generator rows are codewords
        assert matmul(code.h, transpose(gen)).is_zero()
        # leading block is I_4 after the permutation
        dense = gen.to_dense()[:, list(basis.column_permutation)]
        assert np.array_equal(dense[:, :4], np.eye(4, dtype=np.uint8))

    def test_generator_rows_always_codewords(self):
        rng = random.Random(41)
        for _ in range(30):
            code = random_code(rng)
            if code.dimension() == 0:
                continue
            basis = systematic_basis(code)
            assert matmul(code.h, transpose(basis.generator)).is_zero()
            assert rank(basis.generator) == code.dimension()


class TestFormats:
    def test_pcm_text_roundtrip(self):
        h = repetition_check(3)
        assert parse_pcm_text(emit_pcm_text(h)) == h

    def test_pcm_header(self):
        text = emit_pcm_text(hamming_7_4_check())
        assert text.splitlines()[0] == "3 7"

    def test_pcm_bad_entry(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_pcm_text("1 3\n0 2 1\n")

    @pytest.mark.parametrize("text, line", [
        ("-1 3\n", 1),
        ("3 -1\n0 1 0\n", 1),
        ("\n\n-2 -2\n", 3),
    ])
    def test_pcm_negative_header(self, text, line):
        with pytest.raises(FormatError, match="non-negative") as err:
            parse_pcm_text(text)
        assert err.value.line == line

    def test_alist_roundtrip(self):
        rng = random.Random(47)
        for _ in range(20):
            h = random_code(rng).h
            assert parse_alist(emit_alist(h)) == h

    def test_alist_header_is_n_m(self):
        text = emit_alist(hamming_7_4_check())
        assert text.splitlines()[0] == "7 3"

    def test_alist_accepts_zero_padding(self):
        # hand-built 2x3 matrix [[1,1,0],[0,1,1]] with padded lists
        text = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2 0\n2 3 0\n"
        h = parse_alist(text)
        assert h.to_dense().tolist() == [[1, 1, 0], [0, 1, 1]]

    def test_alist_inconsistent_lists_rejected(self):
        # check 0 claims bit 2 although bit 2's column list is empty
        text = "2 1\n1 2\n1 0\n2\n1\n0\n1 2\n"
        with pytest.raises(FormatError):
            parse_alist(text)


class TestExhaustiveAgreement:
    def test_distance_via_all_codewords(self):
        # enumerate the full codebook through the systematic generator
        code = ClassicalCode(hamming_7_4_check())
        basis = systematic_basis(code)
        gen = basis.generator.to_dense()
        weights = []
        for picks in itertools.product([0, 1], repeat=4):
            if not any(picks):
                continue
            word = np.zeros(7, dtype=np.uint8)
            for i, p in enumerate(picks):
                if p:
                    word ^= gen[i]
            weights.append(int(word.sum()))
        assert min(weights) == code.min_distance()
