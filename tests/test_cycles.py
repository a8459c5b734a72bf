"""The shortest-cycle distance engine against the Gray-code enumeration.

`gf2.coset_min_weight` finds the distance in a direction whose check
matrix holds at most two ones per column as a shortest cycle outside the
stabiliser's span, whatever the stabiliser.  Each case here is also
decided by enumeration: the kernel basis of the reduced checks, the
logicals left after clearing the stabiliser's pivot columns, and the
Gray-code walk over them (`oracles.gray_walk`).
The cases are hypergraph products of cycle and path codes, random graph
H_X with H_Z drawn from its cycle space, graph or not, and random classical
graph codes (whose distance is the girth), each also given as a matrix that
keeps its ones as flat positions; they include zero, one-one and repeated
columns, empty rows, disconnected graphs, k = 0 and n = 0.  The 3D toric
code and HGP(rep3, K4) have graph X checks and Z stabilisers that are no
graph: their d_z is a shortest cycle too.
"""

import itertools
import random
from pathlib import Path

import pytest

from qpc import gf2
from qpc.analysis import css_distance
from qpc.classical import ClassicalCode, parse_pcm_text
from qpc.gf2 import BitMatrix, hstack, kernel_basis, kron, matmul_t, rank, transpose, vstack
from qpc.products import hgp

from oracles import coset_rows, gray_walk, repetition_check


def gray_min_weight(checks: BitMatrix, stab: BitMatrix | None) -> int | None:
    """The minimum weight over kernel(checks) outside rowspace(stab) by enumeration."""
    return gray_walk(*coset_rows(checks, stab))


def unpacked(m: BitMatrix) -> BitMatrix:
    """The same matrix, keeping the flat positions of its ones and no words."""
    return BitMatrix(m.rows, m.cols, flat=[i * m.cols + j for i, j in m.ones()])


def path_check(length: int) -> BitMatrix:
    return BitMatrix(length - 1, length, flat=[i * length + i + d for i in range(length - 1)
                                               for d in (0, 1)])


def random_graph(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    """Each column zero, one-one or two-one; a copy of an earlier column now and then."""
    columns = []
    for _ in range(cols):
        if columns and rng.random() < 0.1:
            columns.append(rng.choice(columns))
        else:
            columns.append(rng.sample(range(rows), min(rows, rng.choice((0, 1, 2, 2, 2)))))
    return BitMatrix(rows, cols, flat=[i * cols + j for j, col in enumerate(columns) for i in col])


def random_cycle(rng: random.Random, kernel: list[list[int]], cols: int) -> list[int]:
    """A random sum of the kernel rows, each taken with probability 1/2."""
    v = [0] * cols
    for row in kernel:
        if rng.random() < 0.5:
            v = [a ^ b for a, b in zip(v, row)]
    return v


def from_rows(rows: list[list[int]], cols: int) -> BitMatrix:
    return BitMatrix(len(rows), cols, flat=[i * cols + j for i, row in enumerate(rows)
                                            for j, x in enumerate(row) if x])


def cycle_space_rows(rng: random.Random, h_x: BitMatrix) -> BitMatrix:
    """Random vectors of kernel(h_x) as rows, kept while no column holds three ones;
    an empty row now and then."""
    kernel = kernel_basis(h_x).to_dense().tolist()
    rows, weight = [], [0] * h_x.cols
    for _ in range(rng.randint(0, 6)):
        v = random_cycle(rng, kernel, h_x.cols)
        if all(w + x <= 2 for w, x in zip(weight, v)):
            rows.append(v)
            weight = [w + x for w, x in zip(weight, v)]
    rows += [[0] * h_x.cols] * (rng.random() < 0.2)
    return from_rows(rows, h_x.cols)


def heavy_cycle_space_rows(rng: random.Random, h_x: BitMatrix) -> BitMatrix | None:
    """Random vectors of kernel(h_x) as rows, after the whole kernel basis now and then
    (k = 0) and with an empty row now and then; None unless a column holds three ones."""
    kernel = kernel_basis(h_x).to_dense().tolist()
    rows = kernel[:] if rng.random() < 0.15 else []
    rows += [random_cycle(rng, kernel, h_x.cols) for _ in range(rng.randint(1, 6))]
    rows += [[0] * h_x.cols] * (rng.random() < 0.2)
    return from_rows(rows, h_x.cols) if max(map(sum, zip(*rows)), default=0) >= 3 else None


def components(h: BitMatrix) -> int:
    """Connected components of the graph of h's rows and ground, each column joining the
    rows of its ones (ground for each one it lacks), counting those with a non-loop edge."""
    ground, root = h.rows, list(range(h.rows + 1))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    ends = [[] for _ in range(h.cols)]
    for i, j in h.ones():
        ends[j].append(i)
    touched = set()
    for column in filter(None, ends):
        a, b = (column + [ground])[:2]
        root[find(a)] = find(b)
        touched |= {a, b}
    return len(set(map(find, touched)))


def toric_3d(length: int) -> tuple[BitMatrix, BitMatrix]:
    """(H_X, H_Z) of the 3D toric code, the three-fold product of cyclic repetition
    codes: qubits on the edges of the L x L x L torus, X checks on its vertices and Z
    checks on its faces, H_Z the transposed boundary from faces to edges."""
    h, i = repetition_check(length), BitMatrix.identity(length)
    x, y, z = kron(kron(h, i), i), kron(kron(i, h), i), kron(kron(i, i), h)
    zero = BitMatrix.zeros(length ** 3, length ** 3)

    def row(*blocks):
        return hstack(hstack(*blocks[:2]), blocks[2])

    # edge rows x, y, z; face columns xy, xz, yz: a face meets its two edge directions
    faces = vstack(vstack(row(y, z, zero), row(x, zero, z)), row(zero, x, y))
    return row(x, y, z), transpose(faces)


def factor_codes():
    """(length, check matrix) of the cycle and path codes of lengths 2 to 6; each has d = length."""
    return [(length, make(length)) for make in (repetition_check, path_check)
            for length in range(2, 7)]


def random_css_cases():
    rng = random.Random(2024)
    for _ in range(1000):
        h_x = random_graph(rng, rng.randint(0, 6), rng.randint(0, 12))
        yield h_x, cycle_space_rows(rng, h_x)


def classical_cases():
    rng = random.Random(4048)
    for _ in range(400):
        yield random_graph(rng, rng.randint(0, 8), rng.randint(0, 14))


class TestShortestCycle:
    def compare(self, monkeypatch, checks: BitMatrix, stab: BitMatrix | None) -> int | None:
        """The engine's answer, packed and unpacked, after asserting it is the Gray walk's."""
        want = gray_min_weight(checks, stab)
        assert gf2._edges(checks) is not None
        with monkeypatch.context() as patch:
            patch.setattr(gf2, "min_weight", None)      # the engine must not enumerate
            for form in (lambda m: m, unpacked):
                got = gf2.coset_min_weight(form(checks), None if stab is None else form(stab))
                assert got == want, (checks.to_dense().tolist(),
                                     None if stab is None else stab.to_dense().tolist())
        return want

    def test_hgp_of_cycle_and_path_codes(self, monkeypatch):
        # d = min(L1, L2) for every pair; the Gray walk decides the 83 pairs whose
        # kernels have dimension 24 or less
        enumerated = 0
        for (l1, h1), (l2, h2) in itertools.product(factor_codes(), repeat=2):
            code = hgp(ClassicalCode(h1), ClassicalCode(h2))
            small = code.n - min(rank(code.h_x), rank(code.h_z)) <= 24
            found = []
            for checks, stab in ((code.h_x, code.h_z), (code.h_z, code.h_x)):
                if small:
                    found.append(self.compare(monkeypatch, checks, stab))
                else:
                    found.append(gf2.coset_min_weight(unpacked(checks), unpacked(stab), 1 << 64))
            enumerated += small
            assert min(found) == min(l1, l2)
        assert enumerated == 83

    def test_random_css_graph_codes_match_enumeration(self, monkeypatch):
        seen = {"cases": 0, "zero column": 0, "one-one column": 0, "repeated column": 0,
                "empty row": 0, "disconnected": 0, "k = 0": 0, "n = 0": 0, "decided": 0}
        for h_x, h_z in random_css_cases():
            d_z = self.compare(monkeypatch, h_x, h_z)
            d_x = self.compare(monkeypatch, h_z, h_x)
            assert (d_z is None) == (d_x is None)
            seen["cases"] += 1
            seen["decided"] += d_z is not None
            seen["k = 0"] += d_z is None and h_x.cols > 0
            seen["n = 0"] += h_x.cols == 0
            columns = h_x.to_dense().T.tolist()
            seen["zero column"] += any(sum(c) == 0 for c in columns)
            seen["one-one column"] += any(sum(c) == 1 for c in columns)
            distinct = {tuple(c) for c in columns if any(c)}
            seen["repeated column"] += len(distinct) < sum(map(any, columns))
            rows = h_x.to_dense().tolist() + h_z.to_dense().tolist()
            seen["empty row"] += any(not any(row) for row in rows)
            seen["disconnected"] += h_x.weight() > 0 and components(h_x) > 1
        assert seen["cases"] == 1000 and min(seen.values()) > 0, seen

    def test_stabilisers_that_are_no_graph_match_enumeration(self, monkeypatch):
        # graph checks, each with a commuting stabiliser holding a column of three ones
        rng = random.Random(7117)
        seen = {"cases": 0, "zero column": 0, "repeated column": 0, "k = 0": 0, "decided": 0}
        while seen["cases"] < 600:
            h_x = random_graph(rng, rng.randint(1, 6), rng.randint(3, 14))
            if (h_z := heavy_cycle_space_rows(rng, h_x)) is None:
                continue
            assert gf2._edges(h_z) is None
            d_z = self.compare(monkeypatch, h_x, h_z)
            seen["cases"] += 1
            seen["decided"] += d_z is not None
            seen["k = 0"] += d_z is None
            columns = h_x.to_dense().T.tolist()
            seen["zero column"] += any(sum(c) == 0 for c in columns)
            seen["repeated column"] += len({tuple(c) for c in columns if any(c)}) < sum(map(any, columns))
        assert seen["decided"] >= 300 and min(seen.values()) > 0, seen

    @pytest.mark.parametrize("length", range(3, 9))
    def test_3d_toric_d_z_is_the_length(self, monkeypatch, length):
        # Z stabilisers on faces hold four ones a column; d_z is a shortest
        # non-contractible cycle of the torus's edges, of length L
        h_x, h_z = toric_3d(length)
        assert matmul_t(h_x, h_z).is_zero() and h_x.cols == 3 * length ** 3
        assert gf2._edges(h_x) is not None and gf2._edges(h_z) is None
        assert h_x.cols - rank(h_x) - rank(h_z) == 3
        monkeypatch.setattr(gf2, "min_weight", None)    # the engine must not enumerate
        assert gf2.coset_min_weight(h_x, h_z, 1 << 4000) == length

    def test_rep3_k4_d_z_is_a_shortest_cycle(self, monkeypatch):
        # HGP(rep3, K4) is [[30,4,3]]: H_X is a graph, and H_Z, from K4's columns of
        # three ones, is none; d_z is a shortest cycle, and only d_x enumerates
        k4 = parse_pcm_text((Path(__file__).resolve().parent.parent / "fixtures" / "k4.pcm").read_text())
        code = hgp(ClassicalCode(repetition_check(3)), ClassicalCode(k4))
        assert gf2._edges(code.h_x) is not None and gf2._edges(code.h_z) is None
        calls = []
        for name in ("_shortest_cycle", "min_weight"):
            monkeypatch.setattr(gf2, name, lambda *a, name=name, real=getattr(gf2, name):
                                calls.append(name) or real(*a))
        assert css_distance(code) == (3, 3, 3)
        assert calls == ["_shortest_cycle", "min_weight"]

    def test_classical_graph_codes_match_enumeration(self, monkeypatch):
        decided = 0
        for h in classical_cases():
            decided += self.compare(monkeypatch, h, None) is not None
        assert decided >= 300

    def test_a_zero_stabiliser_counts_every_cycle(self, monkeypatch):
        h = repetition_check(5)
        assert self.compare(monkeypatch, h, BitMatrix.zeros(2, 5)) == 5

    @pytest.mark.parametrize("length", [3, 4, 7])
    def test_toric_and_planar_distances_are_the_lengths(self, length):
        for h in (repetition_check(length), path_check(length)):
            code = hgp(ClassicalCode(h), ClassicalCode(h))
            assert gf2.coset_min_weight(unpacked(code.h_x), unpacked(code.h_z), 1 << 64) == length
            assert gf2.coset_min_weight(unpacked(code.h_z), unpacked(code.h_x), 1 << 64) == length

    def test_classical_labels_have_k_bits(self, monkeypatch):
        # a classical code labels only the columns off its checks' spanning forest,
        # one bit each: the length-1000 cycle code (k = 1) has labels 0 and 1, not 2^999
        seen = []
        search = gf2._shortest_cycle

        def spy(checks, labels):
            seen.append(labels)
            return search(checks, labels)

        monkeypatch.setattr(gf2, "_shortest_cycle", spy)
        assert ClassicalCode(repetition_check(1000)).min_distance() == 1000
        assert len(seen) == 1 and len(seen[0]) == 1000 and max(seen[0]) < 2 ** 1
