"""CSS codes, their parameters, and the HGP cross-checks.

`CSSCode` holds a code's check matrices, and `css_from_matrices` wraps
matrices read back from files; the product builders in `products`
return the same type.  Both live here, so `qpc analyze` loads no
product builder, and a code's layout loads `render` only when read.
A code's commutation, logical count and exact distances, and the two
checks of a hypergraph product against its classical factors: k from
their dimensions and d against their distances.

Distances are exact: Z-type distance is the minimum weight over
kernel(H_X) minus the row space of H_Z.  `gf2.coset_min_weight` gives it,
and the classical distances of the HGP cross-check, under one budget
(default 2^24 steps); beyond it they are refused, never approximated.
The logical count and the budget check read `gf2.rank`, so a refusal
reduces no matrix.  A decided direction with graph checks (at most two
ones per column) is a shortest cycle found by breadth-first search,
labelled by the opposite logicals, which reduce the stabiliser once
(`gf2._kernel`); any other reduces its checks once, for their kernel's
int rows, which `gf2.min_weight` searches.

Non-commuting codes (possible for lifted products) get n only; k and d
computations refuse them loudly.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

from .classical import ClassicalCode
from .errors import DimensionError, PreconditionError
from .gf2 import DEFAULT_BUDGET, BitMatrix, check_budget, coset_min_weight, matmul_t, rank

if TYPE_CHECKING:
    from .render import CoordinateTable


class CSSCode:
    """CSS code as an (H_X, H_Z) pair with provenance and a layout.

    `layout` is given as a function of the incidence edges; the table is
    built on first read of `code.layout`, and its edges on first read of
    `code.layout.edges`.  `commutator` is H_X H_Z^T, computed once; the
    ranks and forests of H_X and H_Z are remembered by the matrices.
    """

    def __init__(self, h_x: BitMatrix, h_z: BitMatrix, q1_size: int,
                 layout: Callable[[Callable[[], tuple]], CoordinateTable], provenance: dict):
        if h_x.cols != h_z.cols:
            raise DimensionError(
                f"H_X has {h_x.cols} columns but H_Z has {h_z.cols}"
            )
        self.h_x = h_x
        self.h_z = h_z
        self.n = h_x.cols
        self.q1_size = q1_size
        self.q2_size = self.n - q1_size
        if self.q2_size < 0:
            raise DimensionError(f"q1 block {q1_size} exceeds n = {self.n}")
        self._layout = layout
        self.provenance = provenance
        self.commutator = matmul_t(h_x, h_z)

    @property
    def commuting(self) -> bool:
        return self.commutator.is_zero()

    @cached_property
    def layout(self) -> CoordinateTable:
        table = self._layout(lambda: _incidence_edges(self.h_x, self.h_z, self.q1_size))
        if (
            len(table.x_checks) != self.m_x
            or len(table.z_checks) != self.m_z
            or len(table.qubits_q1) != self.q1_size
            or len(table.qubits_q2) != self.q2_size
        ):
            raise DimensionError("layout does not cover every vertex exactly once")
        return table

    @property
    def m_x(self) -> int:
        return self.h_x.rows

    @property
    def m_z(self) -> int:
        return self.h_z.rows

    def __repr__(self):
        kind = self.provenance.get("kind", "css")
        return (
            f"CSSCode({kind}, n={self.n}, m_x={self.m_x}, m_z={self.m_z},"
            f" commuting={self.commuting})"
        )


def css_from_matrices(h_x: BitMatrix, h_z: BitMatrix) -> CSSCode:
    """Wrap raw check matrices, e.g. read back from files.

    Without block provenance every qubit is in Q1, and the code gets the
    line layout of `render.line_table` (X checks, then Z checks, then
    qubits, by index), mirroring the classical convention.
    """

    def layout(edges) -> CoordinateTable:
        from .render import line_table

        return line_table(h_x.rows, h_z.rows, h_x.cols, edges)

    return CSSCode(h_x, h_z, q1_size=h_x.cols, layout=layout,
                   provenance={"kind": "from-matrices"})


def _incidence_edges(h_x: BitMatrix, h_z: BitMatrix, q1_size: int) -> tuple:
    edges = []
    for role, h in (("x", h_x), ("z", h_z)):
        for i, j in sorted(h.ones()):                   # row-major
            if j < q1_size:
                target = ("q1", j)
            else:
                target = ("q2", j - q1_size)
            edges.append(((role, i), target))
    return tuple(edges)


class CSSParams(NamedTuple):
    n: int
    k: int
    d: int | None = None
    d_x: int | None = None
    d_z: int | None = None


def check_commutation(code: CSSCode) -> tuple[bool, list[tuple[int, int]]]:
    """True iff H_X H_Z^T = 0; otherwise every anticommuting pair is listed."""
    if code.commuting:
        return True, []
    return False, sorted(code.commutator.ones())


def logical_count(code: CSSCode) -> int:
    """n - rank(H_X) - rank(H_Z); refuses non-commuting inputs."""
    if not code.commuting:
        raise PreconditionError(
            "logical count is undefined for non-commuting checks"
        )
    return code.n - rank(code.h_x) - rank(code.h_z)


def hgp_k_formula(c1: ClassicalCode, c2: ClassicalCode) -> int:
    """k1 k2 + k1^T k2^T from the classical dimensions alone."""
    k1 = c1.dimension()
    k2 = c2.dimension()
    k1t = c1.transpose_code().dimension()
    k2t = c2.transpose_code().dimension()
    return k1 * k2 + k1t * k2t


def css_distance(code: CSSCode, budget: int = DEFAULT_BUDGET):
    """Exact (d_x, d_z, d) by `gf2.coset_min_weight`; refuses beyond `budget`.

    d_z is the lightest Z-type logical (kernel of H_X modulo H_Z rows);
    d_x symmetric.  All three are None when k = 0.
    """
    if not code.commuting:
        raise PreconditionError("distance is undefined for non-commuting checks")
    if logical_count(code) == 0:
        return None, None, None
    for h in (code.h_x, code.h_z):                     # H_X first: d_z is refused first
        check_budget(code.n, rank(h), budget)
    d_z = coset_min_weight(code.h_x, code.h_z, budget)
    d_x = coset_min_weight(code.h_z, code.h_x, budget)
    d = min(x for x in (d_x, d_z) if x is not None)
    return d_x, d_z, d


def css_params(code: CSSCode, budget: int = DEFAULT_BUDGET) -> CSSParams:
    k = logical_count(code)
    if k == 0:
        return CSSParams(n=code.n, k=k)
    d_x, d_z, d = css_distance(code, budget)
    return CSSParams(n=code.n, k=k, d=d, d_x=d_x, d_z=d_z)


def hgp_distance_bound(c1: ClassicalCode, c2: ClassicalCode,
                       budget: int = DEFAULT_BUDGET) -> int | None:
    """min over the defined members of {d1, d2, d1^T, d2^T}; refuses beyond `budget`.

    Codes with k = 0 contribute nothing; None when all four are empty.
    """
    candidates = []
    for code in (c1, c2, c1.transpose_code(), c2.transpose_code()):
        d = code.min_distance(budget)
        if d is not None:
            candidates.append(d)
    return min(candidates) if candidates else None
