"""Parameter extraction and verification for constructed CSS codes.

Distances are exact: Z-type distance is the minimum weight over
kernel(H_X) minus the row space of H_Z.  `gf2.coset_min_weight` gives it,
and the classical distances of the HGP cross-check, under one budget
(default 2^24 steps); beyond it they are refused, never approximated.
The logical count and the budget check read `gf2.rank`, so a refusal
reduces no matrix.  A decided distance of a code whose check matrices
are graphs (at most two ones per column, as in every hypergraph product
of repetition codes) is a shortest cycle found by breadth-first search;
any other reduces only the check matrices, once each, for their kernels'
int rows (`gf2._kernel`), which `gf2.min_weight` searches.

Non-commuting codes (possible for lifted products) get n only; k and d
computations refuse them loudly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .classical import ClassicalCode
from .errors import PreconditionError
from .gf2 import (DEFAULT_BUDGET, BitMatrix, check_budget, coset_min_weight, hstack, kron,
                  matmul_t, rank, vstack)
from .products import CSSCode, balanced_product, lift_with_regular_actions, lifted_product

if TYPE_CHECKING:
    from .groups import GroupAlgebraMatrix


class CSSParams(NamedTuple):
    n: int
    k: int
    d: int | None = None
    d_x: int | None = None
    d_z: int | None = None


class LogicalBasis(NamedTuple):
    """Paired logical representatives: pairing[i][j] = <x_i, z_j> = delta_ij."""

    x_logicals: BitMatrix
    z_logicals: BitMatrix
    pairing: BitMatrix


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


def hgp_canonical_logicals(c1: ClassicalCode, c2: ClassicalCode) -> LogicalBasis:
    """Canonical anticommuting pairs from systematic classical bases.

    Z logicals place a codeword of the first code along a Q1 row at one
    of the second code's systematic bits, kron(G1, U2) with U2 the unit
    rows at those bits, and the transpose analogue on Q2; X logicals are
    dual.  The pairing matrix comes out exactly the identity, which also
    certifies that no representative sits in the opposite stabiliser
    row space.
    """
    c1t, c2t = c1.transpose_code(), c2.transpose_code()
    if c1.dimension() * c2.dimension() + c1t.dimension() * c2t.dimension() == 0:
        raise PreconditionError("code has no logical qubits")

    def units(basis) -> BitMatrix:
        k = basis.generator.rows
        return BitMatrix.from_entries(k, len(basis.column_permutation), range(k),
                                      basis.column_permutation[:k])

    def blocks(a: ClassicalCode, b: ClassicalCode) -> tuple[BitMatrix, BitMatrix]:
        """kron(G_a, U_b) and kron(U_a, G_b); no rows when either code has k = 0."""
        if a.dimension() * b.dimension() == 0:
            return (BitMatrix.zeros(0, a.n * b.n),) * 2
        sa, sb = a.systematic_basis(), b.systematic_basis()
        return kron(sa.generator, units(sb)), kron(units(sa), sb.generator)

    z_q1, x_q1 = blocks(c1, c2)
    x_q2, z_q2 = blocks(c1t, c2t)

    def place(q1: BitMatrix, q2: BitMatrix) -> BitMatrix:
        return vstack(hstack(q1, BitMatrix.zeros(q1.rows, q2.cols)),
                      hstack(BitMatrix.zeros(q2.rows, q1.cols), q2))

    x_logicals, z_logicals = place(x_q1, x_q2), place(z_q1, z_q2)
    basis = LogicalBasis(x_logicals, z_logicals, matmul_t(x_logicals, z_logicals))
    if basis.pairing != BitMatrix.identity(x_logicals.rows):
        raise AssertionError("canonical logical pairing failed to reduce to identity")
    return basis


def lp_bp_coincide(
    m1: GroupAlgebraMatrix, m2: GroupAlgebraMatrix
) -> tuple[bool, list[int] | None]:
    """Compare the lifted product with the balanced product of its lifts.

    Both routes use the canonical vertex ordering; coincidence means the
    parity-check matrices agree under the identity relabelling, which is
    returned as the qubit permutation.  Inputs whose expanded graphs do
    not admit the paired regular actions (left multiplication fails to
    preserve the second graph for non-central entries) are rejected.
    """
    try:
        graph_a, graph_b, act_a, act_b = lift_with_regular_actions(m1, m2)
    except PreconditionError as exc:
        raise PreconditionError(
            f"inputs do not lift as quotient-compatible coverings: {exc}"
        ) from exc
    bp = balanced_product(graph_a, graph_b, act_a, act_b)
    lp = lifted_product(m1, m2)
    if bp.h_x == lp.h_x and bp.h_z == lp.h_z:
        return True, list(range(lp.n))
    return False, None
