"""The parameters of a constructed CSS code and the HGP cross-checks.

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

from typing import NamedTuple

from .classical import ClassicalCode
from .errors import PreconditionError
from .gf2 import DEFAULT_BUDGET, check_budget, coset_min_weight, rank
from .products import CSSCode


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
