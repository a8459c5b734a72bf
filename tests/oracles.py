"""Reference implementations that the tests compare qpc against.

Each is a direct, unoptimised form of a result qpc reaches another way,
or a value or view that only the tests need:

- a `BitMatrix` from and as numpy arrays: from a dense array or the
  positions of its ones, its ones' indices, its entries at given
  positions and its packed 64-bit words;
- rows of a `BitMatrix` as Python ints, its columns at given indices, the
  sum of two matrices, and the row operations of an elimination, found by
  eliminating [source | I];
- the exact minimum weight by the numpy Gray-code walk that the
  Brouwer-Zimmermann search replaced, and the rows a coset distance
  searches;
- the numpy PCM and alist emitters that the Python ones replaced;
- the check matrices of the cyclic repetition and [7,4] Hamming codes,
  and a classical code's codeword basis in systematic form;
- the numpy group-table check that the Python one replaced;
- ring matrices over F2[G]: matrices of element bit masks, monomials and
  conjugates of elements, the Kronecker product with an identity, the
  matrix product and the conjugate transpose, whose binary maps the
  lifted product is checked against, and a ring-matrix writer whose
  terms `parse_element` reads;
- cycles and paths, the Cartesian product of plain graphs and the
  shared-group action on it, whose quotient is the balanced product of
  the paper's worked example;
- the deck action tables of a lift, stacked one group element at a time,
  and the lifts of two ring matrices with the paired regular actions
  (right multiplication on the first, left on the second);
- the product codes' comparisons: the vertex count of a code, the plain
  product of two expanded ring matrices, the lifted product against the
  balanced product of those lifts, a seeded hunt for a lifted product
  whose checks anticommute, the canonical logical basis of a hypergraph
  product, and the membership and independence of a logical basis.

This file is not collected by pytest; test modules import it by name.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import NamedTuple

import numpy as np

from qpc.classical import ClassicalCode
from qpc.errors import DimensionError, PreconditionError
from qpc.gf2 import (BitMatrix, _row_ints, hstack, kernel_basis, kron, matmul_t, rank, rref,
                     vstack)
from qpc.groups import FiniteGroup, GroupAlgebraElement, GroupAlgebraMatrix, binary_map
from qpc.products import CSSCode, balanced_product, hgp, lifted_product
from qpc.tanner import GroupAction, PlainGraph, TannerGraph, lift_from_ring_matrix

# -- GF(2) matrices as numpy arrays and packed words ---------------------------


def _word_count(cols: int) -> int:
    return (cols + 63) // 64


def from_dense(array) -> BitMatrix:
    """The matrix of a 2-D array of 0/1 values (bit 0 of each value)."""
    dense = np.atleast_2d(np.asarray(array))
    if dense.ndim != 2:
        raise DimensionError(f"expected 2-D input, got shape {dense.shape}")
    rows, cols = dense.shape
    return BitMatrix(rows, cols, np.flatnonzero(dense.astype(np.uint8) & 1).tolist())


def from_entries(rows: int, cols: int, i, j) -> BitMatrix:
    """Ones at the positions (i[t], j[t]), each inside the shape; a position may repeat."""
    return BitMatrix(rows, cols, list({int(a) * cols + int(b) for a, b in zip(i, j)}))


def nonzero(m: BitMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the ones, row-major with columns ascending, as int64."""
    return np.divmod(np.sort(np.array(m._flat, dtype=np.int64)), max(m.cols, 1))


def entries(m: BitMatrix, i, j) -> np.ndarray:
    """The entries at the positions (i[t], j[t]), as booleans; IndexError outside the shape."""
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    if ((i < 0) | (i >= m.rows) | (j < 0) | (j >= m.cols)).any():
        raise IndexError(f"a position is out of range for {m.shape}")
    return np.isin(i * m.cols + j, np.array(m._flat, dtype=np.int64))


def packed_words(m: BitMatrix) -> np.ndarray:
    """m packed little-endian into 64-bit words: `packed_words(m)[i, j // 64] >> (j % 64) & 1`
    is entry (i, j), and the bits past the last column are zero."""
    bits = np.zeros((m.rows, _word_count(m.cols) * 64), dtype=np.uint8)
    bits[nonzero(m)] = 1
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def from_words(words: np.ndarray, cols: int) -> BitMatrix:
    """The matrix of `cols` columns packed in `words` as `packed_words` packs it."""
    bits = np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=1, bitorder="little")
    return from_dense(bits[:, :cols].reshape(words.shape[0], cols))


# -- GF(2) rows as ints, and row operations ------------------------------------


def from_row_ints(ints, cols: int) -> BitMatrix:
    """Rows given as little-endian integers (bit j of the int = column j)."""
    flat = []
    for i, value in enumerate(ints):
        if value < 0 or value >> cols:
            raise DimensionError(f"row {i} does not fit in {cols} columns")
        flat += [i * cols + j for j in range(cols) if value >> j & 1]
    return BitMatrix(len(ints), cols, flat)


def row_int(m: BitMatrix, i: int) -> int:
    """Row i as a little-endian integer."""
    return sum(1 << j for r, j in m.ones() if r == i)


def rows_as_ints(m: BitMatrix) -> list[int]:
    return [row_int(m, i) for i in range(m.rows)]


def row_weight(m: BitMatrix, i: int) -> int:
    return sum(r == i for r, _ in m.ones())


def row_ops(source: BitMatrix) -> BitMatrix:
    """An invertible U with `U @ source == rref(source).rref`.

    Eliminating [source | I] reduces the left block to the reduced form
    and carries the same row operations into the right block.
    """
    reduced = rref(hstack(source, BitMatrix.identity(source.rows))).rref
    return columns(reduced, range(source.cols, source.cols + source.rows))


def columns(m: BitMatrix, idx) -> BitMatrix:
    """The columns of m at `idx`, in that order (an index may repeat)."""
    idx = list(idx)
    return from_dense(m.to_dense()[:, idx].reshape(m.rows, len(idx)))


def add(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """a + b over GF(2): the ones of exactly one of them."""
    assert a.shape == b.shape, (a.shape, b.shape)
    return BitMatrix(a.rows, a.cols, list(set(a._flat) ^ set(b._flat)))


# -- exact minimum weight by a Gray-code walk -----------------------------------

# Low combinations tabulated per walk step: at most 2^16 rows and 1 MiB.
_TABLE_BITS = 16
_TABLE_BYTES = 1 << 20


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """All 2^t XOR combinations of t rows, by doubling: entry i XORs the rows at i's ones."""
    table = np.zeros((1 << rows.shape[0], rows.shape[1]), dtype=np.uint64)
    for i in range(rows.shape[0]):
        np.bitwise_xor(table[: 1 << i], rows[i], out=table[1 << i : 2 << i])
    return table


def gray_walk(stab: BitMatrix, logical: BitMatrix) -> int | None:
    """`gf2.min_weight` by scoring all 2^dim combinations: the minimum weight over
    span(stab + logical) with a non-zero logical part, None when `logical` has no rows.

    The rows, logical rows first, are packed into 64-bit words.  All 2^t
    combinations of the first t rows are tabulated by doubling; the remaining
    rows are walked in Gray-code order, one XOR per step, and each step scores
    the whole table at once.  While the walk holds no logical row, only table
    entries whose index holds one count.
    """
    if logical.rows == 0:
        return None
    dim, words = stab.rows + logical.rows, _word_count(logical.cols)
    rows = np.frombuffer(b"".join(v.to_bytes(8 * words, "little")
                                  for v in _row_ints(vstack(logical, stab))),
                         dtype=np.uint64).reshape(dim, words)
    fit = (_TABLE_BYTES // (8 * max(words, 1))).bit_length() - 1
    t = max(1, min(dim, _TABLE_BITS, fit))
    table = _xor_table(rows[:t])
    low_logical = np.arange(1 << t) & ((1 << min(logical.rows, t)) - 1) != 0
    tables = (table[low_logical], table)   # by "the walk holds a logical row"
    best = logical.cols                    # no weight exceeds the width
    current = np.zeros(words, dtype=np.uint64)
    walk_logical = 0
    for step in range(1 << (dim - t)):
        if step:
            bit = (step & -step).bit_length() - 1
            current ^= rows[t + bit]
            if t + bit < logical.rows:
                walk_logical ^= 1 << bit
        scores = np.bitwise_count(tables[walk_logical != 0] ^ current).sum(axis=1)
        best = min(best, int(scores.min()))
    return best


def coset_rows(checks: BitMatrix, stab: BitMatrix | None) -> tuple[BitMatrix, BitMatrix]:
    """The (stabiliser, logical) rows whose minimum weight `gf2.coset_min_weight` finds
    for a code that is no graph: the stabiliser's echelon rows, then the rows of the
    kernel basis of the checks that add a lead, each reduced as it was kept.

    Rows are little-endian ints here, so a row's lead is its lowest column, the
    lead `gf2._echelon` reads off its big-endian rows.
    """
    kernel = kernel_basis(checks)
    stab = BitMatrix.zeros(0, kernel.cols) if stab is None else stab
    kept, rows = {}, ([], [])                          # the stabiliser's, the logicals
    for i, v in enumerate(rows_as_ints(stab) + rows_as_ints(kernel)):
        while (v & -v) in kept:
            v ^= kept[v & -v]
        if v:
            kept[v & -v] = v
            rows[i >= stab.rows].append(v)
    return tuple(from_row_ints(r, kernel.cols) for r in rows)


# -- classical check matrices --------------------------------------------------


def repetition_check(n: int) -> BitMatrix:
    """Circulant n x n check matrix of the n-bit cyclic repetition code."""
    i = np.arange(n)
    return from_entries(n, n, np.concatenate([i, i]), np.concatenate([i, (i + 1) % n]))


def hamming_7_4_check() -> BitMatrix:
    """3 x 7 check matrix whose columns are all non-zero 3-bit vectors."""
    cols = [[(j >> b) & 1 for j in range(1, 8)] for b in range(3)]
    return from_dense(np.array(cols, dtype=np.uint8))


class SystematicBasis(NamedTuple):
    """Codeword basis in systematic order.

    Permuting columns by `column_permutation` (new position p holds old
    column column_permutation[p]) makes the leading k x k block of
    `generator` the identity, so the first k permuted bits carry the
    logical information.
    """

    column_permutation: tuple[int, ...]
    generator: BitMatrix


def systematic_basis(code: ClassicalCode) -> SystematicBasis:
    """Codeword basis whose leading block is the identity after a column permutation."""
    if code.dimension() == 0:
        raise PreconditionError("k = 0: the code has no codeword basis")
    basis = rref(kernel_basis(code.h))
    pivots = list(basis.pivot_cols)
    rest = [c for c in range(code.n) if c not in set(pivots)]
    return SystematicBasis(column_permutation=tuple(pivots + rest), generator=basis.rref)


# -- the numpy emitters ---------------------------------------------------------


def numpy_emit_pcm_text(h: BitMatrix) -> str:
    body = np.full((h.rows, max(2 * h.cols, 1)), ord(" "), dtype=np.uint8)
    body[:, : 2 * h.cols : 2] = h.to_dense() + ord("0")
    body[:, -1] = ord("\n")
    return f"{h.rows} {h.cols}\n" + body.tobytes().decode("ascii")


def _decimal_rows(values: np.ndarray) -> str:
    """Rows of integers as text, space-separated, one line per row."""
    return "".join(" ".join(map(str, row)) + "\n" for row in values.tolist())


def _padded_lists(owner: np.ndarray, values: np.ndarray, count: int, width: int) -> np.ndarray:
    """One row per owner, its values in order, zero-padded to `width` (at least 1)."""
    out = np.zeros((count, max(width, 1)), dtype=np.int64)
    sizes = np.bincount(owner, minlength=count)
    start = np.cumsum(sizes) - sizes
    out[owner, np.arange(owner.size) - start[owner]] = values
    return out


def numpy_emit_alist(h: BitMatrix) -> str:
    m, n = h.shape
    check, bit = nonzero(h)   # row-major: bits ascend within each check
    col_deg = np.bincount(bit, minlength=n)
    row_deg = np.bincount(check, minlength=m)
    max_col = int(col_deg.max()) if n else 0
    max_row = int(row_deg.max()) if m else 0
    by_bit = np.argsort(bit, kind="stable")  # checks ascend within each bit
    return "".join([
        f"{n} {m}\n{max_col} {max_row}\n",
        _decimal_rows(col_deg[None, :]),
        _decimal_rows(row_deg[None, :]),
        _decimal_rows(_padded_lists(bit[by_bit], check[by_bit] + 1, n, max_col)),
        _decimal_rows(_padded_lists(check, bit + 1, m, max_row)),
    ])


# -- groups and ring matrices --------------------------------------------------


def _validate_group_table(mul: np.ndarray) -> tuple[int, ...]:
    """Check the group axioms exactly; return the generating set that proves them.

    A Latin square with identity 0 is a loop.  Light's test decides
    associativity from a generating set S alone: if (x s) y = x (s y) for
    all x, y and each s in S, the elements with that property are closed
    under products, so they are the whole loop.  S is built greedily: the
    next generator is the lowest element that products of the earlier ones
    do not reach.  The test costs |S| n^2 (|S| <= log2 n for a group) in
    place of n^3.
    """
    order = mul.shape[0]
    if order == 0:
        raise PreconditionError("empty group table")
    idx = np.arange(order)
    if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
        raise PreconditionError("element 0 is not a two-sided identity")
    if not (np.array_equal(np.sort(mul, axis=1), np.tile(idx, (order, 1)))
            and np.array_equal(np.sort(mul, axis=0), np.tile(idx[:, None], (1, order)))):
        raise PreconditionError("table is not a Latin square")
    gens: list[int] = []
    reached = idx == 0
    while not reached.all():
        s = int(np.argmin(reached))
        left, right = mul[mul[:, s]], np.take(mul, mul[s], axis=1)  # (x s) y, x (s y)
        if not np.array_equal(left, right):
            x, y = np.argwhere(left != right)[0].tolist()
            raise PreconditionError(f"associativity fails at triple {(x, s, y)}")
        gens.append(s)
        # close under products; each round multiplies the new elements by all
        fresh = np.array([s])
        while fresh.size:
            reached[fresh] = True
            members = np.flatnonzero(reached)
            grown = np.concatenate([mul[np.ix_(fresh, members)].ravel(),
                                    mul[np.ix_(members, fresh)].ravel()])
            # a count, not np.unique, which would import numpy.ma
            fresh = np.flatnonzero((np.bincount(grown, minlength=order) > 0) & ~reached)
    return tuple(gens)


def is_abelian(group: FiniteGroup) -> bool:
    mul = np.array(group.mul)
    return bool(np.array_equal(mul, mul.T))


def from_masks(group: FiniteGroup, masks) -> GroupAlgebraMatrix:
    return GroupAlgebraMatrix(
        group,
        [[GroupAlgebraElement(group, int(m)) for m in row] for row in masks],
    )


def monomial(group: FiniteGroup, g: int) -> GroupAlgebraElement:
    if not 0 <= g < group.order:
        raise PreconditionError(f"element {g} out of range")
    return GroupAlgebraElement(group, 1 << g)


def conj(e: GroupAlgebraElement) -> GroupAlgebraElement:
    """Replace each group element by its inverse."""
    inv = e.group.inv
    mask = 0
    for g in e.support():
        mask |= 1 << int(inv[g])
    return GroupAlgebraElement(e.group, mask)


def conj_transpose(m: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    """Transpose the grid and invert every group element in each entry."""
    return GroupAlgebraMatrix(
        m.group,
        [[conj(m.entries[i][j]) for i in range(m.rows)] for j in range(m.cols)],
        cols=m.rows,
    )


def emit_ring_matrix(m: GroupAlgebraMatrix) -> str:
    """The ring-matrix file of m, each term written g<i>, which names element i of any group."""
    lines = [f"{m.rows} {m.cols} group={m.group.spec}"]
    for row in m.entries:
        lines.append(",".join("+".join(f"g{g}" for g in e.support()) or "0" for e in row))
    return "\n".join(lines) + "\n"


def ring_kron_identity(m: GroupAlgebraMatrix, r: int, side: str) -> GroupAlgebraMatrix:
    """Kronecker with an r x r identity over the ring.

    side="right" builds m (x) I_r (each entry smeared over an r-block
    diagonal); side="left" builds I_r (x) m (r diagonal copies of m).
    """
    zero = GroupAlgebraElement.zero(m.group)
    if side == "right":
        ent = [
            [
                m.entries[i // r][j // r] if i % r == j % r else zero
                for j in range(m.cols * r)
            ]
            for i in range(m.rows * r)
        ]
    elif side == "left":
        ent = [
            [
                m.entries[i % m.rows][j % m.cols]
                if i // m.rows == j // m.cols
                else zero
                for j in range(m.cols * r)
            ]
            for i in range(m.rows * r)
        ]
    else:
        raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
    return GroupAlgebraMatrix(m.group, ent, cols=m.cols * r)


def ring_matmul(a: GroupAlgebraMatrix, b: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    if a.cols != b.rows:
        raise DimensionError(f"ring matmul: inner shapes differ, {a.shape} x {b.shape}")
    if not a.group.same_group(b.group):
        raise PreconditionError("ring matmul: group mismatch")
    zero = GroupAlgebraElement.zero(a.group)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return GroupAlgebraMatrix(a.group, out, cols=b.cols)


# -- graphs, cartesian products and the shared-group action --------------------


def cycle(n: int) -> PlainGraph:
    return PlainGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> PlainGraph:
    return PlainGraph(n, [(i, i + 1) for i in range(n - 1)])



def cartesian_product_plain(a: PlainGraph, b: PlainGraph) -> PlainGraph:
    """Vertices are pairs (u, v) indexed u * |B| + v; edges vary one side."""
    nb = b.vertex_count
    edges: Counter = Counter()
    for (u, w), mult in a.edges.items():
        for v in range(nb):
            x, y = u * nb + v, w * nb + v
            edges[(min(x, y), max(x, y))] += mult
    for (v, w), mult in b.edges.items():
        for u in range(a.vertex_count):
            x, y = u * nb + v, u * nb + w
            edges[(min(x, y), max(x, y))] += mult
    return PlainGraph(a.vertex_count * nb, edges)


def product_action_plain(
    product: PlainGraph, act_a: GroupAction, act_b: GroupAction
) -> GroupAction:
    """Action h . (u, v) = (u . h, h^-1 . v) on the Cartesian product.

    With stored left actions the right action on the first factor is
    pi_A(h^-1), so element h applies pi_A(h^-1) and pi_B(h^-1) to the two
    coordinates; this composes as a genuine left action for any group.
    """
    group = act_a.group
    if not group.same_group(act_b.group):
        raise PreconditionError("factors carry actions of different groups")
    na = act_a.graph.vertex_count
    nb = act_b.graph.vertex_count
    if product.vertex_count != na * nb:
        raise DimensionError(
            f"product has {product.vertex_count} vertices, factors give {na * nb}"
        )
    perms = np.empty((group.order, na * nb), dtype=np.int64)
    for h in range(group.order):
        hinv = int(group.inv[h])
        pa = np.array(act_a.perms["vertex"][hinv])
        pb = np.array(act_b.perms["vertex"][hinv])
        perms[h] = (pa[np.arange(na * nb) // nb] * nb) + pb[np.arange(na * nb) % nb]
    return GroupAction(group, product, {"vertex": perms})


# -- deck actions of a lift ----------------------------------------------------


def slot_perms(m: GroupAlgebraMatrix, left: bool) -> dict:
    """Per part, element h's permutation of the slots of B(m), one row per h.

    Slot s of block i is vertex i * l + s; h sends it to s * h^-1 (the
    right action, stored as a left one) or, with `left`, to h * s.
    """
    group, l, mul = m.group, m.group.order, np.array(m.group.mul)

    def stack(count: int) -> np.ndarray:
        base = (np.arange(count * l) // l) * l
        slot = np.arange(count * l) % l
        return np.stack([base + (mul[h, :] if left
                                 else mul[:, group.inv[h]])[slot] for h in range(l)])

    return {"check": stack(m.rows), "bit": stack(m.cols)}


def lift_with_regular_actions(
    m1: GroupAlgebraMatrix, m2: GroupAlgebraMatrix
) -> tuple[TannerGraph, TannerGraph, GroupAction, GroupAction]:
    """Expanded Tanner graphs of both inputs with their deck actions.

    The first factor carries slot right-multiplication (stored as the
    left action s -> s * h^-1, `lift_from_ring_matrix`), the second slot
    left-multiplication (`slot_perms(m2, left=True)`); feeding these to
    `balanced_product` reproduces the lifted product under the identity
    labelling.  Left multiplication only preserves the second graph when
    conjugation fixes its entries, as in an abelian group, so other
    inputs are rejected by action validation.
    """
    if not m1.group.same_group(m2.group):
        raise PreconditionError("both matrices must share one group")
    a, b = lift_from_ring_matrix(m1), lift_from_ring_matrix(m2)
    return a.graph, b.graph, a.action, GroupAction(m2.group, b.graph, slot_perms(m2, left=True))


# -- product-code comparisons --------------------------------------------------


def total_vertices(code: CSSCode) -> int:
    return code.n + code.m_x + code.m_z


def hgp_of_lifts(m1: GroupAlgebraMatrix, m2: GroupAlgebraMatrix) -> CSSCode:
    """Comparison baseline: expand both inputs first, then take the plain product.

    Total vertex count is l times that of the lifted product of the same
    inputs.
    """
    if not m1.group.same_group(m2.group):
        raise PreconditionError("hgp_of_lifts needs one shared group")
    code = hgp(ClassicalCode(binary_map(m1)), ClassicalCode(binary_map(m2)))
    code.provenance = {
        "kind": "hgp_of_lifts",
        "group": m1.group.spec,
        "l": m1.group.order,
        "base": code.provenance,
    }
    return code


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


def search_noncommuting_lp(group, max_rows: int, max_cols: int, draws: int,
                           seed: int):
    """Seeded random hunt for a lifted product with anticommuting checks.

    Returns (m1, m2, draw_index) for the first non-commuting instance,
    or None when every draw commutes.
    """
    rng = random.Random(seed)

    def random_matrix():
        rows = rng.randint(1, max_rows)
        cols = rng.randint(1, max_cols)
        masks = [
            [rng.getrandbits(group.order) for _ in range(cols)]
            for _ in range(rows)
        ]
        return from_masks(group, masks)

    for draw in range(draws):
        m1 = random_matrix()
        m2 = random_matrix()
        code = lifted_product(m1, m2)
        if not code.commuting:
            return m1, m2, draw
    return None


# -- logical bases of a hypergraph product -----------------------------------------


class LogicalBasis(NamedTuple):
    """Paired logical representatives: pairing[i][j] = <x_i, z_j> = delta_ij."""

    x_logicals: BitMatrix
    z_logicals: BitMatrix
    pairing: BitMatrix


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
        return from_entries(k, len(basis.column_permutation), range(k),
                            basis.column_permutation[:k])

    def blocks(a: ClassicalCode, b: ClassicalCode) -> tuple[BitMatrix, BitMatrix]:
        """kron(G_a, U_b) and kron(U_a, G_b); no rows when either code has k = 0."""
        if a.dimension() * b.dimension() == 0:
            return (BitMatrix.zeros(0, a.n * b.n),) * 2
        sa, sb = systematic_basis(a), systematic_basis(b)
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


def verify_logical_basis(code: CSSCode, basis: LogicalBasis) -> None:
    """Kernel membership and stabiliser-independence of every representative."""
    if not matmul_t(code.h_z, basis.x_logicals).is_zero():
        raise AssertionError("an X logical leaves kernel(H_Z)")
    if not matmul_t(code.h_x, basis.z_logicals).is_zero():
        raise AssertionError("a Z logical leaves kernel(H_X)")
    k = basis.x_logicals.rows
    if rank(vstack(code.h_x, basis.x_logicals)) != rank(code.h_x) + k:
        raise AssertionError("an X logical lies in the X stabiliser row space")
    if rank(vstack(code.h_z, basis.z_logicals)) != rank(code.h_z) + k:
        raise AssertionError("a Z logical lies in the Z stabiliser row space")
