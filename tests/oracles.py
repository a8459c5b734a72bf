"""Reference implementations that the tests compare qpc against.

Each is a direct, unoptimised form of a result qpc reaches another way,
or a view of a value that only the tests need:

- rows of a `BitMatrix` as Python ints, and the row operations of an
  elimination, found by eliminating [source | I];
- ring matrices over F2[G]: the Kronecker product with an identity, the
  matrix product and the conjugate transpose, whose binary maps the
  lifted product is checked against;
- the Cartesian product of plain graphs and the shared-group action on it,
  whose quotient is the balanced product of the paper's worked example;
- the deck action tables of a lift, stacked one group element at a time.

This file is not collected by pytest; test modules import it by name.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from qpc.errors import DimensionError, PreconditionError
from qpc.gf2 import BitMatrix, _word_count, hstack, rref
from qpc.groups import FiniteGroup, GroupAlgebraElement, GroupAlgebraMatrix
from qpc.tanner import GroupAction, PlainGraph

# -- GF(2) rows as ints, and row operations ------------------------------------


def from_row_ints(ints, cols: int) -> BitMatrix:
    """Rows given as little-endian integers (bit j of the int = column j)."""
    rows = len(ints)
    nw = _word_count(cols)
    words = np.zeros((rows, nw), dtype=np.uint64)
    for i, value in enumerate(ints):
        if value < 0 or value >> cols:
            raise DimensionError(f"row {i} does not fit in {cols} columns")
        raw = int(value).to_bytes(nw * 8, "little")
        words[i] = np.frombuffer(raw, dtype=np.uint64)
    return BitMatrix(rows, cols, words)


def row_int(m: BitMatrix, i: int) -> int:
    """Row i as a little-endian integer."""
    return int.from_bytes(m._words[i].tobytes(), "little")


def rows_as_ints(m: BitMatrix) -> list[int]:
    return [row_int(m, i) for i in range(m.rows)]


def row_weight(m: BitMatrix, i: int) -> int:
    return int(np.bitwise_count(m._words[i]).sum())


def row_ops(source: BitMatrix) -> BitMatrix:
    """An invertible U with `U @ source == rref(source).rref`.

    Eliminating [source | I] reduces the left block to the reduced form
    and carries the same row operations into the right block.
    """
    reduced = rref(hstack(source, BitMatrix.identity(source.rows))).rref
    return reduced.columns(range(source.cols, source.cols + source.rows))


# -- groups and ring matrices --------------------------------------------------


def is_abelian(group: FiniteGroup) -> bool:
    return bool(np.array_equal(group.mul, group.mul.T))


def conj_transpose(m: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    """Transpose the grid and invert every group element in each entry."""
    return GroupAlgebraMatrix(
        m.group,
        [[m.entries[i][j].conj() for i in range(m.rows)] for j in range(m.cols)],
        cols=m.rows,
    )


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


# -- cartesian products and the shared-group action ----------------------------


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
        hinv = group.inverse(h)
        pa = act_a.perms["vertex"][hinv]
        pb = act_b.perms["vertex"][hinv]
        perms[h] = (pa[np.arange(na * nb) // nb] * nb) + pb[np.arange(na * nb) % nb]
    return GroupAction(group, product, {"vertex": perms})


# -- deck actions of a lift ----------------------------------------------------


def slot_perms(m: GroupAlgebraMatrix, left: bool) -> dict:
    """Per part, element h's permutation of the slots of B(m), one row per h.

    Slot s of block i is vertex i * l + s; h sends it to s * h^-1 (the
    right action, stored as a left one) or, with `left`, to h * s.
    """
    group, l = m.group, m.group.order

    def stack(count: int) -> np.ndarray:
        base = (np.arange(count * l) // l) * l
        slot = np.arange(count * l) % l
        return np.stack([base + (group.mul[h, :] if left
                                 else group.mul[:, group.inverse(h)])[slot] for h in range(l)])

    return {"check": stack(m.rows), "bit": stack(m.cols)}
