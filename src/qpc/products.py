"""The three product constructions and their coordinate layouts.

Every constructor returns a CSSCode whose column order is Q1 block then
Q2 block; all layouts and golden files depend on that order, so it is
never permuted.  Commutation is computed, never assumed: lifted products
over non-commuting entries legitimately fail it and are returned with
`commuting=False` for downstream code to refuse.  One formula builds
both algebraic products: the lifted product is the HGP formula with
l x l blocks, applied to the binary maps of its ring matrices.

All three layouts follow one rule, `_layout`, in 2D (hypergraph) and
3D (lifted/balanced): the x axis runs over first-factor checks then
bits, the y axis over second-factor bits then checks, and the z axis
(3D only) over group-element rows anchored at orbit basepoints.  The
balanced product numbers its pair classes by formula, k |B part| + w for
first-factor basepoint k and second-factor vertex w (`_pair_class`).
A code's layout is built on first read, and its incidence edges on
first read of `layout.edges`: writing files or analysing a code needs
neither.  `groups` and `tanner` are imported by the constructors that
use them, and `render` by the layout builders, so hypergraph products
load neither of the first two and analysis loads none of the three.
All three products and their layouts move Python ints.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable

from .classical import ClassicalCode
from .errors import DimensionError, PreconditionError
from .gf2 import BitMatrix, hstack, kron, matmul_t, transpose

if TYPE_CHECKING:
    from .groups import GroupAlgebraMatrix
    from .render import CoordinateTable
    from .tanner import GroupAction, TannerGraph


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


# The factor parts each vertex family pairs: X checks are first-factor
# checks with second-factor bits, Z checks the reverse, Q1 bits with bits
# and Q2 checks with checks.
_FAMILIES = {"x": ("check", "bit"), "z": ("bit", "check"),
             "q1": ("bit", "bit"), "q2": ("check", "check")}


def _layout(kind: str, m1: int, n2: int, families: dict, edges) -> CoordinateTable:
    """The coordinates of every product layout.

    `families[name]` holds the (first-factor class, second-factor class,
    row) lists of one vertex family in code order.  x is the first-factor
    class, offset by m1 for bits; y the second-factor class, offset by n2
    for checks; z the row, dropped in "2d".
    """

    from .render import CoordinateTable

    def coords(name):
        a, b, row = families[name]
        part_a, part_b = _FAMILIES[name]
        da, db = m1 * (part_a == "bit"), n2 * (part_b == "check")
        return tuple(zip([x + da for x in a], [y + db for y in b],
                         *([row] if kind == "3d" else [])))

    return CoordinateTable(kind=kind, x_checks=coords("x"), z_checks=coords("z"),
                           qubits_q1=coords("q1"), qubits_q2=coords("q2"), edges=edges)


def _grid(m1: int, n1: int, m2: int, n2: int, l: int) -> dict:
    """Families indexed (a * cols + b) * l + g, the order of the product matrices."""
    first, second = {"check": m1, "bit": n1}, {"check": m2, "bit": n2}

    def axes(f: int, s: int) -> tuple[list[int], list[int], list[int]]:
        return ([a for a in range(f) for _ in range(s * l)],
                [b for b in range(s) for _ in range(l)] * f, list(range(l)) * (f * s))

    return {name: axes(first[pa], second[pb]) for name, (pa, pb) in _FAMILIES.items()}


# -- hypergraph product -------------------------------------------------------


def _kron_identity(h: BitMatrix, r: int, l: int) -> BitMatrix:
    """H (x) I_r over l x l blocks: block (i, j) of H goes to (i r + p, j r + p), p < r."""
    cols, spread = h.cols * r, (r - 1) * l
    steps = range(0, r * l * (cols + 1), l * (cols + 1))    # p l down and p l across
    return BitMatrix(h.rows * r, cols, [(a + a // l * spread) * cols + b + b // l * spread + s
                                        for a, b in h.ones() for s in steps])


def _product(h1: BitMatrix, h2: BitMatrix, l: int) -> tuple[BitMatrix, BitMatrix]:
    """H_X = (H1 x I | I x H2^T), H_Z = (I x H2 | H1^T x I) over l x l blocks as entries."""
    m1, n1, m2, n2 = h1.rows // l, h1.cols // l, h2.rows // l, h2.cols // l
    h_x = hstack(_kron_identity(h1, n2, l), kron(BitMatrix.identity(m1), transpose(h2)))
    h_z = hstack(kron(BitMatrix.identity(n1), h2), _kron_identity(transpose(h1), m2, l))
    return h_x, h_z


def hgp(c1: ClassicalCode, c2: ClassicalCode) -> CSSCode:
    """Hypergraph product: H_X = (H1 x I | I x H2^T), H_Z = (I x H2 | H1^T x I)."""
    m1, n1 = c1.h.shape
    m2, n2 = c2.h.shape
    h_x, h_z = _product(c1.h, c2.h, 1)
    return CSSCode(
        h_x,
        h_z,
        q1_size=n1 * n2,
        layout=lambda edges: _layout("2d", m1, n2, _grid(m1, n1, m2, n2, 1), edges),
        provenance={
            "kind": "hgp",
            "m1": m1, "n1": n1, "m2": m2, "n2": n2,
        },
    )


# -- lifted product -----------------------------------------------------------


def lifted_product(m1: GroupAlgebraMatrix, m2: GroupAlgebraMatrix) -> CSSCode:
    """Hypergraph product over the group algebra, expanded by the binary map.

    The binary map B is a ring homomorphism with B(M*) = B(M)^T, so this
    is the HGP formula applied to B(m1) and B(m2) with |G| x |G| blocks.
    Checks are not guaranteed to commute; inspect the `commuting` flag.
    """
    from .groups import binary_map

    if not m1.group.same_group(m2.group):
        raise PreconditionError(
            f"lifted product needs one shared group, got {m1.group.spec}"
            f" and {m2.group.spec}"
        )
    l = m1.group.order
    r1, c1 = m1.shape
    r2, c2 = m2.shape
    h_x, h_z = _product(binary_map(m1), binary_map(m2), l)
    return CSSCode(
        h_x,
        h_z,
        q1_size=c1 * c2 * l,
        layout=lambda edges: _layout("3d", r1, c2, _grid(r1, c1, r2, c2, l), edges),
        provenance={
            "kind": "lifted_product",
            "group": m1.group.spec,
            "l": l,
            "m1": r1, "n1": c1, "m2": r2, "n2": c2,
        },
    )


# -- balanced product ---------------------------------------------------------


def _pair_class(orbits_a: tuple, perms_b: tuple, inv: tuple, u: int, v: int) -> int:
    """The class of the pair (u, v) of a balanced product.

    The group acts by h . (u, v) = (u . h, h^-1 . v); with stored left
    actions both coordinates receive the inverse element's permutation.
    The action on the first factor is free, so exactly one member of the
    orbit of (u, v) has a basepoint first, (base(u), pi_B(row(u)^-1) v),
    and class k |B part| + w is that of the representative (basepoint k, w).
    `orbits_a` are the `part_orbits` of the first factor's part and
    `perms_b` the second factor's permutations of its part.
    """
    _, cls, row = orbits_a
    return cls[u] * len(perms_b[0]) + perms_b[inv[row[u]]][v]


def balanced_product(
    a: TannerGraph,
    b: TannerGraph,
    act_a: GroupAction,
    act_b: GroupAction,
) -> CSSCode:
    """Quotient of the Cartesian Tanner complex by the shared group action.

    Qubits are classes of bit x bit and check x check pairs, X checks of
    check x bit pairs, Z checks of bit x check pairs, each numbered by
    `_pair_class`.  The action on the first factor must be free, so it
    pins no edge either (an element fixing an edge fixes both its ends);
    the second action only has to be valid.  Parallel quotient edges are
    reduced mod 2 in the parity-check matrices, with the reduction count
    recorded in provenance.
    """
    from .tanner import is_free, part_orbits

    group = act_a.group
    if not group.same_group(act_b.group):
        raise PreconditionError("balanced product needs one shared group")
    if act_a.graph is not a or act_b.graph is not b:
        if act_a.graph != a or act_b.graph != b:
            raise PreconditionError("actions were built for different graphs")
    free, witness = is_free(act_a)
    if not free:
        raise PreconditionError("action on the first factor is not free", witness)

    orbits_a = {part: part_orbits(act_a, part) for part in ("check", "bit")}
    orbits_b = {part: part_orbits(act_b, part) for part in ("check", "bit")}
    m_a = {part: len(bases) for part, (bases, _, _) in orbits_a.items()}
    size_b = b.part_sizes()
    classes = {name: m_a[pa] * size_b[pb] for name, (pa, pb) in _FAMILIES.items()}
    n = classes["q1"] + classes["q2"]
    offset = {"q1": 0, "q2": classes["q1"]}
    reduced = 0

    def ends(graph, part):
        """The edges of `graph` as (end in `part`, other end, multiplicity)."""
        if part == "check":
            return [(u, v, mult) for (u, v), mult in graph.edges.items()]
        return [(v, u, mult) for (u, v), mult in graph.edges.items()]

    def fill(check_name):
        # Row k |B part| + v is the class of (basepoint k, v).  An edge of A at
        # the basepoint keeps v and an edge of B at v keeps the basepoint.  From
        # an X check (check, bit) the first reaches a bit x bit pair (Q1), the
        # second a check x check pair (Q2); from a Z check the other way round.
        nonlocal reduced
        part_a, part_b = _FAMILIES[check_name]
        a_family, b_family = ("q1", "q2") if check_name == "x" else ("q2", "q1")
        bases, cls, _ = orbits_a[part_a]
        orbits_w, perms_b = orbits_a[_FAMILIES[a_family][0]], act_b.perms[part_b]
        width, width_w = size_b[part_b], size_b[_FAMILIES[b_family][1]]
        counts: dict = {}
        for at, w, mult in ends(a, part_a):
            if bases[cls[at]] == at:    # the edges of A that leave a basepoint, by every v
                top = cls[at] * width * n + offset[a_family]
                for v in range(width):
                    key = top + v * n + _pair_class(orbits_w, perms_b, group.inv, w, v)
                    counts[key] = counts.get(key, 0) + mult
        edges_b = ends(b, part_b)
        for k in range(m_a[part_a]):    # every basepoint, by the edges of B
            for at, w, mult in edges_b:
                key = (k * width + at) * n + offset[b_family] + k * width_w + w
                counts[key] = counts.get(key, 0) + mult
        reduced += sum(c > 1 for c in counts.values())
        return BitMatrix(classes[check_name], n, sorted(key for key, c in counts.items() if c % 2))

    h_x = fill("x")
    h_z = fill("z")

    def layout(edges) -> CoordinateTable:
        families = {name: ([k for k in range(m_a[pa]) for _ in range(size_b[pb])],
                           *(x * m_a[pa] for x in orbits_b[pb][1:]))
                    for name, (pa, pb) in _FAMILIES.items()}
        return _layout("3d", m_a["check"], len(orbits_b["bit"][0]), families, edges)

    return CSSCode(h_x, h_z, q1_size=classes["q1"], layout=layout, provenance={
        "kind": "balanced_product", "group": group.spec, "mod2_reduced_entries": reduced})
