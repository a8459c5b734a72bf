"""Tanner multigraphs, group actions, quotients and covering maps.

Graphs here are multisets of edges: quotients of free actions create
parallel edges (the 6-cycle mod Z3 collapses to a double edge), and
collapsing them silently would falsify every size claim downstream, so
multiplicity is first class.  The balanced product reduces it mod 2 in
its check matrices and records how many entries that changed.

A graph is a `Counter` of its distinct edges in first-listed order, and
an action a tuple of permutation tuples, so every function here works on
Python ints.  `gf2` and `groups` are imported by the functions that use
them: reading and drawing a graph and the covering check load neither.

Actions are stored one permutation per group element per vertex part,
composing as a left action (perm(gh) = perm(g) after perm(h)).  They are
validated on the group's generating set S (`FiniteGroup.generators`)
only: perm(s g) = perm(s) perm(g) for each s in S and every g, and each s
preserves the edge multiset.  Both are exact.  With perm(e) = id checked,
induction on word length gives perm(w g) = perm(w) perm(g) for every
product w of generators, that is for every element; and a composition of
edge-preserving permutations preserves the edges.  Each generator is the
lowest element the earlier ones do not generate, so the lowest failing
element of a full scan is always a generator: refusals name the same
witness as a check of every element would.  Orbit basepoints are always
the lowest vertex index so that layouts, quotient labellings and golden
files are reproducible; `quotient` returns the `part_orbits` lists it
numbered the quotient's vertices by.

A covering map is a dict of base-vertex lists, one per part, checked by
`verify_covering(cover, base, maps)`.  A lift of a ring matrix m is built
in one place, `lift_from_ring_matrix`: one `Lift` of the Tanner graph of
B(m), the group's deck action on it, the base graph of m and the
covering map onto that base.  Records are `NamedTuple`s.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter, defaultdict
from itertools import compress, count
from typing import TYPE_CHECKING, NamedTuple

from .errors import (DimensionError, FormatError, PreconditionError, content_lines, int_rows,
                     load_object, typed, typed_list)

if TYPE_CHECKING:
    from .gf2 import BitMatrix
    from .groups import FiniteGroup, GroupAlgebraMatrix


class _Graph:
    """Distinct edges in a Counter.

    `_edges` maps each distinct edge (end0, end1) to its multiplicity, in
    the order its first copy was given; end0 lies in the part `ENDS[0]`,
    end1 in `ENDS[1]`.
    """

    __slots__ = ("_edges",)
    ENDS: tuple[str, str]

    def _merge(self, edges, sizes: tuple[int, int], range_note: str) -> None:
        """Validate (end0, end1) pairs, or a Counter of them, and sum repeated edges."""
        counter: Counter = Counter()
        items = edges.items() if isinstance(edges, Counter) else ((e, 1) for e in edges)
        plain = self.ENDS[0] == self.ENDS[1]
        for (u, v), mult in items:
            if not (0 <= u < sizes[0] and 0 <= v < sizes[1]):
                raise PreconditionError(f"edge ({u}, {v}) out of range{range_note}")
            if mult < 1:
                raise PreconditionError(f"edge ({u}, {v}) has multiplicity {mult}")
            counter[(min(u, v), max(u, v)) if plain else (u, v)] += mult
        self._edges = counter

    @property
    def edges(self) -> Counter:
        """The edge multiset in edge order, as a new Counter on each read."""
        return self._edges.copy()

    def edge_count(self) -> int:
        return sum(self._edges.values())

    def _tallies(self, part: str, relabel) -> dict[int, dict]:
        """Neighbour tallies of each vertex of `part` that has an edge.

        A tally maps each neighbour, relabelled by `relabel`, to its summed
        multiplicity, in edge order; a plain-graph loop counts once.
        """
        first, second = self.ENDS
        items = self._edges.items()
        if first == second:
            items = [(e, m) for (u, v), m in items for e in ((u, v), (v, u))[:1 + (u != v)]]
        elif part == second:
            items = [((v, u), m) for (u, v), m in items]
        tallies: dict = defaultdict(dict)
        for (at, w), m in items:
            w, tally = relabel[w], tallies[at]
            tally[w] = tally.get(w, 0) + m
        return tallies

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.part_sizes() == other.part_sizes() and self._edges == other._edges


class TannerGraph(_Graph):
    """Bipartite multigraph with check and bit parts."""

    __slots__ = ("check_count", "bit_count")
    ENDS = ("check", "bit")

    def __init__(self, check_count: int, bit_count: int, edges):
        self.check_count = check_count
        self.bit_count = bit_count
        self._merge(edges, (check_count, bit_count),
                    f" for {check_count} checks, {bit_count} bits")

    @classmethod
    def from_bitmatrix(cls, h: BitMatrix) -> "TannerGraph":
        return cls(h.rows, h.cols, sorted(h.ones()))    # row-major

    def part_sizes(self) -> dict[str, int]:
        return {"check": self.check_count, "bit": self.bit_count}

    def __repr__(self):
        return (
            f"TannerGraph(checks={self.check_count}, bits={self.bit_count},"
            f" edges={self.edge_count()})"
        )


class PlainGraph(_Graph):
    """Undirected multigraph; loops allowed, edges stored as sorted pairs."""

    __slots__ = ("vertex_count",)
    ENDS = ("vertex", "vertex")

    def __init__(self, vertex_count: int, edges):
        self.vertex_count = vertex_count
        self._merge(edges, (vertex_count, vertex_count), "")

    def part_sizes(self) -> dict[str, int]:
        return {"vertex": self.vertex_count}

    def __repr__(self):
        return f"PlainGraph(vertices={self.vertex_count}, edges={self.edge_count()})"


# -- group actions -----------------------------------------------------------


class GroupAction:
    """Type-preserving action of a finite group on a graph.

    `perms[part][g]` is the permutation applied by element g, kept as
    Python ints; the table composes as a left action and is validated
    for the homomorphism property and edge-multiset invariance at
    construction, on the group's generating set (exact; see the module
    docstring).
    """

    def __init__(self, group: FiniteGroup, graph, perms: dict):
        self.group = group
        self.graph = graph
        self.perms = {part: int_rows(p) for part, p in perms.items()}
        self._validate()

    # part layout: TannerGraph -> ("check", "bit"); PlainGraph -> ("vertex",)

    @classmethod
    def from_generators(cls, group, graph, gen_perms: list[dict]) -> "GroupAction":
        """Extend per-generator permutations to the whole group by composition."""
        gens = generator_indices(group)
        if len(gen_perms) != len(gens):
            raise PreconditionError(f"group {group.spec} needs {len(gens)} generator"
                                    f" permutations, got {len(gen_perms)}")
        sizes = _part_sizes(graph)
        gen_arrs = [
            {part: _permutation(perm[_perm_key(part)], size, f"generator {i}: {part}")
             for part, size in sizes.items()}
            for i, perm in enumerate(gen_perms)
        ]
        full = {part: [tuple(range(size))] + [None] * (group.order - 1)
                for part, size in sizes.items()}
        known = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for g in frontier:
                for s, arrs in zip(gens, gen_arrs):
                    h = group.multiply(s, g)
                    if h in known:
                        continue
                    for part in sizes:
                        full[part][h] = tuple(map(arrs[part].__getitem__, full[part][g]))
                    known.add(h)
                    nxt.append(h)
            frontier = nxt
        return cls(group, graph, full)

    def _validate(self) -> None:
        sizes = _part_sizes(self.graph)
        if set(self.perms) != set(sizes):
            raise PreconditionError(
                f"action parts {sorted(self.perms)} do not match graph parts {sorted(sizes)}"
            )
        order, mul, gens = self.group.order, self.group.mul, self.group.generators
        for part, size in sizes.items():
            rows = self.perms[part]
            widths = {len(row) for row in rows}
            if len(rows) != order or widths - {size}:
                raise DimensionError(
                    f"{part} permutation table has shape {(len(rows), *sorted(widths))},"
                    f" expected {(order, size)}"
                )
            idx = list(range(size))
            if list(rows[0]) != idx:
                raise PreconditionError(f"identity element must act trivially on {part}s")
            bad = next((g for g, row in enumerate(rows) if sorted(row) != idx), None)
            if bad is not None:
                raise PreconditionError(f"element {bad} is not a permutation of {part}s")
            for s in gens:
                # perm(s g) against perm(s) after perm(g), for every g
                after_s = rows[s].__getitem__
                bad = next((g for g, row in enumerate(rows)
                            if rows[mul[s][g]] != tuple(map(after_s, row))), None)
                if bad is not None:
                    raise PreconditionError(f"homomorphism fails on {part}s at ({s}, {bad})")
        # the images of distinct edges are distinct, so each keeping its
        # multiplicity means the multiset is preserved
        edges = self.graph._edges
        first, second = self.graph.ENDS
        for s in gens:
            p0, p1 = self.perms[first][s], self.perms[second][s]
            for (u, v), mult in edges.items():
                a, b = p0[u], p1[v]
                if edges.get((a, b) if first != second or a <= b else (b, a)) != mult:
                    raise PreconditionError(f"element {s} does not preserve the edge multiset")


def _perm_key(part: str) -> str:
    return f"{part}_perm"


def _permutation(values, size: int, where: str) -> tuple[int, ...]:
    """A permutation list from an action file, with `size` entries in 0..size-1."""
    if len(values) != size:
        raise PreconditionError(f"{where} permutation has {len(values)} entries, expected {size}")
    bad = [v for v in values if type(v) is not int or not 0 <= v < size]
    if bad:
        raise PreconditionError(f"{where} permutation entry {bad[0]!r} is not in 0..{size - 1}")
    return tuple(values)


def _part_sizes(graph) -> dict[str, int]:
    if not isinstance(graph, _Graph):
        raise PreconditionError(f"unsupported graph type {type(graph).__name__}")
    return graph.part_sizes()


def generator_indices(group: FiniteGroup) -> list[int]:
    """The generators an action file lists: x (then y) for cyclic groups and
    their products, `FiniteGroup.generators` for any other table."""
    names = group.generator_names()
    if set(names) <= {"x", "y"}:
        return [names[k] for k in ("x", "y") if k in names]
    return list(group.generators)


def is_free(action: GroupAction) -> tuple[bool, tuple | None]:
    """True iff no non-identity element fixes any vertex; witness otherwise."""
    for g in range(1, action.group.order):
        for part in _part_sizes(action.graph):
            rows = action.perms[part]   # rows[0] is the identity, validated
            v = next(compress(count(), map(operator.eq, rows[g], rows[0])), None)
            if v is not None:
                return False, (g, (part, v))
    return True, None


def has_fixed_edge(action: GroupAction) -> tuple[bool, tuple | None]:
    """Forbidden-edge test for quotient inputs.

    Plain graphs use the literal condition: some edge joins v and g.v for
    a non-identity g.  On bipartite Tanner graphs that condition is
    vacuous across parts, so the check is instead for an edge fixed
    setwise by a non-identity element, which only an element that fixes
    a check and a bit can do.
    """
    graph = action.graph
    p0s, p1s = (action.perms[part] for part in graph.ENDS)
    tanner = isinstance(graph, TannerGraph)
    for g in range(1, action.group.order):
        p0, p1 = p0s[g], p1s[g]
        if tanner:
            if not (any(map(operator.eq, p0, p0s[0])) and any(map(operator.eq, p1, p1s[0]))):
                continue
            hit = next((e for e in graph._edges if p0[e[0]] == e[0] and p1[e[1]] == e[1]), None)
        else:
            hit = next((e for e in graph._edges if p0[e[0]] == e[1] or p1[e[1]] == e[0]), None)
        if hit is not None:
            return True, (g, hit)
    return False, None


def part_orbits(action: GroupAction, part: str) -> tuple[list, list, list]:
    """Orbits of one part as lists: (basepoints, class of each vertex, row of each vertex).

    Basepoints are the orbit minima in ascending order, so class c has
    basepoint `basepoints[c]`; `row[w]` is the lowest group element
    carrying the basepoint of w onto w.
    """
    rows = action.perms[part]
    size = len(rows[0])
    basepoints, cls, row = [], [None] * size, [None] * size
    for v in range(size):
        if cls[v] is None:      # no lower vertex reaches v: a new orbit, at its minimum
            for g, perm in enumerate(rows):
                if cls[w := perm[v]] is None:
                    cls[w], row[w] = len(basepoints), g
            basepoints.append(v)
    return basepoints, cls, row


def quotient(graph, action: GroupAction):
    """Quotient graph and the orbits it was read from.

    One vertex per vertex orbit, numbered by `part_orbits` class, and one
    edge per edge orbit.  Returns `(quotient_graph, orbits)` with
    `orbits[part]` the `part_orbits` of each part.  Edge multiplicity
    carries over from the input (all members of an orbit share it);
    several edge orbits between the same vertex classes stack up as
    parallel edges, in the order of their lowest members.
    """
    if action.graph is not graph and action.graph != graph:
        raise PreconditionError("action was built for a different graph")
    orbits = {part: part_orbits(action, part) for part in _part_sizes(graph)}
    first, second = graph.ENDS
    p0s, p1s = action.perms[first], action.perms[second]
    cls0, cls1 = orbits[first][1], orbits[second][1]
    edges = graph._edges
    seen = set()
    quotient_edges: Counter = Counter()
    for u, v in sorted(edges):      # an edge not yet seen is the lowest of its orbit
        if (u, v) in seen:
            continue
        for p0, p1 in zip(p0s, p1s):
            a, b = p0[u], p1[v]
            seen.add((a, b) if first != second or a <= b else (b, a))
        quotient_edges[(cls0[u], cls1[v])] += edges[(u, v)]
    return type(graph)(*(len(bases) for bases, _, _ in orbits.values()), quotient_edges), orbits


# -- covering maps ------------------------------------------------------------


class CoveringReport(NamedTuple):
    """The violations of a vertex map and its lift size l (None unless every
    fibre of a part that maps any vertex has l vertices)."""

    violations: list
    lift_size: int | None

    @property
    def valid(self) -> bool:
        return not self.violations


def verify_covering(cover, base, maps: dict) -> CoveringReport:
    """Check that `maps`, one list of base vertices per part, is a covering.

    Valid iff every vertex's incident edges map one-to-one onto the
    incident edges of its image.  Also reports whether the map is an
    l-lift (all fibres the same size l).
    """
    if type(cover) is not type(base):
        raise PreconditionError("cover and base must be the same kind of graph")
    cover_sizes = _part_sizes(cover)
    base_sizes = _part_sizes(base)
    if set(maps) != set(cover_sizes):
        raise PreconditionError(
            f"vertex map parts {sorted(maps)} do not match graph parts {sorted(cover_sizes)}"
        )
    images = {}
    for part, size in cover_sizes.items():
        try:
            images[part] = [operator.index(v) for v in maps[part]]
        except TypeError:  # not a list, or an entry that is not an integer
            images[part] = None
        if images[part] is None or len(images[part]) != size:
            raise PreconditionError(f"{part} map must list every cover vertex")
        if not all(0 <= v < base_sizes[part] for v in images[part]):
            raise PreconditionError(f"{part} map has out-of-range images")

    violations = []
    for part in cover_sizes:
        other = cover.ENDS[0] if part == cover.ENDS[1] else cover.ENDS[1]
        got = cover._tallies(part, images[other])
        want = base._tallies(part, range(base_sizes[other]))
        for v, w in enumerate(images[part]):
            mapped, has = got.get(v, {}), want.get(w, {})
            if mapped != has:
                violations.append(
                    f"{part} {v}: incident edges map to {mapped}, base vertex {w} has {has}"
                )

    sizes = set()
    for part, fibre in images.items():
        if fibre:  # counts of the base vertices reached, so a huge base part costs nothing
            counts = Counter(fibre)
            sizes.update(counts.values())
            if len(counts) < base_sizes[part]:
                sizes.add(0)  # a base vertex no cover vertex maps to
    return CoveringReport(violations, sizes.pop() if len(sizes) == 1 else None)


class Lift(NamedTuple):
    """Tanner graph of B(m), its deck action, its base graph and the covering map onto it.

    Block i of each part holds the slots i*l + s, one per group element s,
    and `maps` sends each slot to its block.  The base has one vertex per
    block and one edge per term of each entry, so an entry of weight w
    gives w parallel edges and `maps` is always a covering.
    """

    graph: TannerGraph
    action: GroupAction
    base: TannerGraph
    maps: dict


def lift_from_ring_matrix(m: GroupAlgebraMatrix) -> Lift:
    """Expand m by the binary map, with the group acting on every block's slots.

    Element h sends slot s to s*h^-1, which is a deck action for every
    group (B(g) is left multiplication by g, and right multiplications
    commute with it).
    """
    from .groups import binary_map

    group, l = m.group, m.group.order
    graph = TannerGraph.from_bitmatrix(binary_map(m))
    columns = list(zip(*group.mul))
    table = [columns[h] for h in group.inv]  # table[h][s]: the image of s
    action = GroupAction(group, graph, {
        part: [tuple(i * l + t for i in range(count) for t in images) for images in table]
        for part, count in (("check", m.rows), ("bit", m.cols))})
    base = TannerGraph(m.rows, m.cols, Counter({
        (i, j): weight for i, row in enumerate(m.entries) for j, e in enumerate(row)
        if (weight := len(e.support()))}))
    maps = {part: [v // l for v in range(count * l)]
            for part, count in (("check", m.rows), ("bit", m.cols))}
    return Lift(graph, action, base, maps)


# -- file formats --------------------------------------------------------------


def parse_graph(text: str):
    """Header "checks <m> bits <n>" or "vertices <v>", then one edge per line."""
    content = ((ln, line.split()) for ln, line in content_lines(text))
    pos, header = next(content, (0, None))
    if header is None:
        raise FormatError("empty graph file")

    def as_int(token: str, ln: int) -> int:
        try:
            return int(token)
        except ValueError:
            raise FormatError(f"expected an integer, got {token!r}", ln) from None

    if header[:1] == ["checks"]:
        if len(header) != 4 or header[2] != "bits":
            raise FormatError("expected 'checks <m> bits <n>'", pos)
        cls, sizes, (first, second) = TannerGraph, (as_int(header[1], pos),
                                                    as_int(header[3], pos)), "cb"
    elif header[:1] == ["vertices"]:
        if len(header) != 2:
            raise FormatError("expected 'vertices <v>'", pos)
        cls, sizes, (first, second) = PlainGraph, (as_int(header[1], pos),), "vv"
    else:
        raise FormatError(f"unknown graph header {' '.join(header)!r}", pos)
    if not all(0 <= size <= sys.maxsize for size in sizes):
        raise FormatError("graph sizes must be non-negative and fit an array dimension", pos)
    edges = []
    for ln, fields in content:
        if len(fields) != 2 or not (fields[0].startswith(first) and fields[1].startswith(second)):
            raise FormatError(f"expected edge '{first}<i> {second}<j>'", ln)
        edges.append((as_int(fields[0][1:], ln), as_int(fields[1][1:], ln)))
    try:
        return cls(*sizes, edges)
    except PreconditionError as exc:
        raise FormatError(str(exc)) from exc


def emit_graph(graph) -> str:
    if isinstance(graph, TannerGraph):
        lines, ends = [f"checks {graph.check_count} bits {graph.bit_count}"], "cb"
    else:
        lines, ends = [f"vertices {graph.vertex_count}"], "vv"
    for (u, v), mult in sorted(graph.edges.items()):
        lines.extend([f"{ends[0]}{u} {ends[1]}{v}"] * mult)
    return "\n".join(lines) + "\n"


def parse_action(text: str, graph, root="") -> GroupAction:
    """JSON action file: group spec plus per-generator (or per-element) permutation lists;
    a `table:` path in the spec is read from the directory `root`."""
    from .groups import parse_group_spec

    data = load_object(text, "an action file")
    if "group" not in data:
        raise FormatError("action file needs a 'group' spec")
    group = parse_group_spec(typed(data["group"], str, "'group'"), root)
    form = next((key for key in ("elements", "generators") if key in data), None)
    if form is None:
        raise FormatError("action file needs 'generators' or 'elements'")
    entries = typed_list(data, form, dict)
    sizes = _part_sizes(graph)
    for i, entry in enumerate(entries):
        for key in map(_perm_key, sizes):
            if key not in entry:
                raise FormatError(f"{form[:-1]} {i} has no {key!r}")
            typed_list(entry, key, int, f"{form[:-1]} {i}: ")
    if form == "generators":
        return GroupAction.from_generators(group, graph, entries)
    if len(entries) != group.order:
        raise FormatError(f"'elements' must list all {group.order} permutations")
    return GroupAction(group, graph, {
        part: [_permutation(entry[_perm_key(part)], size, f"element {g}: {part}")
               for g, entry in enumerate(entries)]
        for part, size in sizes.items()
    })


def emit_action(action: GroupAction) -> str:
    import json

    gens = generator_indices(action.group)
    payload = {
        "group": action.group.spec,
        "generators": [
            {
                _perm_key(part): list(action.perms[part][g])
                for part in _part_sizes(action.graph)
            }
            for g in gens
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_covering(text: str, cover) -> dict:
    """JSON covering file: one list of base-vertex indices per vertex part of `cover`."""
    data = load_object(text, "a covering file")
    maps = {}
    for part in _part_sizes(cover):
        key = f"{part}_map"
        if key not in data:
            raise FormatError(f"covering file needs {key!r}")
        maps[part] = typed_list(data, key, int)
    return maps
