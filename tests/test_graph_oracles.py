"""Differential tests for the graph and action algorithms.

Direct edge-scanning loops are kept below as oracles for `tanner` and
`products.balanced_product`: action validation over every element pair,
freeness, the fixed-edge test, orbits, quotients, covering checks,
product orbits and the balanced product's matrices.  The covering check
is also compared under maps with images moved, swapped and shuffled.
Seeded random Tanner and plain graphs (parallel edges, loops on plain
graphs) carry free and non-free actions of Z_l, Z_a x Z_b and S3; every
result must be equal, witnesses and message text included, and a refused
action must be refused with the same exception and message.
"""

import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qpc.errors import DimensionError, PreconditionError
from qpc.groups import FiniteGroup
from qpc.products import _pair_class, balanced_product
from qpc.tanner import (
    GroupAction,
    PlainGraph,
    TannerGraph,
    has_fixed_edge,
    is_free,
    part_orbits,
    quotient,
    verify_covering,
)

from oracles import from_dense, from_masks, lift_with_regular_actions

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# -- oracles: the edge-scanning loops ------------------------------------------


def _parts(graph):
    return ("check", "bit") if isinstance(graph, TannerGraph) else ("vertex",)


def _sizes(graph):
    if isinstance(graph, TannerGraph):
        return {"check": graph.check_count, "bit": graph.bit_count}
    return {"vertex": graph.vertex_count}


def oracle_mapped_edges(graph, perms, g):
    out = Counter()
    if isinstance(graph, TannerGraph):
        cp = perms["check"][g]
        bp = perms["bit"][g]
        for (c, b), m in graph.edges.items():
            out[(int(cp[c]), int(bp[b]))] += m
    else:
        vp = perms["vertex"][g]
        for (u, v), m in graph.edges.items():
            a, b = int(vp[u]), int(vp[v])
            out[(min(a, b), max(a, b))] += m
    return out


def oracle_validate(group, graph, perms):
    perms = {part: np.asarray(p, dtype=np.int64) for part, p in perms.items()}
    parts = _parts(graph)
    sizes = _sizes(graph)
    if set(perms) != set(parts):
        raise PreconditionError(
            f"action parts {sorted(perms)} do not match graph parts {sorted(parts)}"
        )
    order = group.order
    for part in parts:
        arr = perms[part]
        if arr.shape != (order, sizes[part]):
            raise DimensionError(
                f"{part} permutation table has shape {arr.shape},"
                f" expected {(order, sizes[part])}"
            )
        idx = np.arange(sizes[part])
        if not np.array_equal(arr[0], idx):
            raise PreconditionError(f"identity element must act trivially on {part}s")
        for g in range(order):
            if not np.array_equal(np.sort(arr[g]), idx):
                raise PreconditionError(f"element {g} is not a permutation of {part}s")
        for g in range(order):
            for h in range(order):
                gh = group.multiply(g, h)
                if not np.array_equal(arr[gh], arr[g][arr[h]]):
                    raise PreconditionError(
                        f"homomorphism fails on {part}s at ({g}, {h})"
                    )
    for g in range(1, order):
        if oracle_mapped_edges(graph, perms, g) != graph.edges:
            raise PreconditionError(f"element {g} does not preserve the edge multiset")


def oracle_is_free(action):
    for g in range(1, action.group.order):
        for part in _parts(action.graph):
            arr = np.array(action.perms[part][g])
            fixed = np.nonzero(arr == np.arange(arr.size))[0]
            if fixed.size:
                return False, (g, (part, int(fixed[0])))
    return True, None


def oracle_has_fixed_edge(action):
    graph = action.graph
    for g in range(1, action.group.order):
        if isinstance(graph, TannerGraph):
            cp = action.perms["check"][g]
            bp = action.perms["bit"][g]
            for (c, b) in graph.edges:
                if cp[c] == c and bp[b] == b:
                    return True, (g, (c, b))
        else:
            vp = action.perms["vertex"][g]
            for (u, v) in graph.edges:
                if vp[u] == v or vp[v] == u:
                    return True, (g, (u, v))
    return False, None


def oracle_part_orbits(action, part):
    arr = np.array(action.perms[part])
    size = arr.shape[1]
    order = action.group.order
    seen = np.zeros(size, dtype=bool)
    orbits = []
    for v in range(size):
        if seen[v]:
            continue
        members = []
        row = {}
        for g in range(order):
            w = int(arr[g, v])
            if not seen[w]:
                seen[w] = True
                members.append(w)
            if w not in row:
                row[w] = g
        orbits.append((v, sorted(members), row))
    return orbits


def oracle_quotient(graph, action):
    parts = _parts(graph)
    class_lists, basepoints, row_of, class_index, per_part_count = [], [], {}, {}, {}
    for part in parts:
        orbits = oracle_part_orbits(action, part)
        per_part_count[part] = len(orbits)
        for local_ci, (base, members, row) in enumerate(orbits):
            class_lists.append(tuple((part, w) for w in members))
            basepoints.append((part, base))
            for w in members:
                row_of[(part, w)] = row[w]
                class_index[(part, w)] = local_ci
    layout = (tuple(class_lists), tuple(basepoints), row_of)
    order = action.group.order
    seen_edges = set()
    quotient_edges = Counter()
    if isinstance(graph, TannerGraph):
        cp = np.array(action.perms["check"])
        bp = np.array(action.perms["bit"])
        for (c, b), mult in sorted(graph.edges.items()):
            if (c, b) in seen_edges:
                continue
            seen_edges |= {(int(cp[g, c]), int(bp[g, b])) for g in range(order)}
            quotient_edges[(class_index[("check", c)], class_index[("bit", b)])] += mult
        result = TannerGraph(per_part_count["check"], per_part_count["bit"], quotient_edges)
    else:
        vp = np.array(action.perms["vertex"])
        for (u, v), mult in sorted(graph.edges.items()):
            if (u, v) in seen_edges:
                continue
            orbit = set()
            for g in range(order):
                a, b = int(vp[g, u]), int(vp[g, v])
                orbit.add((min(a, b), max(a, b)))
            seen_edges |= orbit
            cu = class_index[("vertex", u)]
            cv = class_index[("vertex", v)]
            quotient_edges[(min(cu, cv), max(cu, cv))] += mult
        result = PlainGraph(per_part_count["vertex"], quotient_edges)
    return result, layout


def _check_neighbourhood(graph, c):
    return Counter({b: m for (cc, b), m in graph.edges.items() if cc == c})


def _bit_neighbourhood(graph, b):
    return Counter({c: m for (c, bb), m in graph.edges.items() if bb == b})


def _neighbourhood(graph, v):
    out = Counter()
    for (u, w), m in graph.edges.items():
        if u == v:
            out[w] += m
        elif w == v:
            out[u] += m
    return out


def oracle_verify_covering(cover, base, maps):
    """Returns (valid, violations, lift_size)."""
    violations = []
    parts = _parts(cover)
    base_sizes = _sizes(base)

    def check_vertex(part, v, cover_nbhd, base_nbhd, other_part):
        mapped = Counter()
        other = np.asarray(maps[other_part], dtype=np.int64)
        for u, mult in cover_nbhd.items():
            mapped[int(other[u])] += mult
        if mapped != base_nbhd:
            violations.append(
                f"{part} {v}: incident edges map to {dict(mapped)},"
                f" base vertex {int(np.asarray(maps[part])[v])} has {dict(base_nbhd)}"
            )

    if isinstance(cover, TannerGraph):
        for c in range(cover.check_count):
            base_c = int(np.asarray(maps["check"])[c])
            check_vertex("check", c, _check_neighbourhood(cover, c),
                         _check_neighbourhood(base, base_c), "bit")
        for b in range(cover.bit_count):
            base_b = int(np.asarray(maps["bit"])[b])
            check_vertex("bit", b, _bit_neighbourhood(cover, b),
                         _bit_neighbourhood(base, base_b), "check")
    else:
        arr = np.asarray(maps["vertex"], dtype=np.int64)
        for v in range(cover.vertex_count):
            mapped = Counter()
            for u, mult in _neighbourhood(cover, v).items():
                mapped[int(arr[u])] += mult
            base_nbhd = _neighbourhood(base, int(arr[v]))
            if mapped != base_nbhd:
                violations.append(
                    f"vertex {v}: incident edges map to {dict(mapped)},"
                    f" base vertex {int(arr[v])} has {dict(base_nbhd)}"
                )
    sizes = set()
    for part in parts:
        arr = np.asarray(maps[part], dtype=np.int64)
        counts = np.bincount(arr, minlength=base_sizes[part]) if arr.size else np.array([])
        sizes.update(int(c) for c in counts)
    lift = sizes.pop() if len(sizes) == 1 else None
    return not violations, violations, lift


def oracle_product_orbits(act_a, part_a, act_b, part_b):
    group = act_a.group
    order = group.order
    pa = np.array(act_a.perms[part_a])
    pb = np.array(act_b.perms[part_b])
    size_b = pb.shape[1]
    inv = [int(group.inv[h]) for h in range(order)]
    seen = np.zeros(pa.shape[1] * size_b, dtype=bool)
    orbits = []
    index = {}
    for u in range(pa.shape[1]):
        for v in range(size_b):
            if seen[u * size_b + v]:
                continue
            members = []
            for h in range(order):
                w = (int(pa[inv[h], u]), int(pb[inv[h], v]))
                wkey = w[0] * size_b + w[1]
                if not seen[wkey]:
                    seen[wkey] = True
                    members.append(w)
            for w in members:
                index[w] = len(orbits)
            orbits.append(((u, v), members))
    return orbits, index


def oracle_balanced_product(a, b, act_a, act_b):
    """(h_x, h_z, provenance entries, coordinates) of the old orbit scan and fill."""
    orbits, index = {}, {}
    for name, (part_a, part_b) in {"q1": ("bit", "bit"), "q2": ("check", "check"),
                                   "x": ("check", "bit"), "z": ("bit", "check")}.items():
        orbits[name], index[name] = oracle_product_orbits(act_a, part_a, act_b, part_b)

    def class_maps(orbit_list):
        cls, row = {}, {}
        for ci, (_, members, rows) in enumerate(orbit_list):
            for w in members:
                cls[w] = ci
                row[w] = rows[w]
        return cls, row

    a_check_cls, _ = class_maps(oracle_part_orbits(act_a, "check"))
    a_bit_cls, _ = class_maps(oracle_part_orbits(act_a, "bit"))
    b_check_cls, b_check_row = class_maps(oracle_part_orbits(act_b, "check"))
    b_bit_cls, b_bit_row = class_maps(oracle_part_orbits(act_b, "bit"))
    m1, n2 = len(set(a_check_cls.values())), len(set(b_bit_cls.values()))
    n_q1, n_q2 = len(orbits["q1"]), len(orbits["q2"])
    reduced = 0

    def fill(check_name):
        nonlocal reduced
        rows = len(orbits[check_name])
        counts_q1 = np.zeros((rows, n_q1), dtype=np.int64)
        counts_q2 = np.zeros((rows, n_q2), dtype=np.int64)
        for row_idx, ((u, v), _members) in enumerate(orbits[check_name]):
            if check_name == "x":
                for (c, a2), mult in a.edges.items():
                    if c == u:
                        counts_q1[row_idx, index["q1"][(a2, v)]] += mult
                for (g, b2), mult in b.edges.items():
                    if b2 == v:
                        counts_q2[row_idx, index["q2"][(u, g)]] += mult
            else:
                for (g, b2), mult in b.edges.items():
                    if g == v:
                        counts_q1[row_idx, index["q1"][(u, b2)]] += mult
                for (c, a2), mult in a.edges.items():
                    if a2 == u:
                        counts_q2[row_idx, index["q2"][(c, v)]] += mult
        reduced += int((counts_q1 > 1).sum() + (counts_q2 > 1).sum())
        return np.concatenate([counts_q1 % 2, counts_q2 % 2], axis=1).astype(np.uint8)

    h_x = from_dense(fill("x"))
    h_z = from_dense(fill("z"))

    def coords(name, a_cls, a_offset, b_cls, b_row, b_offset):
        return tuple((a_cls[u] + a_offset, b_cls[v] + b_offset, b_row[v])
                     for (u, v), _ in orbits[name])

    layout = (
        coords("x", a_check_cls, 0, b_bit_cls, b_bit_row, 0),
        coords("z", a_bit_cls, m1, b_check_cls, b_check_row, n2),
        coords("q1", a_bit_cls, m1, b_bit_cls, b_bit_row, 0),
        coords("q2", a_check_cls, 0, b_check_cls, b_check_row, n2),
    )
    total = sum(len(o) for o in orbits.values())
    return h_x, h_z, reduced, total, layout


# -- random graphs with actions -------------------------------------------------


def s3():
    return FiniteGroup.from_table_text((FIXTURES / "s3.table").read_text(), spec="S3")


def random_group(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return FiniteGroup.cyclic(rng.randint(1, 6))
    if kind == 1:
        return FiniteGroup.direct_product(rng.randint(1, 3), rng.randint(2, 3))
    return s3()


def lift(rng, group, parts, loops, free=True):
    """Voltage lift of a random base multigraph, with the deck action of the group.

    `parts` gives the base part sizes: (m, n) for a Tanner graph, (v,) for
    a plain one.  Returns the lift, its action table and the base graph.
    With free=False the lift also gets vertices fixed by every element,
    joined to each other and to whole orbits: the action stays valid but
    is not free.
    """
    l, mul = group.order, np.array(group.mul)
    tanner = len(parts) == 2
    fixed = [0] * len(parts) if free else [rng.randint(1, 2) for _ in parts]
    first, last = parts[0], parts[-1]  # base part sizes of the two edge ends
    base_edges, edges = Counter(), Counter()
    for _ in range(rng.randint(0, 3 * max(parts) + 2)):
        u, v = rng.randrange(first), rng.randrange(last)
        if u == v and not (tanner or loops):
            continue
        h, mult = rng.randrange(l), rng.choice([1, 1, 1, 2, 3])
        base_edges[(u, v)] += mult
        for g in range(l):
            edges[(u * l + g, v * l + int(mul[g, h]))] += mult
    for _ in range(0 if free else rng.randint(0, 4)):
        u = first * l + rng.randrange(fixed[0])
        if rng.random() < 0.5:
            edges[(u, last * l + rng.randrange(fixed[-1]))] += rng.choice([1, 2])
        else:
            v = rng.randrange(last)
            for g in range(l):
                edges[(u, v * l + g)] += 1
    perms = {}
    for name, p, f in zip(("check", "bit") if tanner else ("vertex",), parts, fixed):
        deck = (np.arange(p)[None, :, None] * l + mul[:, None, :]).reshape(l, p * l)
        perms[name] = np.concatenate([deck, np.tile(np.arange(p * l, p * l + f), (l, 1))], axis=1)
    sizes = [p * l + f for p, f in zip(parts, fixed)]
    if tanner:
        return TannerGraph(*sizes, edges), perms, TannerGraph(*parts, base_edges)
    return PlainGraph(*sizes, edges), perms, PlainGraph(*parts, base_edges)


def random_instance(rng, free=None, tanner=None):
    group = random_group(rng)
    tanner = rng.random() < 0.5 if tanner is None else tanner
    free = rng.random() < 0.6 if free is None else free
    parts = (rng.randint(1, 3), rng.randint(1, 4)) if tanner else (rng.randint(1, 4),)
    graph, perms, _ = lift(rng, group, parts, loops=True, free=free)
    return group, graph, perms


def through_quotient(rng):
    """Z_l acting on a Z_d lift through k -> k mod d: not free when d < l."""
    d = rng.choice([1, 2, 3])
    l = d * rng.choice([2, 3])
    graph, perms, _ = lift(rng, FiniteGroup.cyclic(d), (rng.randint(1, 3), rng.randint(1, 3)),
                           loops=True)
    return FiniteGroup.cyclic(l), graph, {p: arr[np.arange(l) % d] for p, arr in perms.items()}


def corrupt(rng, group, graph, perms):
    perms = {p: arr.copy() for p, arr in perms.items()}
    part = rng.choice(sorted(perms))
    arr = perms[part]
    order, size = arr.shape
    kind = rng.randrange(5)
    if kind == 0 and order > 1 and size > 1:
        # duplicate an image: not a permutation
        g = rng.randrange(1, order)
        i, j = rng.sample(range(size), 2)
        arr[g, i] = arr[g, j]
    elif kind == 1 and order > 1 and size > 1:
        # swap two images: a permutation, usually not a homomorphism
        g = rng.randrange(1, order)
        i, j = rng.sample(range(size), 2)
        arr[g, [i, j]] = arr[g, [j, i]]
    elif kind == 2 and size > 1:
        # relabel one part: still a homomorphism, usually not edge-preserving
        sigma = np.array(rng.sample(range(size), size))
        inverse = np.argsort(sigma)
        perms[part] = sigma[arr[:, inverse]]
    elif kind == 3 and size > 1:
        i, j = rng.sample(range(size), 2)
        arr[0, [i, j]] = arr[0, [j, i]]
    else:
        perms[part] = arr[:, : size - 1] if size else arr[:-1]
    return perms


def outcome(fn, *args):
    try:
        fn(*args)
    except (PreconditionError, DimensionError) as exc:
        return type(exc), str(exc)
    return None


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_valid_actions_match_oracles(seed):
    rng = random.Random(7100 + seed)
    for _ in range(40):
        group, graph, perms = (through_quotient(rng) if rng.random() < 0.2
                               else random_instance(rng))
        assert outcome(oracle_validate, group, graph, perms) is None
        action = GroupAction(group, graph, perms)
        assert is_free(action) == oracle_is_free(action)
        assert has_fixed_edge(action) == oracle_has_fixed_edge(action)
        for part in _parts(action.graph):
            bases, cls, row = part_orbits(action, part)
            want = oracle_part_orbits(action, part)
            assert bases == [v for v, _, _ in want]
            for ci, (_, members, rows) in enumerate(want):
                assert np.flatnonzero(np.array(cls) == ci).tolist() == members
                assert all(int(row[w]) == rows[w] for w in members)
        got, orbits = quotient(graph, action)
        want, (classes, basepoints, row_of) = oracle_quotient(graph, action)
        assert got == want and list(got.edges.items()) == list(want.edges.items())
        assert list(orbits) == list(_parts(graph))
        assert [(part, v) for part, (bases, _, _) in orbits.items()
                for v in bases] == list(basepoints)
        assert [tuple((part, w) for w in np.flatnonzero(np.array(cls) == c).tolist())
                for part, (bases, cls, _) in orbits.items() for c in range(len(bases))] == list(classes)
        assert {(part, w): r for part, (_, _, row) in orbits.items()
                for w, r in enumerate(row)} == row_of


def test_non_free_instances_are_generated():
    rng = random.Random(7199)
    kinds = Counter()
    for _ in range(60):
        group, graph, perms = random_instance(rng, free=False)
        action = GroupAction(group, graph, perms)
        kinds[(is_free(action)[0], has_fixed_edge(action)[0])] += 1
    assert kinds[(False, True)] and kinds[(False, False)]


@pytest.mark.parametrize("seed", range(4))
def test_free_tanner_action_pins_no_edge(seed):
    # The action keeps the parts, so an element fixing an edge setwise fixes
    # both its ends: `balanced_product` refuses a non-free action and needs
    # no pinned-edge check.
    rng = random.Random(7150 + seed)
    kinds = Counter()
    for _ in range(50):
        group, graph, perms = random_instance(rng, tanner=True)
        action = GroupAction(group, graph, perms)
        kinds[(is_free(action)[0], has_fixed_edge(action)[0])] += 1
    assert not kinds[(True, True)]
    assert kinds[(True, False)] and kinds[(False, True)], kinds


@pytest.mark.parametrize("seed", range(6))
def test_corrupted_actions_refused_alike(seed):
    # The generating set is greedy (each generator is the lowest element not
    # yet generated), so the lowest failing element of the full scan is
    # always a generator: the witnesses agree exactly.
    rng = random.Random(7200 + seed)
    refused = Counter()
    for _ in range(60):
        group, graph, perms = random_instance(rng)
        bad = corrupt(rng, group, graph, perms)
        if rng.random() < 0.5 and bad[next(iter(bad))].shape[0] > 2:
            # a second fault on a later element
            arr = bad[next(iter(bad))]
            if arr.shape[1] > 1:
                g, (i, j) = rng.randrange(2, arr.shape[0]), rng.sample(range(arr.shape[1]), 2)
                arr[g, [i, j]] = arr[g, [j, i]]
        want = outcome(oracle_validate, group, graph, bad)
        assert outcome(GroupAction, group, graph, bad) == want
        refused[want[1].split(" ")[0] if want else None] += 1
    assert {"homomorphism", "element", "identity"} <= set(refused)


def test_homomorphism_checked_on_every_generator():
    # Z2 x Z3 acting by powers of the Z3 deck action: every y relation holds,
    # and so does edge invariance, but x acts with order 3.
    lifted, perms, _ = lift(random.Random(7250), FiniteGroup.cyclic(3), (2, 3), loops=False)
    group = FiniteGroup.direct_product(2, 3)
    power = [(i + j) % 3 for i in range(2) for j in range(3)]
    bad = {part: arr[power] for part, arr in perms.items()}
    want = outcome(oracle_validate, group, lifted, bad)
    assert want == (PreconditionError, "homomorphism fails on checks at (3, 3)")
    assert outcome(GroupAction, group, lifted, bad) == want


@pytest.mark.parametrize("seed", range(4))
def test_coverings_match_oracle(seed):
    rng = random.Random(7300 + seed)
    valid = 0
    for _ in range(40):
        group = random_group(rng)
        parts = (rng.randint(1, 3), rng.randint(1, 4)) if rng.random() < 0.5 \
            else (rng.randint(1, 4),)
        cover, _, base = lift(rng, group, parts, loops=rng.random() < 0.5)
        names = ("check", "bit") if len(parts) == 2 else ("vertex",)
        maps = {name: np.arange(p * group.order) // group.order for name, p in zip(names, parts)}
        for trial in range(4):
            if trial:
                k = rng.randrange(len(names))
                maps[names[k]][rng.randrange(maps[names[k]].size)] = rng.randrange(parts[k])
            lists = {k: v.tolist() for k, v in maps.items()}
            report = verify_covering(cover, base, lists)
            want = oracle_verify_covering(cover, base, lists)
            assert (report.valid, report.violations, report.lift_size) == want
            valid += report.valid
    assert valid


def corrupt_map(rng, maps, parts):
    """Move one image, swap two (the fibres keep their sizes) or shuffle a part."""
    maps = {name: list(images) for name, images in maps.items()}
    k = rng.randrange(len(parts))
    images = maps[list(maps)[k]]
    kind = rng.randrange(3)
    if kind == 0:
        images[rng.randrange(len(images))] = rng.randrange(parts[k])
    elif kind == 1 and len(images) > 1:
        i, j = rng.sample(range(len(images)), 2)
        images[i], images[j] = images[j], images[i]
    else:
        rng.shuffle(images)
    return maps


@pytest.mark.parametrize("seed", range(4))
def test_multigraph_coverings_under_corrupted_maps_match_oracle(seed):
    # plain lifts always may carry loops; maps are corrupted cumulatively
    rng = random.Random(7400 + seed)
    seen = Counter()
    for _ in range(30):
        group = random_group(rng)
        parts = (rng.randint(1, 3), rng.randint(1, 4)) if rng.random() < 0.3 \
            else (rng.randint(1, 4),)
        cover, _, base = lift(rng, group, parts, loops=True)
        names = ("check", "bit") if len(parts) == 2 else ("vertex",)
        maps = {name: [v // group.order for v in range(p * group.order)]
                for name, p in zip(names, parts)}
        for _ in range(4):
            report = verify_covering(cover, base, maps)
            want = oracle_verify_covering(cover, base, maps)
            assert (report.valid, report.violations, report.lift_size) == want
            plain = len(parts) == 1
            seen["plain loop"] += plain and any(u == v for u, v in cover.edges)
            seen["plain parallel"] += plain and any(m > 1 for m in cover.edges.values())
            seen["refused, fibres equal"] += not report.valid and report.lift_size is not None
            seen["refused"] += not report.valid
            maps = corrupt_map(rng, maps, parts)
    assert min(seen.values()) > 0, seen


def test_covering_violation_counts_loops_once():
    base = PlainGraph(2, [(0, 0), (0, 1), (0, 1)])
    cover = PlainGraph(4, [(0, 0), (0, 1), (0, 3), (2, 2), (2, 3), (1, 2)])
    maps = {"vertex": [0, 1, 0, 0]}
    report = verify_covering(cover, base, maps)
    assert report.violations == oracle_verify_covering(cover, base, maps)[1]
    assert report.violations[0] == (
        "vertex 0: incident edges map to {0: 2, 1: 1}, base vertex 0 has {0: 1, 1: 2}"
    )


def ring_matrix(rng, group, rows, cols):
    """Entries with up to two terms, so lifts get degree-2 vertices and empty blocks."""
    masks = [[(1 << rng.randrange(group.order)) | (1 << rng.randrange(group.order))
              if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)]
    return from_masks(group, masks)


@pytest.mark.parametrize("seed", range(4))
def test_balanced_product_matches_oracle(seed):
    rng = random.Random(7400 + seed)
    for _ in range(12):
        if rng.random() < 0.4:
            group = FiniteGroup.cyclic(rng.randint(2, 5)) if rng.random() < 0.7 \
                else FiniteGroup.direct_product(2, 2)
            a, b, act_a, act_b = lift_with_regular_actions(
                ring_matrix(rng, group, rng.randint(1, 2), rng.randint(1, 3)),
                ring_matrix(rng, group, rng.randint(1, 2), rng.randint(1, 3)))
        else:
            group = random_group(rng)
            a, perms_a, _ = lift(rng, group, (rng.randint(1, 2), rng.randint(1, 3)), loops=False)
            b, perms_b, _ = lift(rng, group, (rng.randint(1, 2), rng.randint(1, 3)),
                                 loops=False, free=rng.random() < 0.5)
            act_a, act_b = GroupAction(group, a, perms_a), GroupAction(group, b, perms_b)
        for part_a, part_b in (("bit", "bit"), ("check", "check"), ("check", "bit"),
                               ("bit", "check")):
            orbits_a = part_orbits(act_a, part_a)
            size_b = len(act_b.perms[part_b][0])
            orbits, want_index = oracle_product_orbits(act_a, part_a, act_b, part_b)
            # representative (basepoint k, w) has class k |B part| + w
            assert [(u, w) for u in orbits_a[0] for w in range(size_b)] \
                == [rep for rep, _ in orbits]
            assert {w: _pair_class(orbits_a, act_b.perms[part_b], group.inv, *w)
                    for w in want_index} == want_index
        code = balanced_product(a, b, act_a, act_b)
        h_x, h_z, reduced, total, coords = oracle_balanced_product(a, b, act_a, act_b)
        assert code.h_x == h_x and code.h_z == h_z
        assert code.provenance["mod2_reduced_entries"] == reduced
        assert code.m_x + code.m_z + code.n == total
        table = code.layout
        assert (table.x_checks, table.z_checks, table.qubits_q1, table.qubits_q2) == coords


def test_balanced_product_reductions_are_exercised():
    rng = random.Random(7499)
    seen = 0
    for _ in range(30):
        group = FiniteGroup.cyclic(rng.randint(2, 4))
        a, perms_a, _ = lift(rng, group, (2, 3), loops=False)
        b, perms_b, _ = lift(rng, group, (2, 3), loops=False)
        code = balanced_product(a, b, GroupAction(group, a, perms_a),
                                GroupAction(group, b, perms_b))
        seen += code.provenance["mod2_reduced_entries"] > 0
    assert seen
