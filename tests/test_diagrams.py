"""Unit tests for colored unitrivalent diagrams and signed canonicalization.

Core claims:
    - build() validates half-edge bookkeeping and rejects malformed input
    - canonical keys are invariant under vertex/edge relabeling
    - key_tree, walking a tree body's half-edge arrays, gives the body and
      sign canonicalize gives the same tree built as a Diagram, on every tree
      from leaf insertion on 2..7 legs
    - the canonical sign flips under a single rotation transposition, and is
      always +1 or -1: it changes by (-1)^r under r rotation reversals
    - canonicalize rejects a cycle or a repeated leg color within a component,
      and inject maps such boring input to 0 before keying
    - boring detection sees repeated leg colors and positive first Betti number
    - degree is additive under disjoint union
    - the forest labeling agrees with a refinement search (individualization
      and refinement, kept here as the oracle) on random forests, plain and
      bounded; the oracle gives sign 0 to a diagram with an order-reversing
      automorphism.  A bounded diagram as an object, its graph beside its
      segment orders, with its surgeries and the key of its whole
      slot-colored graph, is kept here as the oracle of bounded keys
    - an oversized forest raises DiagramError from canonicalize and chi,
      and so do slot colors that no byte holds, before they are made
"""

import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from linkhom.bases import _raw_trees
from linkhom.diagrams import (
    Diagram,
    SignedCanonicalKey,
    build,
    canonical_diagram,
    canonicalize,
    empty,
    inject,
    is_boring,
    key_tree,
    segment,
    split_trees,
    tripod,
)
from linkhom.errors import DiagramError
from linkhom.spaces import chi, dim_space


# -- Helpers -----------------------------------------------------------------

def mate(h: int) -> int:
    """The other half of h's edge."""
    return h ^ 1


def first_betti(D: Diagram, component) -> int:
    """Rank of the first homology of one component, E - V + 1."""
    comp = tuple(sorted(component))
    if comp not in D.components():
        raise DiagramError("not a component of this diagram")
    cset = set(comp)
    e = sum(1 for i in range(D.n_edges) if D.edge_ends(i)[0] in cset)
    return e - len(comp) + 1


def caterpillar(colors, k) -> Diagram:
    """A spine of internal vertices with the given leaf colors hung in order."""
    m = len(colors)
    if m < 2:
        raise DiagramError("a tree needs at least two leaves")
    if m == 2:
        return segment(colors[0], colors[1], k)
    verts = list(colors) + [None] * (m - 2)
    spine = list(range(m, 2 * m - 2))
    edges = [(spine[0], 0), (spine[0], 1)]
    for i, t in enumerate(spine[1:], start=1):
        edges.append((spine[i - 1], t))
        edges.append((t, i + 1))
    edges.append((spine[-1], m - 1))
    return build(k, verts, edges)


def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    """a beside b, b's vertices and half-edges numbered after a's: the forest
    product that the key path (join_trees of tree bodies) is checked against."""
    if a.k != b.k:
        raise DiagramError("disjoint union needs equal k")
    shift = 2 * a.n_edges
    inc = a.incidence + tuple(tuple(h + shift for h in t) for t in b.incidence)
    return Diagram(a.k, a.colors + b.colors, inc)


def graft_with_map(E: Diagram, u: int, w: int):
    """Graft two same-colored legs at a new internal vertex with a fresh leg:
    the graft that the tree-body surgery (relators._graft) is checked against.

    Legs u and w are deleted, their stems meet a new trivalent vertex whose
    rotation is (stem of u, stem of w, new leg), and the third edge ends in a
    new leg of the same color.  Degree is preserved, and swapping u and w
    negates the class.  Returns the new diagram, the old-to-new vertex map for
    the surviving vertices, and the new leaf's id.
    """
    if u == w or E.colors[u] is None or E.colors[w] is None:
        raise DiagramError("graft needs two distinct legs")
    color = E.colors[u]
    if color != E.colors[w]:
        raise DiagramError("graft needs legs of one color")
    idmap = {}
    colors, incidence = [], []
    for v in range(E.n):
        if v in (u, w):
            continue
        idmap[v] = len(colors)
        colors.append(E.colors[v])
        incidence.append(E.incidence[v])
    stem_u, stem_w = E.incidence[u][0], E.incidence[w][0]
    fresh = 2 * E.n_edges
    leaf = len(colors) + 1
    colors += [None, color]
    incidence += [(stem_u, stem_w, fresh), (fresh + 1,)]
    return Diagram(E.k, tuple(colors), tuple(incidence)), idmap, leaf


def _tadpole(k=2):
    """One leg, one trivalent vertex, one self-loop."""
    return build(k, [1, None], [(0, 1), (1, 1)], {1: (0, 1, 1)})


def _h_tree(a, b, c, d, k):
    """Four-leaf tree with legs a,b grouped against c,d across one edge."""
    return build(
        k,
        [a, b, c, d, None, None],
        [(0, 4), (1, 4), (4, 5), (2, 5), (3, 5)],
        {4: (0, 1, 2), 5: (2, 3, 4)},
    )


def _relabel(D, rng, flip=False, perm=None):
    """Rebuild D under a random vertex permutation (or the given one), edge
    shuffle and edge reversal; with flip, each rotation is also reversed with
    probability 1/2.  Returns the new diagram and the number of reversed
    rotations."""
    if perm is None:
        perm = list(range(D.n))
        rng.shuffle(perm)
    edges = [(perm[D.vertex_of(2 * e)], perm[D.vertex_of(2 * e + 1)])
             for e in range(D.n_edges)]
    eperm = list(range(D.n_edges))
    rng.shuffle(eperm)
    new_edges = [edges[e][::rng.choice((1, -1))] for e in eperm]
    inv = {old: new for new, old in enumerate(eperm)}
    vertices = [None] * D.n
    for v in range(D.n):
        vertices[perm[v]] = D.colors[v]
    rotations, flips = {}, 0
    for v in range(D.n):
        if D.colors[v] is None:
            rot = tuple(inv[h // 2] for h in D.incidence[v])
            if flip and rng.random() < 0.5:
                rot, flips = rot[::-1], flips + 1
            rotations[perm[v]] = rot
    return build(D.k, vertices, new_edges, rotations), flips


def _random_forest(rng, k, pool):
    """Disjoint union of one to three trees from pool, repeats allowed."""
    F = empty(k)
    for _ in range(rng.randint(1, 3)):
        F = disjoint_union(F, rng.choice(pool))
    return F


def _tree_pool(rng, k, max_leaves, distinct=True):
    """A few random trees on random leaf colors from bases._raw_trees."""
    pool = []
    for _ in range(3):
        if distinct:
            colors = rng.sample(range(1, k + 1), rng.randint(2, min(k, max_leaves)))
        else:
            colors = [rng.randint(1, k) for _ in range(rng.randint(2, max_leaves))]
        verts, edges = rng.choice(_raw_trees(colors))
        pool.append(build(k, verts, edges))
    return pool


def _search_bounded(B):
    """The refinement search's key of a bounded diagram, as the oracle."""
    colors, kk = slot_colors(B)
    return _search_key(Diagram(kk, tuple(colors), B.graph.incidence))


def _random_order(rng, D):
    """A random top-to-bottom order of each segment's legs."""
    order = []
    for s in range(1, D.k + 1):
        seg = [v for v, c in D.legs() if c == s]
        rng.shuffle(seg)
        order.append(tuple(seg))
    return tuple(order)


# -- Bounded diagrams as objects, the oracle of bounded keys -------------------
#
# The library keeps a bounded diagram as its key and moves slot colors on the
# key's tree bodies.  The oracle keeps the graph, its legs colored by segment,
# beside each segment's legs top to bottom, validates both, and does every
# surgery on the graph.

@dataclass(frozen=True)
class BoundedDiagram:
    k: int
    graph: Diagram      # legs colored by segment number
    order: tuple        # order[s-1] = leg vertex ids on segment s, top to bottom

    def __post_init__(self):
        if self.graph.k != self.k or len(self.order) != self.k:
            raise DiagramError("segment count mismatch")
        placed = [v for seg in self.order for v in seg]
        expected = sorted(v for v, _ in self.graph.legs())
        if sorted(placed) != expected:
            raise DiagramError("every leg must be placed exactly once")
        for s, seg in enumerate(self.order, start=1):
            for v in seg:
                if self.graph.colors[v] != s:
                    raise DiagramError(f"leg {v} is placed on segment {s}, not its own")


def slot_colors(B: BoundedDiagram):
    """Leg colors recolored by (segment, position) slot, and their bound."""
    total = sum(len(seg) for seg in B.order)
    colors = list(B.graph.colors)
    for s, seg in enumerate(B.order, start=1):
        for p, v in enumerate(seg):
            colors[v] = p * B.k + s
    return colors, B.k * (total + 1)


def bounded_key(D: Diagram, order) -> SignedCanonicalKey:
    """The key of the forest D with order[s-1] its legs on segment s, top to
    bottom: the forest labeling of the whole slot-colored graph."""
    colors, kk = slot_colors(BoundedDiagram(D.k, D, tuple(order)))
    sk = canonicalize(Diagram(kk, tuple(colors), D.incidence))
    return SignedCanonicalKey(bytes([0x42, D.k]) + sk.key, sk.sign)


def bounded_from_key(key: bytes) -> BoundedDiagram:
    """The representative of a bounded key, validated."""
    k = key[1]
    inner = canonical_diagram(key[2:])
    colors, slots = [], {}
    for v, c in enumerate(inner.colors):
        if c is None:
            colors.append(None)
        else:
            s, p = (c - 1) % k + 1, (c - 1) // k
            colors.append(s)
            slots[(s, p)] = v
    order = []
    for s in range(1, k + 1):
        seg, p = [], 0
        while (s, p) in slots:
            seg.append(slots[(s, p)])
            p += 1
        order.append(tuple(seg))
    return BoundedDiagram(k, Diagram(k, tuple(colors), inner.incidence), tuple(order))


def _replace_segment(B: BoundedDiagram, s: int, seg) -> BoundedDiagram:
    order = list(B.order)
    order[s - 1] = tuple(seg)
    return BoundedDiagram(B.k, B.graph, tuple(order))


def swap_adjacent_legs(B: BoundedDiagram, s: int, p: int) -> BoundedDiagram:
    seg = list(B.order[s - 1])
    seg[p], seg[p + 1] = seg[p + 1], seg[p]
    return _replace_segment(B, s, seg)


def cycle_segment(B: BoundedDiagram, s: int) -> BoundedDiagram:
    seg = B.order[s - 1]
    if not seg:
        raise DiagramError(f"segment {s} has no legs")
    return _replace_segment(B, s, seg[1:] + seg[:1])


def graft_adjacent_legs(B: BoundedDiagram, s: int, p: int) -> BoundedDiagram:
    """The grafted STU term at positions p, p+1 of segment s: the new leg
    takes position p."""
    seg = B.order[s - 1]
    u, w = seg[p], seg[p + 1]
    graph, idmap, leaf = graft_with_map(B.graph, u, w)
    order = []
    for si, old in enumerate(B.order, start=1):
        seg2 = [idmap[v] for v in old if v not in (u, w)]
        if si == s:
            seg2.insert(p, leaf)
        order.append(tuple(seg2))
    return BoundedDiagram(B.k, graph, tuple(order))


# -- The refinement search, the oracle of the forest labeling -----------------
#
# After McKay and Piperno's individualization and refinement: vertices are
# split into cells by iterated neighborhood refinement, and every ordering of
# every cell is tried for the least edge list.  It is factorial in the cell
# sizes, keys any diagram, and gives sign 0 when an automorphism reverses an
# odd number of rotations.

def _refined_cells(D: Diagram):
    """Ordered partition of vertices by iterated neighborhood refinement.

    Cell order is isomorphism invariant: ranks are assigned by sorting the
    signature values themselves, never by first encounter.
    """
    n = D.n
    if n == 0:
        return []
    labels = [0 if c is None else c for c in D.colors]
    order = sorted(set(labels))
    rank = [order.index(l) for l in labels]
    while True:
        sigs = [
            (rank[v], tuple(sorted(rank[D.vertex_of(mate(h))] for h in D.incidence[v])))
            for v in range(n)
        ]
        order = sorted(set(sigs))
        pos = {s: i for i, s in enumerate(order)}
        new_rank = [pos[sigs[v]] for v in range(n)]
        stable = len(order) == len(set(rank))
        rank = new_rank
        if stable:
            break
    cells = {}
    for v in range(n):
        cells.setdefault(rank[v], []).append(v)
    return [cells[r] for r in sorted(cells)]


def _edge_tuple(D: Diagram, pi):
    pairs = []
    for e in range(D.n_edges):
        u, v = D.edge_ends(e)
        a, b = pi[u], pi[v]
        pairs.append((a, b) if a <= b else (b, a))
    pairs.sort()
    return tuple(pairs)


def _signs_for_labeling(D: Diagram, pi, slot_groups):
    """Yield orientation parities over all edge tie-orders and loop sides."""
    base_ids = {}
    tie_choices = []
    loop_edges = []
    for slots, edges in slot_groups:
        if len(edges) == 1:
            e, s = edges[0], slots[0]
            u, v = D.edge_ends(e)
            if u == v:
                loop_edges.append((e, s))
            elif pi[u] < pi[v]:
                base_ids[2 * e], base_ids[2 * e + 1] = 2 * s, 2 * s + 1
            else:
                base_ids[2 * e], base_ids[2 * e + 1] = 2 * s + 1, 2 * s
        else:
            tie_choices.append((slots, edges))

    internal = [v for v in range(D.n) if D.colors[v] is None]

    def emit(ids):
        sign = 1
        for v in internal:
            a, b, c = (ids[h] for h in D.incidence[v])
            sign *= _rotation_parity(a, b, c)
        return sign

    def assign(idx, ids):
        if idx < len(tie_choices):
            slots, edges = tie_choices[idx]
            for perm in itertools.permutations(edges):
                nxt = dict(ids)
                more_loops = []
                for e, s in zip(perm, slots):
                    u, v = D.edge_ends(e)
                    if u == v:
                        more_loops.append((e, s))
                    elif pi[u] < pi[v]:
                        nxt[2 * e], nxt[2 * e + 1] = 2 * s, 2 * s + 1
                    else:
                        nxt[2 * e], nxt[2 * e + 1] = 2 * s + 1, 2 * s
                yield from assign_loops(more_loops, nxt, idx + 1)
        else:
            yield emit(ids)

    def assign_loops(pending, ids, idx):
        if not pending:
            yield from assign(idx, ids)
            return
        (e, s), rest = pending[0], pending[1:]
        for flip in (False, True):
            nxt = dict(ids)
            if flip:
                nxt[2 * e], nxt[2 * e + 1] = 2 * s + 1, 2 * s
            else:
                nxt[2 * e], nxt[2 * e + 1] = 2 * s, 2 * s + 1
            yield from assign_loops(rest, nxt, idx)

    yield from assign_loops(loop_edges, base_ids, 0)


def _slot_groups(D: Diagram, pi, pairs):
    """Group edges by their canonical endpoint pair, with their slot ranges."""
    by_pair = {}
    for e in range(D.n_edges):
        u, v = D.edge_ends(e)
        a, b = pi[u], pi[v]
        by_pair.setdefault((a, b) if a <= b else (b, a), []).append(e)
    groups = []
    slot = 0
    seen = set()
    for pair in pairs:
        if pair in seen:
            continue
        seen.add(pair)
        edges = by_pair[pair]
        groups.append((list(range(slot, slot + len(edges))), edges))
        slot += len(edges)
    return groups


def _rotation_parity(a, b, c) -> int:
    """+1 when the cyclic order (a, b, c) is the ascending class."""
    x, y, z = sorted((a, b, c))
    return 1 if (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)) else -1


def _encode(k, desc, pairs) -> bytes:
    """The key format: tag, k, vertex and edge counts, colors, edge pairs."""
    return bytes([0x55, k, len(desc), len(pairs), *desc, *(x for p in pairs for x in p)])


def _search_key(D: Diagram) -> SignedCanonicalKey:
    """Canonical key by trying every ordering of every refined cell."""
    cells = _refined_cells(D)
    best = None
    best_pis = []
    for choice in itertools.product(*(itertools.permutations(c) for c in cells)):
        pi = [0] * D.n
        pos = 0
        for cell in choice:
            for v in cell:
                pi[v] = pos
                pos += 1
        pairs = _edge_tuple(D, pi)
        if best is None or pairs < best:
            best, best_pis = pairs, [pi]
        elif pairs == best:
            best_pis.append(pi)

    desc = [0] * D.n
    if best_pis:
        pi0 = best_pis[0]
        for v in range(D.n):
            desc[pi0[v]] = D.colors[v] or 0
    key = _encode(D.k, desc, best or ())

    signs = set()
    for pi in best_pis:
        for s in _signs_for_labeling(D, pi, _slot_groups(D, pi, best)):
            signs.add(s)
            if len(signs) == 2:
                return SignedCanonicalKey(key, 0)
    return SignedCanonicalKey(key, signs.pop() if signs else 1)


# -- Construction and validation ----------------------------------------------

def test_mate_involution():
    for h in range(10):
        assert mate(mate(h)) == h
        assert mate(h) != h


def test_segment_shape():
    D = segment(1, 2, 3)
    assert D.n == 2
    assert D.n_edges == 1
    assert sorted(c for _, c in D.legs()) == [1, 2]
    assert D.degree() == 1


def test_tripod_shape():
    D = tripod(1, 2, 3, 3)
    assert D.n == 4
    assert D.n_edges == 3
    assert sorted(c for _, c in D.legs()) == [1, 2, 3]
    assert D.degree() == 2


def test_build_rejects_bad_color():
    with pytest.raises(DiagramError):
        build(2, [3, 1], [(0, 1)])


def test_build_rejects_wrong_valence():
    # univalent vertex with two edges
    with pytest.raises(DiagramError):
        build(2, [1, 2, None], [(0, 2), (0, 2), (1, 2)], {2: (0, 1, 2)})


@pytest.mark.parametrize("colors, incidence", [
    ((1, 2), ((0, 1), ())),                 # a leg with two half-edges
    ((1, 2, None), ((0,), (1,), (2, 3))),   # an internal vertex with two
    ((1, 2), ((0,), (0,))),                 # a half-edge at two vertices
    ((1, 2), ((0,), (2,))),                 # half-edge ids with a gap
    ((None, None, 1, 2), ((0, 2, 4), (1, 3, 5), (6,), (7,))),   # a component without legs
    ((1, 3), ((0,), (1,))),                 # a color outside 1..k
], ids=["leg-two", "internal-two", "shared", "gap", "no-leg", "color"])
def test_diagram_constructor_validates(colors, incidence):
    with pytest.raises(DiagramError):
        Diagram(2, colors, incidence)


def test_build_default_rotation_is_edge_order():
    D = build(3, [1, 2, 3, None], [(0, 3), (1, 3), (2, 3)])
    E = build(3, [1, 2, 3, None], [(0, 3), (1, 3), (2, 3)], {3: (0, 1, 2)})
    assert D.incidence == E.incidence


def test_build_rejects_bad_rotation_content():
    with pytest.raises(DiagramError):
        build(3, [1, 2, 3, None], [(0, 3), (1, 3), (2, 3)], {3: (0, 1, 1)})


def test_degree_additive():
    D = disjoint_union(segment(1, 2, 3), tripod(1, 2, 3, 3))
    assert D.degree() == segment(1, 2, 3).degree() + tripod(1, 2, 3, 3).degree()
    assert len(D.components()) == 2


# -- Canonicalization ----------------------------------------------------------

def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(7)
    samples = [
        segment(1, 2, 4),
        tripod(1, 2, 3, 4),
        _h_tree(1, 2, 3, 4, 4),
        disjoint_union(tripod(1, 2, 3, 4), segment(1, 4, 4)),
    ]
    for D in samples:
        key = canonicalize(D)
        for _ in range(20):
            E, _ = _relabel(D, rng)
            assert canonicalize(E).key == key.key
            assert canonicalize(E).sign == key.sign


def test_rotation_swap_flips_sign():
    base = tripod(1, 2, 3, 3)
    swapped = build(
        3, [1, 2, 3, None], [(0, 3), (1, 3), (2, 3)], {3: (1, 0, 2)}
    )
    a, b = canonicalize(base), canonicalize(swapped)
    assert a.key == b.key
    assert a.sign == -b.sign != 0


def test_h_tree_rotation_swap_flips_sign():
    base = _h_tree(1, 2, 3, 4, 4)
    swapped = build(
        4,
        [1, 2, 3, 4, None, None],
        [(0, 4), (1, 4), (4, 5), (2, 5), (3, 5)],
        {4: (1, 0, 2), 5: (2, 3, 4)},
    )
    a, b = canonicalize(base), canonicalize(swapped)
    assert a.key == b.key
    assert a.sign == -b.sign != 0


def test_antisymmetric_diagram_has_sign_zero():
    # the tadpole admits an automorphism reversing one rotation; only the
    # oracle keys it, since the library keys forests alone
    assert _search_key(_tadpole()).sign == 0


@pytest.mark.parametrize("D, cause", [(_tadpole(), "a cycle"),
                                      (segment(1, 1, 2), "a repeated leg color")])
def test_canonicalize_rejects_non_forests(D, cause):
    with pytest.raises(DiagramError, match=cause):
        canonicalize(D)
    assert inject(D).is_zero()


def test_canonical_diagram_round_trip():
    D = disjoint_union(tripod(1, 2, 3, 4), segment(2, 4, 4))
    key = canonicalize(D)
    C = canonical_diagram(key.key)
    assert canonicalize(C).key == key.key


def test_key_tree_matches_forest_key_on_every_raw_tree():
    # each tree from leaf insertion on 2..7 legs, its legs colored from a
    # shuffled palette and its vertices, edges and edge ends permuted; the
    # body's rotations are ascending, as build's are without rotations
    rng, k, trees = random.Random(22), 9, 0
    for legs in range(2, 8):
        for verts, edges in _raw_trees(tuple(range(1, legs + 1))):
            palette = rng.sample(range(1, k + 1), legs)
            perm = list(range(len(verts)))
            rng.shuffle(perm)
            colors = [None] * len(verts)
            for v, c in enumerate(verts):
                colors[perm[v]] = c and palette[c - 1]
            edges = [(perm[u], perm[v])[::rng.choice((1, -1))] for u, v in edges]
            rng.shuffle(edges)
            sk = canonicalize(build(k, colors, edges))
            body = (tuple(c or 0 for c in colors), tuple(x for e in edges for x in e))
            assert key_tree(body, {}) == (split_trees(sk.key)[0][1], sk.sign), (colors, edges)
            trees += 1
    assert trees == 1 + 1 + 3 + 15 + 105 + 945


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_relabeling_never_changes_class(seed):
    rng = random.Random(seed)
    D = _h_tree(1, 2, 3, 4, 4)
    E, _ = _relabel(D, rng)
    ck_d, ck_e = canonicalize(D), canonicalize(E)
    assert ck_d.key == ck_e.key
    assert abs(ck_e.sign) == 1


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_rotation_reversals_set_the_sign(seed):
    # needs no oracle: relabeling keeps the class and each reversal negates it
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    D = _random_forest(rng, k, _tree_pool(rng, k, 5))
    E, flips = _relabel(D, rng, flip=True)
    ck_d, ck_e = canonicalize(D), canonicalize(E)
    assert ck_e.key == ck_d.key
    assert ck_e.sign == ck_d.sign * (-1) ** flips


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_forest_labeling_matches_search(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    pool = _tree_pool(rng, k, 3)
    D = _random_forest(rng, k, pool)
    E, _ = _relabel(D if rng.random() < 0.5 else _random_forest(rng, k, pool), rng, flip=True)
    fast_d, fast_e = canonicalize(D), canonicalize(E)
    slow_d, slow_e = _search_key(D), _search_key(E)
    assert (fast_d.key == fast_e.key) == (slow_d.key == slow_e.key)
    assert fast_d.sign * fast_e.sign != 0
    if fast_d.key == fast_e.key:
        assert fast_d.sign * fast_e.sign == slow_d.sign * slow_e.sign
    assert canonicalize(canonical_diagram(fast_d.key)) == SignedCanonicalKey(fast_d.key, 1)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_bounded_forest_labeling_matches_search(seed):
    # segment colors may repeat within a tree: slot colors never do
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    pool = _tree_pool(rng, k, 4, distinct=False)
    F = _random_forest(rng, k, pool)
    B = BoundedDiagram(k, F, _random_order(rng, F))
    base = F if rng.random() < 0.5 else _random_forest(rng, k, pool)
    order = B.order if base is F else _random_order(rng, base)
    perm = list(range(base.n))
    rng.shuffle(perm)
    C = BoundedDiagram(k, _relabel(base, rng, flip=True, perm=perm)[0],
                       tuple(tuple(perm[v] for v in seg) for seg in order))
    fast_b, fast_c = bounded_key(B.graph, B.order), bounded_key(C.graph, C.order)
    slow_b, slow_c = _search_bounded(B), _search_bounded(C)
    assert (fast_b.key == fast_c.key) == (slow_b.key == slow_c.key)
    assert fast_b.sign * fast_c.sign != 0
    if fast_b.key == fast_c.key:
        assert fast_b.sign * fast_c.sign == slow_b.sign * slow_c.sign
    again = bounded_from_key(fast_b.key)
    again = bounded_key(again.graph, again.order)
    assert again == SignedCanonicalKey(fast_b.key, 1)


@pytest.mark.parametrize("legs", [200, 1500])
def test_oversized_forest_is_rejected_before_its_walk(legs):
    # 2 * legs - 2 vertices pass the one-byte vertex count; the walk, whose
    # recursion depth grows with the tree, never starts
    D = caterpillar(range(1, legs + 1), legs)
    with pytest.raises(DiagramError, match="too large to encode"):
        canonicalize(D)
    with pytest.raises(DiagramError, match="too large to encode"):
        chi(D, legs)


def test_oversized_slot_colors_are_rejected_before_they_are_made():
    # three segments (99, 98) key at k = 100, but their six legs give slot
    # colors up to 298 and the bound K = 700, which no byte holds
    D = build(100, [99, 98] * 3, [(0, 1), (2, 3), (4, 5)])
    assert len(canonicalize(D).key) == 16
    with pytest.raises(DiagramError, match="too large to encode"):
        chi(D, 100)


def test_parallel_struts_are_labeled_without_search():
    # the search tries 8!^2 labelings here; the forest labeling is linear
    D = empty(2)
    for _ in range(8):
        D = disjoint_union(D, segment(1, 2, 2))
    sk = canonicalize(D)
    assert sk.sign == 1
    assert canonical_diagram(sk.key).colors == (1, 2) * 8
    assert dim_space("bhl", 2, 8, budget=(2, 8)).dim == 1


# -- Homotopy grading ----------------------------------------------------------

def test_boring_repeated_leg_color():
    assert is_boring(segment(1, 1, 2))
    assert is_boring(tripod(1, 2, 1, 3))
    assert not is_boring(tripod(1, 2, 3, 3))


def test_boring_positive_betti():
    T = _tadpole()
    assert first_betti(T, T.components()[0]) == 1
    assert is_boring(T)
    P = tripod(1, 2, 3, 3)
    assert first_betti(P, P.components()[0]) == 0


def test_boring_is_per_component():
    # a good component does not rescue a bad one
    D = disjoint_union(segment(1, 2, 3), segment(3, 3, 3))
    assert is_boring(D)


def test_inject_drops_boring_in_homotopy_mode():
    assert inject(segment(1, 1, 2)).is_zero()
    assert inject(disjoint_union(segment(1, 2, 3), segment(3, 3, 3))).is_zero()
    assert not inject(segment(1, 2, 2)).is_zero()


def test_caterpillar_colors():
    D = caterpillar((1, 2, 3, 4), 4)
    assert sorted(c for _, c in D.legs()) == [1, 2, 3, 4]
    assert D.degree() == 3
