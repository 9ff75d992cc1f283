"""Differential tests for the relator and basis generators.

The library builds relators and basis keys from parts it already trusts: it
skips re-validation, keeps +-1 coefficients as ints, does not build the
grafts it knows to be boring, reuses the basis key as the base term of IHX,
STU and link1, and joins a forest's key from its trees' keys.  The oracle
here is the pipeline it replaced: every term built, re-validated as a
Diagram, tested for boringness, keyed by one global labeling of the whole
forest and injected with a Fraction coefficient.

Core claims:
    - every relator id and element of the bhsl and bhl blocks at k <= 5,
      d <= 3 and at 4/4, and of the ahsl and ahl blocks at k <= 4, d <= 3,
      equals the oracle's, and every coefficient is an int
    - the enumerated forest keys of those cells are the oracle's keys of the
      disjoint unions of their trees, each with sign +1, and the bounded
      keys are the oracle's keys of every leg order
    - a graft is skipped exactly when its result is boring, and a star
      relator at a leg whose color no other leg has is zero
"""

import itertools
from fractions import Fraction

import pytest

from linkhom import bounded as bnd
from linkhom import spaces
from linkhom.bases import _raw_trees, enum_forests
from linkhom.diagrams import (
    Diagram,
    build,
    canonical_diagram,
    disjoint_union,
    empty,
    graft_with_map,
    is_boring,
)
from linkhom.lincomb import LinComb
from linkhom.relators import _interesting_graft, _trees, internal_edges, star_relator


# -- Oracle -------------------------------------------------------------------

def _validated(D):
    return Diagram(D.k, D.colors, D.incidence)


def _global_key(D, colors, k):
    """The canonical key and sign by one labeling of the whole forest: trees
    ordered by color sequence, all edges sorted together, and each rotation's
    parity read off the edges' slots in that one list."""
    owner = [D.vertex_of(h) for h in range(2 * D.n_edges)]
    inc = D.incidence

    def walk(v, up):
        if colors[v] is not None:
            return colors[v], [v]
        a, b = (walk(owner[h ^ 1], h ^ 1) for h in inc[v] if h != up)
        if b[0] < a[0]:
            a, b = b, a
        return a[0], [v, *a[1], *b[1]]

    trees = []
    for comp in D.components():
        root = min((v for v in comp if colors[v] is not None), key=lambda v: colors[v])
        h = inc[root][0]
        order = [root, *walk(owner[h ^ 1], h ^ 1)[1]]
        trees.append((tuple(colors[v] or 0 for v in order), order))
    trees.sort(key=lambda t: t[0])
    label = [0] * D.n
    for i, v in enumerate(v for _, order in trees for v in order):
        label[v] = i
    ends = sorted((min(label[owner[2 * e]], label[owner[2 * e + 1]]),
                   max(label[owner[2 * e]], label[owner[2 * e + 1]]), e)
                  for e in range(D.n_edges))
    slot = {e: s for s, (_, _, e) in enumerate(ends)}
    sign = 1
    for v in range(D.n):
        if colors[v] is None:
            a, b, c = (slot[h >> 1] for h in inc[v])
            x, y, z = sorted((a, b, c))
            sign *= 1 if (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)) else -1
    desc = [c for seq, _ in trees for c in seq]
    key = bytes([0x55, k, len(desc), len(ends), *desc, *(x for a, b, _ in ends for x in (a, b))])
    return key, sign


def _inject(D):
    D = _validated(D)
    if is_boring(D):
        return LinComb.zero()
    key, sign = _global_key(D, D.colors, D.k)
    return LinComb.term(key, Fraction(sign))


def _inject_bounded(B):
    B = bnd.BoundedDiagram(B.k, _validated(B.graph), B.order)
    if is_boring(B.graph):
        return LinComb.zero()
    key, sign = _global_key(B.graph, *bnd._slot_colors(B))
    return LinComb.term(bytes([0x42, B.k]) + key, Fraction(sign))


def _star(key):
    E = canonical_diagram(key)
    out = {}
    for u, color in E.legs():
        element = LinComb.zero()
        for w, c in E.legs():
            if w != u and c == color:
                element = element + _inject(graft_with_map(E, u, w)[0])
        out[f"star:{key.hex()}:{u}"] = element
    return out


def _with_rotations(D, x, rot_x, y, rot_y):
    inc = list(D.incidence)
    inc[x], inc[y] = rot_x, rot_y
    return Diagram(D.k, D.colors, tuple(inc))


def _ihx(key):
    D = canonical_diagram(key)
    out = {}
    for e in internal_edges(D):
        h, hp = 2 * e, 2 * e + 1
        x, y = D.vertex_of(h), D.vertex_of(hp)
        rx, ry = list(D.incidence[x]), list(D.incidence[y])
        rx, ry = rx[rx.index(h):] + rx[:rx.index(h)], ry[ry.index(hp):] + ry[:ry.index(hp)]
        _, a1, a2 = rx
        _, b1, b2 = ry
        term_h = _with_rotations(D, x, (h, a1, b1), y, (hp, a2, b2))
        term_x = _with_rotations(D, x, (h, a2, b1), y, (hp, a1, b2))
        out[f"ihx:{key.hex()}:{e}"] = _inject(D) - _inject(term_h) + _inject(term_x)
    return out


def _bounded(key):
    B = bnd.bounded_from_key(key)
    return bnd.BoundedDiagram(B.k, _validated(B.graph), B.order)


def _stu(key):
    B = _bounded(key)
    out = {}
    for s in range(1, B.k + 1):
        for p in range(len(B.order[s - 1]) - 1):
            out[f"stu:{key.hex()}:{s}:{p}"] = (
                _inject_bounded(bnd.graft_adjacent_legs(B, s, p)) - _inject_bounded(B)
                + _inject_bounded(bnd.swap_adjacent_legs(B, s, p)))
    return out


def _link1(key):
    B = _bounded(key)
    return {f"link1:{key.hex()}:{s}": _inject_bounded(bnd.cycle_segment(B, s)) - _inject_bounded(B)
            for s in range(1, B.k + 1) if B.order[s - 1]}


ORACLE = {"ihx": _ihx, "star": _star, "stu": _stu, "link1": _link1}


def _oracle_forests(k, d, m):
    """Keys and signs of every forest of degree d on colors exactly 1..m: the
    disjoint union of each multiset of trees, keyed whole."""
    types = []
    for n in range(1, min(d, m - 1) + 1):
        for colors in itertools.combinations(range(1, m + 1), n + 1):
            seen = set()
            for verts, edges in _raw_trees(colors):
                T = build(k, verts, edges)
                key = _global_key(T, T.colors, k)[0]
                if key not in seen:
                    seen.add(key)
                    types.append((n, set(colors), canonical_diagram(key)))
    out = {}
    for r in range(d + 1):
        for parts in itertools.combinations_with_replacement(range(len(types)), r):
            if sum(types[i][0] for i in parts) != d:
                continue
            if set().union(*(types[i][1] for i in parts)) != set(range(1, m + 1)):
                continue
            F = empty(k)
            for i in parts:
                F = _validated(disjoint_union(F, types[i][2]))
            key, sign = _global_key(F, F.colors, k)
            out[key] = sign
    return out


FOREST_CELLS = [(k, d) for k in range(1, 6) for d in range(4)] + [(4, 4)]
BOUNDED_CELLS = [(k, d) for k in range(1, 5) for d in range(4)]
CELLS = ([("bhsl", k, d) for k, d in FOREST_CELLS] + [("bhl", k, d) for k, d in FOREST_CELLS]
         + [("ahsl", k, d) for k, d in BOUNDED_CELLS] + [("ahl", k, d) for k, d in BOUNDED_CELLS])


# -- Relators -------------------------------------------------------------------

@pytest.mark.parametrize("space, k, d", CELLS, ids=[f"{s}-{k}/{d}" for s, k, d in CELLS])
def test_relators_match_the_validated_fraction_pipeline(space, k, d):
    for m in range(min(k, 2 * d) + 1):
        basis = spaces.space_basis(space, k, d, m)
        for kind, relators in spaces._relators_for(space, basis).items():
            want = {}
            for key in basis:
                want.update(ORACLE[kind](key))
            assert [r.rid for r in relators] == list(want), (m, kind)
            for r in relators:
                assert r.element == want[r.rid], (m, r.rid)
                assert all(type(c) is int for _, c in r.element.items()), (m, r.rid)


# -- Bases --------------------------------------------------------------------------

@pytest.mark.parametrize("k, d", FOREST_CELLS)
def test_joined_forest_keys_match_the_whole_forest_keys(k, d):
    for m in range(min(k, 2 * d) + 1):
        want = _oracle_forests(k, d, m)
        assert enum_forests(k, d, m) == sorted(want), (k, d, m)
        assert set(want.values()) <= {1}, (k, d, m)


@pytest.mark.parametrize("k, d", BOUNDED_CELLS)
def test_bounded_keys_match_the_whole_forest_keys(k, d):
    for m in range(min(k, 2 * d) + 1):
        want = set()
        for key in enum_forests(k, d, m):
            F = canonical_diagram(key)
            pools = [itertools.permutations([v for v, c in F.legs() if c == s])
                     for s in range(1, k + 1)]
            for order in itertools.product(*pools):
                want.update(_inject_bounded(bnd.BoundedDiagram(k, F, order)).keys())
        assert bnd.enum_bounded(k, d, m) == sorted(want), (k, d, m)


@pytest.mark.parametrize("k, d", [(4, 3), (5, 3), (4, 4)])
def test_skipped_grafts_are_exactly_the_boring_ones(k, d):
    for key in enum_forests(k, d):
        E = canonical_diagram(key)
        trees = _trees(E)
        for (u, a), (w, b) in itertools.permutations(E.legs(), 2):
            if a == b:
                G = graft_with_map(E, u, w)[0]
                assert _interesting_graft(trees, u, w, a) == (not is_boring(G)), (key, u, w)


def test_unique_color_star_relator_is_zero():
    # in segment(1, 2) + segment(2, 3) colors 1 and 3 have one leg each
    E = disjoint_union(build(3, [1, 2], [(0, 1)]), build(3, [2, 3], [(0, 1)]))
    for u, c in E.legs():
        r = star_relator(E, u, b"")
        assert r.element.is_zero() == (c != 2), (u, c)
