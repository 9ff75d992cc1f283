"""Unit tests for colored unitrivalent diagrams and signed canonicalization.

Core claims:
    - build() validates half-edge bookkeeping and rejects malformed input
    - canonical keys are invariant under vertex/edge relabeling
    - the canonical sign flips under a single rotation transposition
    - diagrams with an order-reversing automorphism canonicalize to sign 0
    - boring detection sees repeated leg colors and positive first Betti number
    - degree is additive under disjoint union
    - the forest labeling agrees with the refinement search on random forests,
      plain and bounded, and the library never falls back to the search
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from linkhom import bounded as bnd
from linkhom import diagrams
from linkhom.bases import _raw_trees
from linkhom.diagrams import (
    Diagram,
    SignedCanonicalKey,
    build,
    canonical_diagram,
    canonicalize,
    caterpillar,
    disjoint_union,
    empty,
    first_betti,
    inject,
    is_boring,
    mate,
    segment,
    tripod,
)
from linkhom.errors import DiagramError
from linkhom.spaces import dim_space, polynomial_dimension, verify_main_theorem


# -- Helpers -----------------------------------------------------------------

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
    probability 1/2."""
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
    rotations = {}
    for v in range(D.n):
        if D.colors[v] is None:
            rot = tuple(inv[h // 2] for h in D.incidence[v])
            rotations[perm[v]] = rot[::-1] if flip and rng.random() < 0.5 else rot
    return build(D.k, vertices, new_edges, rotations)


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
    colors, kk = bnd._slot_colors(B)
    return diagrams._search_key(Diagram(kk, tuple(colors), B.graph.incidence))


def _random_order(rng, D):
    """A random top-to-bottom order of each segment's legs."""
    order = []
    for s in range(1, D.k + 1):
        seg = [v for v, c in D.legs() if c == s]
        rng.shuffle(seg)
        order.append(tuple(seg))
    return tuple(order)


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
            E = _relabel(D, rng)
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
    # the tadpole admits an automorphism reversing one rotation
    assert canonicalize(_tadpole()).sign == 0
    assert inject(_tadpole(), homotopy=False).is_zero()


def test_canonical_diagram_round_trip():
    D = disjoint_union(tripod(1, 2, 3, 4), segment(2, 4, 4))
    key = canonicalize(D)
    C = canonical_diagram(key.key)
    assert canonicalize(C).key == key.key


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_relabeling_never_changes_class(seed):
    rng = random.Random(seed)
    D = _h_tree(1, 2, 3, 4, 4)
    E = _relabel(D, rng)
    ck_d, ck_e = canonicalize(D), canonicalize(E)
    assert ck_d.key == ck_e.key
    assert abs(ck_e.sign) == 1


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_forest_labeling_matches_search(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    pool = _tree_pool(rng, k, 3)
    D = _random_forest(rng, k, pool)
    E = _relabel(D if rng.random() < 0.5 else _random_forest(rng, k, pool), rng, flip=True)
    fast_d, fast_e = canonicalize(D), canonicalize(E)
    slow_d, slow_e = diagrams._search_key(D), diagrams._search_key(E)
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
    B = bnd.BoundedDiagram(k, F, _random_order(rng, F))
    base = F if rng.random() < 0.5 else _random_forest(rng, k, pool)
    order = B.order if base is F else _random_order(rng, base)
    perm = list(range(base.n))
    rng.shuffle(perm)
    C = bnd.BoundedDiagram(k, _relabel(base, rng, flip=True, perm=perm),
                           tuple(tuple(perm[v] for v in seg) for seg in order))
    fast_b, fast_c = bnd.canonicalize_bounded(B), bnd.canonicalize_bounded(C)
    slow_b, slow_c = _search_bounded(B), _search_bounded(C)
    assert (fast_b.key == fast_c.key) == (slow_b.key == slow_c.key)
    assert fast_b.sign * fast_c.sign != 0
    if fast_b.key == fast_c.key:
        assert fast_b.sign * fast_c.sign == slow_b.sign * slow_c.sign
    again = bnd.canonicalize_bounded(bnd.bounded_from_key(fast_b.key))
    assert again == SignedCanonicalKey(fast_b.key, 1)


def test_parallel_struts_are_labeled_without_search():
    # the search tries 8!^2 labelings here; the forest labeling is linear
    D = empty(2)
    for _ in range(8):
        D = disjoint_union(D, segment(1, 2, 2))
    sk = canonicalize(D)
    assert sk.sign == 1
    assert canonical_diagram(sk.key).colors == (1, 2) * 8
    assert dim_space("bhl", 2, 8, budget=(2, 8)).dim == 1


def test_library_never_reaches_the_search(monkeypatch):
    def search(D):
        raise AssertionError("refinement search reached")

    monkeypatch.setattr(diagrams, "_search_key", search)
    assert dim_space("bhl", 4, 3).dim == polynomial_dimension(4, 3)
    assert dim_space("ahl", 3, 3).dim == polynomial_dimension(3, 3)
    assert len(verify_main_theorem(3, 3)) > 0
    with pytest.raises(AssertionError):
        canonicalize(_tadpole())


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
    D = segment(1, 1, 2)
    assert inject(D).is_zero()
    assert not inject(D, homotopy=False).is_zero()


def test_caterpillar_colors():
    D = caterpillar((1, 2, 3, 4), 4)
    assert sorted(c for _, c in D.legs()) == [1, 2, 3, 4]
    assert D.degree() == 3
