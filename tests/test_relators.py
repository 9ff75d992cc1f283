"""Unit tests for relator construction: graft, star, IHX, STU, link1, 1T, 4T.

Core claims:
    - grafting is antisymmetric in its two legs
    - the star relator from a split of tripod(1,2,3) + m copies of
      segment(1,2) is exactly +-(1+m) times the original diagram
    - IHX relators over the four-leaf trees have rank 1, leaving the
      two-dimensional space a Lyndon count predicts
    - 4T relators at degree 2 vanish identically and never exceed 4 terms;
      one degree-3 relator is checked term by term against a hand computation
    - 1T relators are supported on diagrams with an isolated chord
    - STU and link1 relators stay inside their degree's bounded basis
"""

from fractions import Fraction
from math import factorial

import pytest

from linkhom.bases import enum_forests
from linkhom.bounded import enum_bounded
from linkhom.chords import ChordDiagram, chord_key, enum_chord, has_isolated_chord, chord_from_key
from linkhom.diagrams import (
    canonicalize,
    disjoint_union,
    empty,
    graft_with_map,
    inject,
    segment,
    tripod,
)
from linkhom.errors import DiagramError
from linkhom.lincomb import LinComb
from linkhom.qlinalg import relator_matrix
from linkhom.relators import (
    count_segments,
    four_t_relator,
    four_t_relators,
    ihx_relators,
    link1_relators,
    one_t_relators,
    star_relator,
    stu_relators,
)


# -- Helpers -----------------------------------------------------------------

def _union(parts, k):
    out = empty(k)
    for p in parts:
        out = disjoint_union(out, p)
    return out


def _color1_leg_next_to(E, neighbor_color):
    """The color-1 leg whose component also carries neighbor_color."""
    for v, c in E.legs():
        if c != 1:
            continue
        comp = next(cmp_ for cmp_ in E.components() if v in cmp_)
        if any(E.colors[w] == neighbor_color for w in comp):
            return v
    raise AssertionError("no such leg")


def _lyndon_count(n):
    """Permutations of 0..n-1 strictly minimal among their rotations."""
    from itertools import permutations

    count = 0
    for p in permutations(range(n)):
        rots = [p[i:] + p[:i] for i in range(n)]
        if all(p < r for r in rots[1:]):
            count += 1
    return count


# -- Graft ---------------------------------------------------------------------

def test_graft_antisymmetric():
    E = _union([segment(1, 3, 3), segment(1, 2, 3)], 3)
    u, w = [v for v, c in E.legs() if c == 1]
    assert inject(graft_with_map(E, u, w)[0]) == -inject(graft_with_map(E, w, u)[0])


def test_graft_of_two_segments_is_tripod():
    E = _union([segment(1, 3, 3), segment(1, 2, 3)], 3)
    u, w = [v for v, c in E.legs() if c == 1]
    G, _, _ = graft_with_map(E, u, w)
    assert canonicalize(G).key == canonicalize(tripod(1, 2, 3, 3)).key


def test_graft_requires_matching_leg_colors():
    E = _union([segment(1, 3, 3), segment(1, 2, 3)], 3)
    u = next(v for v, c in E.legs() if c == 2)
    w = next(v for v, c in E.legs() if c == 3)
    with pytest.raises(DiagramError):
        graft_with_map(E, u, w)


def test_graft_preserves_degree():
    E = _union([segment(1, 3, 3), segment(1, 2, 3)], 3)
    u, w = [v for v, c in E.legs() if c == 1]
    assert graft_with_map(E, u, w)[0].degree() == E.degree()


# -- Star relator -----------------------------------------------------------------

@pytest.mark.parametrize("m", [0, 1, 2])
def test_star_relator_coefficient_identity(m):
    # split tripod(1,2,3) |_| m seg(1,2) at the color-1 leaf and close it up:
    # every graft lands on the same class, so the relator is +-(1+m) times it
    E = _union([segment(1, 3, 3)] + [segment(1, 2, 3)] * (1 + m), 3)
    u = _color1_leg_next_to(E, 3)
    r = star_relator(E, u, canonicalize(E).key)
    D = _union([tripod(1, 2, 3, 3)] + [segment(1, 2, 3)] * m, 3)
    expected = canonicalize(D)
    terms = list(r.element.items())
    assert len(terms) == 1
    key, coeff = terms[0]
    assert key == expected.key
    assert abs(coeff) == 1 + m


def test_star_relator_needs_a_leg():
    E = tripod(1, 2, 3, 3)
    trivalent = next(v for v in range(E.n) if E.colors[v] is None)
    with pytest.raises(DiagramError):
        star_relator(E, trivalent, canonicalize(E).key)


def test_star_relator_drops_boring_grafts():
    # grafting two seg(1,2) copies yields a repeated-color component: zero
    E = _union([segment(1, 2, 3)] * 2, 3)
    u = next(v for v, c in E.legs() if c == 1)
    r = star_relator(E, u, canonicalize(E).key)
    assert r.element.is_zero()


# -- IHX ----------------------------------------------------------------------------

def test_ihx_rank_on_four_leaf_trees():
    basis = enum_forests(4, 3)
    relators = ihx_relators(basis)
    assert len(relators) == 3
    m = relator_matrix(basis, relators)
    assert m.rank() == 1
    # trees types (2m-5)!! = 3 minus rank 1 leaves the Lyndon count (n-1)!
    assert 3 - m.rank() == _lyndon_count(3) == factorial(2)


def test_ihx_vacuous_without_internal_edges():
    assert ihx_relators(enum_forests(3, 3)) == []
    assert ihx_relators(enum_forests(2, 2)) == []


# -- Chord relators ---------------------------------------------------------------------

def test_4t_relators_at_degree_2_vanish():
    for r in four_t_relators(enum_chord(2)):
        assert r.element.is_zero()


@pytest.mark.parametrize("d", [3, 4])
def test_4t_relators_have_at_most_four_unit_terms(d):
    basis_keys = set(enum_chord(d))
    for r in four_t_relators(enum_chord(d)):
        terms = list(r.element.items())
        assert len(terms) <= 4
        for key, coeff in terms:
            assert key in basis_keys
            assert abs(coeff) <= 2   # merged same-class hops can double up


def _chords(*pairs):
    """Chord diagram from its chords as endpoint pairs."""
    pairing = [0] * (2 * len(pairs))
    for a, b in pairs:
        pairing[a], pairing[b] = b, a
    return ChordDiagram(tuple(pairing))


def test_4t_relator_by_hand_at_degree_3():
    # three mutually crossing chords 03, 14, 25; the endpoint at 0 hops
    # across q = 1 and across r = 4, the far end of q's chord
    c = _chords((0, 3), (1, 4), (2, 5))
    r = four_t_relator(chord_key(c), 0)
    assert r.rid == "4t:4303030405000102:0"
    before_q = c
    after_q = _chords((1, 3), (0, 4), (2, 5))      # circle order 1 0 2 3 4 5
    before_r = _chords((2, 3), (0, 4), (1, 5))     # circle order 1 2 3 0 4 5
    after_r = _chords((2, 4), (0, 3), (1, 5))      # circle order 1 2 3 4 0 5
    # both "after" placements give one chord crossing two parallel ones
    assert chord_key(after_q) == chord_key(after_r)
    assert has_isolated_chord(before_r.pairing)
    want = (LinComb.term(chord_key(before_q)) - LinComb.term(chord_key(after_q))
            + LinComb.term(chord_key(before_r)) - LinComb.term(chord_key(after_r)))
    assert r.element == want
    assert sorted(coeff for _, coeff in r.element.items()) == [-2, 1, 1]


def test_1t_relators_mark_isolated_chords():
    basis = enum_chord(3)
    marked = {key for key in basis if has_isolated_chord(chord_from_key(key).pairing)}
    relators = one_t_relators(basis)
    assert {next(iter(r.element.keys())) for r in relators} == marked
    for r in relators:
        terms = list(r.element.items())
        assert len(terms) == 1
        assert terms[0][1] == Fraction(1)


# -- Bounded relators -----------------------------------------------------------------------

@pytest.mark.parametrize("k,d", [(2, 2), (3, 2)])
def test_stu_and_link1_stay_in_basis(k, d):
    basis = enum_bounded(k, d)
    keys = set(basis)
    for r in stu_relators(basis) + link1_relators(basis):
        for key, _ in r.element.items():
            assert key in keys


def test_stu_relators_nonempty():
    assert len(stu_relators(enum_bounded(2, 2))) > 0
    assert len(link1_relators(enum_bounded(2, 2))) > 0


# -- Segment counting ---------------------------------------------------------------------------

def test_count_segments():
    D = _union([segment(1, 2, 3)] * 2 + [segment(1, 3, 3)], 3)
    assert count_segments(D, 1, 2) == 2
    assert count_segments(D, 2, 1) == 2
    assert count_segments(D, 1, 3) == 1
    assert count_segments(D, 2, 3) == 0
    T = _union([tripod(1, 2, 3, 3), segment(1, 2, 3)], 3)
    # the tripod is not a segment
    assert count_segments(T, 1, 2) == 1
