"""Unit tests for relator construction: graft, star, IHX, STU, link1, 1T, 4T.

Core claims:
    - grafting is antisymmetric in its two legs
    - the star relator from a split of tripod(1,2,3) + m copies of
      segment(1,2) is exactly +-(1+m) times the original diagram
    - each graft and exchange, done on tree bodies and keyed by key_tree,
      equals graft_with_map or the rotation edit on the representative of
      the trees' forest, keyed whole: every graft of two tree bodies of a
      forest at k <= 5, d <= 4 that share one leg color, every graft STU
      makes on the slot colors of ahl 4/3, and every internal edge of those
      bodies
    - star and IHX relators, built on tree bodies with grafts and exchanges
      keyed once per tree, equal the whole-forest oracle kept here (every
      term grafted or exchanged in the forest's representative and the
      whole forest keyed) over every basis forest of bhl 5/3, 4/4, 5/4 and
      the f(6,4) support block: same ids, same elements, same order
    - star relators sit at legs only; grafts that would be boring are 0
    - star relators made for one color are those at the legs of that
      color among all, with the same ids and elements, in the same order
    - IHX relators over the four-leaf trees have rank 1, leaving the
      two-dimensional space a Lyndon count predicts
    - 4T relators at degree 2 vanish identically and never exceed 4 terms;
      one degree-3 relator is checked term by term against a hand computation
    - 4T relators, placed by one gather and one translate, equal the
      point-by-point oracle kept here at every key and endpoint up to d = 5,
      whose first term is the key with sign +1; modulo 1T, the sites the
      chord quotient reads are the same sites with the keys that have an
      isolated chord dropped, and the oracle's terms so dropped
    - 1T relators are supported on diagrams with an isolated chord
    - STU and link1 relators stay inside their degree's bounded basis
    - count_segments, the oracle for spaces.reduce_to_monomials, counts
      segment components of one color pair and nothing else
"""

from fractions import Fraction
from math import factorial

import pytest

from linkhom.bases import enum_forests
from linkhom.bounded import enum_bounded
from linkhom.chords import enum_chord, has_isolated_chord, pairing_key
from linkhom import relators
from linkhom.diagrams import (
    Diagram,
    canonical_diagram,
    canonicalize,
    empty,
    inject,
    join_trees,
    segment,
    split_trees,
    tripod,
)
from linkhom.errors import DiagramError, VerificationError
from linkhom.lincomb import LinComb
from linkhom.qlinalg import relator_matrix
from linkhom.relators import (
    Relator,
    _exchange,
    _four_t_placements,
    _graft,
    _interesting_graft,
    four_t_relators,
    four_t_sites,
    ihx_relators,
    link1_relators,
    one_t_relators,
    star_relators,
    stu_relators,
)
from linkhom.spaces import relator_by_id
from test_diagrams import disjoint_union, graft_with_map
from test_enumeration import tuple_pairing_key


# -- Whole-forest oracle -------------------------------------------------------
#
# Star and IHX relators made in the whole forest: every term grafted or
# exchanged in the forest's representative and the whole forest keyed.  The
# library keys only the tree a term changes; this is what it is checked against.

def _add(terms, sk, c=1):
    s = terms.get(sk.key, 0) + c * sk.sign
    if s:
        terms[sk.key] = s
    else:
        del terms[sk.key]


def trees_of(D):
    """The tree index of each vertex of a forest and each tree's leg colors
    as a bitmask, as relators._interesting_graft takes them."""
    tree_of, masks = [0] * D.n, []
    for t, comp in enumerate(D.components()):
        mask = 0
        for v in comp:
            tree_of[v] = t
            if D.colors[v] is not None:
                mask |= 1 << D.colors[v]
        masks.append(mask)
    return tree_of, masks


def star_relator(E, u, key):
    """The link relation at leg u of the forest E, whose key (carried by
    the id) is key: every graft of u onto another leg of its color, keyed
    whole; grafts that would be boring are left out."""
    color = E.colors[u]
    if color is None:
        raise DiagramError(f"vertex {u} is not a leg")
    tree_of, masks = trees_of(E)
    terms = {}
    for w, c in E.legs():
        if c == color and w != u and _interesting_graft(masks, tree_of[u], tree_of[w], color):
            _add(terms, canonicalize(graft_with_map(E, u, w)[0]))
    return Relator(f"star:{key.hex()}:{u}", LinComb(terms))


def internal_edges(D):
    return [e for e in range(D.n_edges)
            if D.colors[D.edge_ends(e)[0]] is None and D.colors[D.edge_ends(e)[1]] is None]


def exchanged(D, e):
    """[H, X] of the exchange at the internal edge e of D, validated.  With
    D's rotations (h, a1, a2) at one end of e and (h', b1, b2) at the other,
    h and h' the halves of e, H takes (h, a1, b1) and (h', a2, b2), and X
    takes (h, a2, b1) and (h', a1, b2)."""
    h, hp = 2 * e, 2 * e + 1
    x, y = D.vertex_of(h), D.vertex_of(hp)
    rx, ry = D.incidence[x], D.incidence[y]
    _, a1, a2 = rx[rx.index(h):] + rx[:rx.index(h)]
    _, b1, b2 = ry[ry.index(hp):] + ry[:ry.index(hp)]
    terms = []
    for rot_x, rot_y in (((h, a1, b1), (hp, a2, b2)), ((h, a2, b1), (hp, a1, b2))):
        inc = list(D.incidence)
        inc[x], inc[y] = rot_x, rot_y
        terms.append(Diagram(D.k, D.colors, tuple(inc)))
    return terms


def ihx_relator(D, e, key):
    """I - H + X at the internal edge e of D, the representative of key."""
    term_h, term_x = exchanged(D, e)
    terms = {key: 1}
    _add(terms, canonicalize(term_h), -1)
    _add(terms, canonicalize(term_x))
    return Relator(f"ihx:{key.hex()}:{e}", LinComb(terms))


def oracle_relators(basis):
    """Star then IHX relators of a forest basis, by the whole-forest oracle,
    in the library's order."""
    stars, ihxs = [], []
    for key in basis:
        D = canonical_diagram(key)
        stars += [star_relator(D, u, key) for u, _ in D.legs()]
        ihxs += [ihx_relator(D, e, key) for e in internal_edges(D)]
    return stars + ihxs


def _star_at(key, u):
    """The library's star relator at leg u of the representative of key."""
    return next(r for r in star_relators([key]) if r.rid == f"star:{key.hex()}:{u}")


# -- Helpers -----------------------------------------------------------------

def _union(parts, k):
    out = empty(k)
    for p in parts:
        out = disjoint_union(out, p)
    return out


def count_segments(D, i: int, j: int) -> int:
    """Number of components that are single segments colored {i, j}: the
    oracle for the monomials reduce_to_monomials reads off a key."""
    if i == j:
        raise DiagramError("segment colors must differ")
    want = {i, j}
    total = 0
    for comp in D.components():
        if len(comp) == 2 and {D.colors[v] for v in comp} == want:
            total += 1
    return total


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
    key = canonicalize(_union([segment(1, 3, 3)] + [segment(1, 2, 3)] * (1 + m), 3)).key
    u = _color1_leg_next_to(canonical_diagram(key), 3)
    r = _star_at(key, u)
    D = _union([tripod(1, 2, 3, 3)] + [segment(1, 2, 3)] * m, 3)
    expected = canonicalize(D)
    terms = list(r.element.items())
    assert len(terms) == 1
    key, coeff = terms[0]
    assert key == expected.key
    assert abs(coeff) == 1 + m


def test_star_relator_needs_a_leg():
    key = canonicalize(tripod(1, 2, 3, 3)).key
    E = canonical_diagram(key)
    trivalent = next(v for v in range(E.n) if E.colors[v] is None)
    assert [r.rid for r in star_relators([key])] == [f"star:{key.hex()}:{u}" for u, _ in E.legs()]
    with pytest.raises(VerificationError):
        relator_by_id(f"star:{key.hex()}:{trivalent}", 3, 2)
    with pytest.raises(DiagramError):
        star_relator(E, trivalent, key)


def test_star_relator_drops_boring_grafts():
    # grafting two seg(1,2) copies yields a repeated-color component: zero
    key = canonicalize(_union([segment(1, 2, 3)] * 2, 3)).key
    u = next(v for v, c in canonical_diagram(key).legs() if c == 1)
    assert _star_at(key, u).element.is_zero()


ORACLE_CELLS = [(5, 3, None), (4, 4, None), (5, 4, None), (6, 4, 6)]


@pytest.mark.parametrize("k, d, m", ORACLE_CELLS, ids=["5/3", "4/4", "5/4", "f(6,4)"])
def test_star_and_ihx_relators_match_the_whole_forest_oracle(k, d, m):
    basis = enum_forests(k, d, m)
    got = list(star_relators(basis)) + list(ihx_relators(basis))
    want = oracle_relators(basis)
    assert [r.rid for r in got] == [r.rid for r in want]
    for r, w in zip(got, want):
        assert r.element == w.element, r.rid
        # the terms were also met in the same order
        assert list(r.element._terms) == list(w.element._terms), r.rid


@pytest.mark.parametrize("k, d, m", ORACLE_CELLS, ids=["5/3", "4/4", "5/4", "f(6,4)"])
def test_star_relators_of_one_color_are_those_at_its_legs(k, d, m):
    basis = enum_forests(k, d, m)
    every = list(star_relators(basis))
    for color in range(1, k + 1):
        want = [r for r in every if _leg_color(r.rid) == color]
        assert list(star_relators(basis, color)) == want, color


def _leg_color(rid):
    """The color of the leg that the id star:<key>:<u> names, byte 4 + u of the key."""
    _, key, u = rid.split(":")
    return bytes.fromhex(key)[4 + int(u)]


# -- Surgery on tree bodies -----------------------------------------------------------
#
# The library grafts and exchanges on tree bodies and keys the edited body by
# key_tree.  Each surgery is checked here by itself against the same surgery
# on the representative of the trees' forest, keyed whole, so a failure names
# the bodies and the legs or the edge.

# every tree of a forest at k <= 5, d <= 4: each one is a forest by itself
SURGERY_BODIES = sorted({body for d in range(5) for key in enum_forests(5, d)
                         for _, body in split_trees(key)})


def graft_oracle(a, b, u, w):
    """(body, sign) of grafting leg u of the tree body a onto leg w of b by
    graft_with_map on the representative of their forest, keyed whole."""
    u, w = (u, len(a[0]) + w) if a < b else (len(b[0]) + u, w)
    sk = canonicalize(graft_with_map(canonical_diagram(join_trees(max(a[0] + b[0]), [a, b])), u, w)[0])
    return split_trees(sk.key)[0][1], sk.sign


def test_graft_on_tree_bodies_matches_graft_with_map():
    # ordered pairs, so both (a, b) and (b, a); a tree shares all its colors
    # with itself, so a body never pairs with itself
    grafts = [(a, b, a[0].index(c), b[0].index(c))
              for a in SURGERY_BODIES for b in SURGERY_BODIES
              if len(shared := set(a[0]) & set(b[0]) - {0}) == 1 for c in shared]
    assert len(grafts) == 330
    for g in grafts:
        assert _graft(*g) == graft_oracle(*g), g


def test_stu_grafts_on_slot_colors_match_graft_with_map(monkeypatch):
    made = []

    def recorded(*g):
        made.append(g)
        return _graft(*g)

    monkeypatch.setattr(relators, "_graft", recorded)
    list(stu_relators(enum_bounded(4, 3)))
    assert len(made) == 192
    for g in made:
        assert _graft(*g) == graft_oracle(*g), g


def test_exchange_on_tree_bodies_matches_the_rotation_edit():
    edges = 0
    for body in SURGERY_BODIES:
        D = canonical_diagram(join_trees(max(body[0]), [body]))
        for e in internal_edges(D):
            edges += 1
            want = [(split_trees(sk.key)[0][1], sk.sign) for sk in map(canonicalize, exchanged(D, e))]
            assert list(_exchange(body, e)) == want, (body, e)
    assert edges == 45


# -- IHX ----------------------------------------------------------------------------

def test_ihx_rank_on_four_leaf_trees():
    basis = enum_forests(4, 3)
    relators = list(ihx_relators(basis))
    assert len(relators) == 3
    m = relator_matrix(basis, relators)
    assert m.rank() == 1
    # trees types (2m-5)!! = 3 minus rank 1 leaves the Lyndon count (n-1)!
    assert 3 - m.rank() == _lyndon_count(3) == factorial(2)


def test_ihx_vacuous_without_internal_edges():
    assert list(ihx_relators(enum_forests(3, 3))) == []
    assert list(ihx_relators(enum_forests(2, 2))) == []


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
    """Key of the chord diagram with these chords, as endpoint pairs."""
    pairing = [0] * (2 * len(pairs))
    for a, b in pairs:
        pairing[a], pairing[b] = b, a
    return pairing_key(pairing)


def four_t_relator(key: bytes, p: int) -> Relator:
    """Four-term relation at the adjacent endpoint pair (p, p+1) of the chord
    diagram with this canonical key, one relator by itself: the key with
    sign +1, then each placement keyed."""
    terms = [(key, 1)] + [(pairing_key(raw), sign)
                          for raw, sign in _four_t_placements(key[2:], p)]
    return Relator(f"4t:{key.hex()}:{p}", LinComb(terms))


def test_4t_relator_by_hand_at_degree_3():
    # three mutually crossing chords 03, 14, 25; the endpoint at 0 hops
    # across q = 1 and across r = 4, the far end of q's chord
    c = _chords((0, 3), (1, 4), (2, 5))
    r = four_t_relator(c, 0)
    assert r.rid == "4t:4303030405000102:0"
    before_q = c
    after_q = _chords((1, 3), (0, 4), (2, 5))      # circle order 1 0 2 3 4 5
    before_r = _chords((2, 3), (0, 4), (1, 5))     # circle order 1 2 3 0 4 5
    after_r = _chords((2, 4), (0, 3), (1, 5))      # circle order 1 2 3 4 0 5
    # both "after" placements give one chord crossing two parallel ones
    assert after_q == after_r
    assert has_isolated_chord(before_r[2:])
    want = (LinComb.term(before_q) - LinComb.term(after_q)
            + LinComb.term(before_r) - LinComb.term(after_r))
    assert r.element == want
    assert sorted(coeff for _, coeff in r.element.items()) == [-2, 1, 1]


def four_t_terms_oracle(key, p):
    """The unmerged (key, sign) terms of the 4T relation at p, as
    four_t_relator built them before it gathered and translated bytes: every
    placement of p rebuilt point by point and keyed by the tuple oracle."""
    pairing = key[2:]
    n = len(pairing)
    q = (p + 1) % n
    if pairing[p] == q:
        raise DiagramError("endpoints belong to one chord")
    rest = [x for x in range(n) if x != p]      # the circle without p
    terms = []
    for anchor in (q, pairing[q]):
        i = anchor - (anchor > p)
        for pos, sign in ((i, 1), (i + 1, -1)):
            order = rest[:pos] + [p] + rest[pos:]
            at = [0] * n
            for j, x in enumerate(order):
                at[x] = j
            terms.append((tuple_pairing_key(tuple(at[pairing[x]] for x in order)), sign))
    return terms


@pytest.mark.parametrize("d", range(6))
def test_4t_relators_match_the_oracle(d):
    for key in enum_chord(d):
        for p in range(2 * d):
            if key[2 + p] == (p + 1) % (2 * d):     # p and p+1 are one chord
                with pytest.raises(DiagramError):
                    four_t_terms_oracle(key, p)
                continue
            terms = four_t_terms_oracle(key, p)
            # the before-q placement is the key itself, so it is not keyed
            assert terms[0] == (key, 1)
            assert four_t_relator(key, p) == Relator(f"4t:{key.hex()}:{p}", LinComb(terms))


def mod_1t(r: Relator) -> Relator:
    """r with the terms on keys that have an isolated chord dropped."""
    return Relator(r.rid, LinComb((key, c) for key, c in r.element.items()
                                  if not has_isolated_chord(key[2:])))


@pytest.mark.parametrize("d", range(6))
def test_4t_relators_mod_1t_drop_the_1t_keys(d):
    # the sites four_t_span reads with mod_1t, against the full ones
    basis = enum_chord(d)
    full = list(four_t_sites(basis, False, bytes))
    quotient = list(four_t_sites(basis, True, bytes))
    assert [site[:2] for site in quotient] == [site[:2] for site in full]
    for (key, p, terms), (_, _, kept) in zip(full, quotient):
        assert kept == {t: c for t, c in terms.items() if not has_isolated_chord(t[2:])}, (key, p)


@pytest.mark.parametrize("d", range(7))
def test_4t_relators_mod_1t_match_the_oracle(d):
    want = []
    for key in enum_chord(d):
        for p in range(2 * d):
            if key[2 + p] != (p + 1) % (2 * d):
                terms = [(k, c) for k, c in four_t_terms_oracle(key, p)
                         if not has_isolated_chord(k[2:])]
                want.append(Relator(f"4t:{key.hex()}:{p}", LinComb(terms)))
    basis = enum_chord(d)
    got = [mod_1t(r) for r in four_t_relators(basis)]
    assert got == want
    # every term is the basis's own key object, not a fresh copy
    own = {id(key) for key in basis}
    assert all(id(key) in own for r in got for key in r.element.keys())


def test_1t_relators_mark_isolated_chords():
    basis = enum_chord(3)
    marked = {key for key in basis if has_isolated_chord(key[2:])}
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
    for r in list(stu_relators(basis)) + list(link1_relators(basis)):
        for key, _ in r.element.items():
            assert key in keys


def test_stu_relators_nonempty():
    assert len(list(stu_relators(enum_bounded(2, 2)))) > 0
    assert len(list(link1_relators(enum_bounded(2, 2)))) > 0


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
