"""Unit tests for basis enumeration: forests, chord diagrams, bounded diagrams.

Core claims:
    - forest counts match a generating-function oracle built from the
      double-factorial count of leaf-labeled trivalent trees
    - the chord basis is the sorted list of least-rotation keys of
      brute-force matchings, and each key rebuilds to a diagram keyed by it
    - the pruned chord key equals the least pairing over all rotations and
      is invariant under rotation
    - every enumerated basis key rebuilds to a non-boring diagram whose key
      it is, with sign +1
    - enumeration is deterministic and duplicate-free
    - degree-1 forests are exactly the color pairs
    - the support block on colors 1..m holds exactly the basis elements whose
      legs use those colors, and the recolored blocks count the whole basis
"""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from linkhom.bases import enum_forests, trees_on_colors
from linkhom.bounded import bounded_from_key, bounded_key, enum_bounded
from linkhom.chords import ChordDiagram, chord_from_key, chord_key, enum_chord, rotate
from linkhom.diagrams import SignedCanonicalKey, canonical_diagram, canonicalize, is_boring


# -- Oracles -------------------------------------------------------------------

def _tree_types(m):
    """Trivalent trees with m labeled leaves: 1 for m=2, (2m-5)!! after."""
    if m == 2:
        return 1
    out = 1
    for x in range(3, 2 * m - 4, 2):
        out *= x
    return out


def _forest_count_oracle(k, d):
    """Coefficient of x^d in prod_n (1 - x^n)^(-T_n) with T_n tree types."""
    T = {n: comb(k, n + 1) * _tree_types(n + 1) for n in range(1, d + 1)}
    coeffs = [1] + [0] * d
    for n, t in T.items():
        if t == 0:
            continue
        new = [0] * (d + 1)
        for base, c in enumerate(coeffs):
            if c == 0:
                continue
            mult = 0
            while base + mult * n <= d:
                new[base + mult * n] += c * comb(t + mult - 1, mult)
                mult += 1
        coeffs = new
    return coeffs[d]


def _matchings(points):
    if not points:
        yield ()
        return
    a = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1:]
        for m in _matchings(rest):
            yield ((a, points[i]),) + m


def _chord_keys_oracle(d):
    """Keys of the perfect matchings on 2d circle points modulo rotation, by
    brute force: the tag, d, then the least pairing over every rotation."""
    n = 2 * d
    seen = set()
    for m in _matchings(tuple(range(n))):
        pairing = [0] * n
        for a, b in m:
            pairing[a], pairing[b] = b, a
        best = min(
            (tuple((pairing[(i + r) % n] - r) % n for i in range(n)) for r in range(n)),
            default=(),
        )
        seen.add(bytes([0x43, d, *best]))
    return sorted(seen)


# -- Forests -------------------------------------------------------------------

@pytest.mark.parametrize("k,d", [(2, 1), (3, 1), (3, 2), (3, 3), (4, 2),
                                 (4, 3), (5, 2), (5, 3), (4, 4)])
def test_forest_counts_match_gf_oracle(k, d):
    assert len(enum_forests(k, d)) == _forest_count_oracle(k, d)


def test_known_forest_counts():
    assert len(enum_forests(2, 1)) == 1
    assert len(enum_forests(3, 2)) == 7
    assert len(enum_forests(3, 3)) == 13
    assert len(enum_forests(4, 3)) == 83
    assert len(enum_forests(5, 3)) == 335
    assert len(enum_forests(4, 4)) == 238


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_degree_one_forests_are_color_pairs(k):
    assert len(enum_forests(k, 1)) == k * (k - 1) // 2


@pytest.mark.parametrize("k,d", [(k, d) for k in range(1, 6) for d in range(5)])
def test_forest_keys_round_trip_with_sign_plus_one(k, d):
    # the enumerator joins keys from tree keys without building the forest;
    # rebuilding and canonicalizing each one must give it back with sign +1
    keys = enum_forests(k, d)
    assert keys == sorted(keys)
    for key in keys:
        D = canonical_diagram(key)
        assert not is_boring(D)
        assert canonicalize(D) == SignedCanonicalKey(key, 1)


def test_forest_keys_distinct():
    keys = enum_forests(4, 3)
    assert len(keys) == len(set(keys))


def test_forest_enumeration_deterministic():
    a = enum_forests(3, 3)
    b = enum_forests(3, 3)
    assert a == b


def test_trees_on_colors_double_factorial():
    assert len(trees_on_colors((1, 2), 2)) == 1
    assert len(trees_on_colors((1, 2, 3), 3)) == 1
    assert len(trees_on_colors((1, 2, 3, 4), 4)) == 3
    assert len(trees_on_colors((1, 2, 3, 4, 5), 5)) == 15


def test_components_have_distinct_colors():
    for key in enum_forests(4, 4):
        D = canonical_diagram(key)
        for comp in D.components():
            legs = [D.colors[v] for v in comp if D.colors[v] is not None]
            assert len(legs) == len(set(legs))


def _leg_colors(key):
    """The leg colors a forest key uses."""
    return {c for c in key[4:4 + key[2]] if c}


def _segments(key):
    """The segments a bounded key's legs lie on; slot color p*k + s is on s."""
    k = key[1]
    return {(c - 1) % k + 1 for c in _leg_colors(key[2:])}


@pytest.mark.parametrize("enum, support, cells", [
    (enum_forests, _leg_colors, [(k, d) for k in range(1, 6) for d in range(5)]),
    (enum_bounded, _segments, [(k, d) for k in range(1, 5) for d in range(4)]),
], ids=["forests", "bounded"])
def test_support_blocks_partition_the_basis(enum, support, cells):
    for k, d in cells:
        whole = enum(k, d)
        total = 0
        for m in range(k + 1):
            block = enum(k, d, m)
            assert block == [key for key in whole if support(key) == set(range(1, m + 1))], \
                (k, d, m)
            total += comb(k, m) * len(block)
        assert total == len(whole), (k, d)


# -- Chord diagrams ---------------------------------------------------------------

@pytest.mark.parametrize("d,count", [(1, 1), (2, 2), (3, 5), (4, 18), (5, 105)])
def test_chord_counts(d, count):
    assert len(enum_chord(d)) == count


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_chord_counts_match_matching_oracle(d):
    assert len(enum_chord(d)) == len(_chord_keys_oracle(d))


@pytest.mark.parametrize("d", range(7))
def test_chord_basis_is_the_sorted_least_rotation_keys(d):
    keys = enum_chord(d)
    assert keys == _chord_keys_oracle(d)
    for key in keys:
        assert chord_key(chord_from_key(key)) == key


def test_chord_keys_distinct_and_stable():
    for d in (2, 3, 4):
        keys = enum_chord(d)
        assert all(type(key) is bytes for key in keys)
        assert keys == sorted(set(keys))
        assert keys == enum_chord(d)


@st.composite
def _pairings(draw):
    d = draw(st.integers(min_value=0, max_value=9))
    points = draw(st.permutations(range(2 * d)))
    pairing = [0] * (2 * d)
    for a, b in zip(points[::2], points[1::2]):
        pairing[a], pairing[b] = b, a
    return ChordDiagram(tuple(pairing))


@given(_pairings())
@settings(max_examples=200, deadline=None)
def test_chord_key_is_least_rotation(c):
    n = len(c.pairing)
    best = min(rotate(c, r).pairing for r in range(n)) if n else ()
    key = chord_key(c)
    assert key == bytes([0x43, c.d, *best])
    for r in range(n):
        assert chord_key(rotate(c, r)) == key


def test_empty_chord_diagram():
    assert len(enum_chord(0)) == 1


# -- Bounded diagrams ----------------------------------------------------------------

def test_bounded_counts_small():
    # one segment between distinct strands, both orders coincide by symmetry
    assert len(enum_bounded(2, 1)) == 1
    # degree-2 bounded classes at k=2 and k=3 are stable reference values
    assert len(enum_bounded(2, 2)) == 2
    assert len(enum_bounded(3, 2)) == 13


@pytest.mark.parametrize("k,d", [(k, d) for k in range(1, 5) for d in range(4)])
def test_bounded_keys_round_trip_with_sign_plus_one(k, d):
    keys = enum_bounded(k, d)
    assert keys == sorted(keys)
    for key in keys:
        B = bounded_from_key(key)
        assert B.k == k
        assert B.graph.degree() == d
        assert not is_boring(B.graph)
        assert bounded_key(B) == SignedCanonicalKey(key, 1)


def test_bounded_enumeration_deterministic():
    a = enum_bounded(3, 2)
    b = enum_bounded(3, 2)
    assert a == b
