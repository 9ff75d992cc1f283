"""Unit tests for basis enumeration: forests, chord diagrams, bounded diagrams.

Core claims:
    - forest counts match a generating-function oracle built from the
      double-factorial count of leaf-labeled trivalent trees
    - the chord basis is the sorted list of least-rotation keys of
      brute-force matchings, and each key's pairing keys to the key again
    - the pruned chord key equals the least pairing over all rotations and
      is invariant under rotation; built as bytes, it equals the tuple-built
      key it replaced (kept here as an oracle) on every matching up to
      d = 5, on the empty pairing, and on list, tuple and bytes input
    - every enumerated basis key rebuilds to a non-boring diagram whose key
      it is, with sign +1
    - split_trees inverts join_trees on every enumerated forest up to
      k = 5, d = 4: its blocks are the representative's trees, each a
      canonical tree, repeated trees included
    - enumeration is deterministic and duplicate-free
    - degree-1 forests are exactly the color pairs
    - the support block on colors 1..m holds exactly the basis elements whose
      legs use those colors, and the recolored blocks count the whole basis
    - every support block at every budget cell has the size of the
      inclusion-exclusion count over its palette, and so do f(6,5) (9371)
      and f(6,6) (78885)
    - the content block of c holds exactly the basis elements with c[j-1]
      legs of color j, for every content vector of the cells up to 4/4 and
      of 5/3
"""

from collections import Counter
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from linkhom.bases import enum_forests, trees_on_colors
from linkhom.bounded import enum_bounded
from linkhom.chords import enum_chord, pairing_key
from linkhom.diagrams import (
    SignedCanonicalKey,
    canonical_diagram,
    canonicalize,
    is_boring,
    join_trees,
    split_trees,
)
from linkhom.errors import DiagramError
from test_diagrams import bounded_from_key, bounded_key


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


def rotate(p, r):
    """The pairing p read from circle point r on."""
    n = len(p)
    return tuple((p[(i + r) % n] - r) % n for i in range(n))


def tuple_pairing_key(p) -> bytes:
    """The tuple-built chord key that pairing_key replaced, kept as its
    oracle: the least rotation among those starting at a point of least
    forward gap, each built as a tuple."""
    n = len(p)
    best = ()
    if n:
        gaps = [(j - i) % n for i, j in enumerate(p)]
        low = min(gaps)
        best = min(rotate(p, r) for r in range(n) if gaps[r] == low)
    return bytes([0x43, n // 2, *best])


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
            (rotate(pairing, r) for r in range(n)),
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


@pytest.mark.parametrize("k,d", [(k, d) for k in range(1, 6) for d in range(5)])
def test_split_trees_inverts_join_trees(k, d):
    for key in enum_forests(k, d):
        trees = split_trees(key)
        assert join_trees(k, [body for _, body in trees]) == key
        # the label blocks are the representative's trees, in block order
        blocks = [tuple(range(off, off + len(body[0]))) for off, body in trees]
        assert tuple(blocks) == canonical_diagram(key).components(), key.hex()
        for _, body in trees:
            tree = join_trees(k, [body])
            assert canonicalize(canonical_diagram(tree)) == SignedCanonicalKey(tree, 1)


def test_split_trees_keeps_repeated_trees():
    segment = ((1, 2), (0, 1))
    (twice,) = [key for key in enum_forests(2, 2) if len(split_trees(key)) == 2]
    assert split_trees(twice) == [(0, segment), (2, segment)]
    (thrice,) = [key for key in enum_forests(2, 3) if len(split_trees(key)) == 3]
    assert split_trees(thrice) == [(0, segment), (2, segment), (4, segment)]
    assert split_trees(enum_forests(3, 0)[0]) == []


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


@pytest.mark.parametrize("colors, k", [((1, 1, 2), 2), ((1, 2, 5), 4), ((0, 1, 2), 2)],
                         ids=["repeated", "above-k", "zero"])
def test_trees_on_colors_rejects_colors_that_are_not_distinct_in_1_to_k(colors, k):
    with pytest.raises(DiagramError):
        trees_on_colors(colors, k)


@pytest.mark.parametrize("colors", [(1,), ()], ids=["one", "none"])
def test_trees_on_colors_needs_two_legs(colors):
    with pytest.raises(ValueError):
        trees_on_colors(colors, 2)


def test_trees_on_colors_takes_colors_in_any_order():
    assert trees_on_colors((2, 1, 3), 3) == trees_on_colors((1, 2, 3), 3)
    assert len(trees_on_colors((2, 1, 3), 3)) == 1


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


def _block_count_oracle(m, d):
    """Forests of degree d whose legs use exactly the colors 1..m: the
    forests on j colors by the generating function, with the palettes
    that leave a color bare taken off by inclusion-exclusion."""
    return sum((-1) ** (m - j) * comb(m, j) * _forest_count_oracle(j, d) for j in range(m + 1))


BUDGET_CELLS = [(k, d) for k in range(1, 6) for d in range(4)] + [(k, 4) for k in range(1, 5)]


@pytest.mark.parametrize("k,d", BUDGET_CELLS)
def test_support_block_sizes_match_the_inclusion_exclusion_count(k, d):
    for m in range(min(k, 2 * d) + 1):
        got, want = len(enum_forests(k, d, m)), _block_count_oracle(m, d)
        assert got == want, f"f({m},{d}): {got} keys, count {want}"


@pytest.mark.parametrize("m,d,count", [(6, 5, 9371), (6, 6, 78885)])
def test_large_support_block_sizes(m, d, count):
    assert _block_count_oracle(m, d) == count
    assert len(enum_forests(m, d, m)) == count, f"f({m},{d})"


def _content(key, k):
    """The number of legs of each color 1..k of a forest key."""
    counts = Counter(key[4:4 + key[2]])
    return tuple(counts[c] for c in range(1, k + 1))


@pytest.mark.parametrize("k,d", [(k, d) for k in range(1, 5) for d in range(5)] + [(5, 3)])
def test_content_blocks_partition_the_basis(k, d):
    groups = {}
    for key in enum_forests(k, d):
        groups.setdefault(_content(key, k), []).append(key)
    for content in product(range(d + 1), repeat=k):
        assert enum_forests(k, d, content=content) == groups.get(content, []), (k, d, content)
        # a content shorter than k leaves the colors past it bare
        short = content[:-1] if content[-1] == 0 else None
        if short is not None:
            assert enum_forests(k, d, content=short) == groups.get(content, []), (k, d, short)


def test_content_and_support_are_exclusive():
    with pytest.raises(ValueError):
        enum_forests(3, 2, 2, content=(1, 1))
    with pytest.raises(ValueError):
        enum_forests(2, 2, content=(1, 1, 1))


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
        assert pairing_key(key[2:]) == key


@pytest.mark.parametrize("d", range(6))
def test_pairing_key_matches_the_tuple_oracle_on_every_matching(d):
    for m in _matchings(tuple(range(2 * d))):
        pairing = [0] * (2 * d)
        for a, b in m:
            pairing[a], pairing[b] = b, a
        want = tuple_pairing_key(pairing)
        assert pairing_key(pairing) == pairing_key(tuple(pairing)) == want
        assert pairing_key(bytes(pairing)) == want


def test_pairing_key_of_the_empty_pairing():
    assert pairing_key(()) == pairing_key([]) == tuple_pairing_key(()) == bytes([0x43, 0])


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
    return tuple(pairing)


@given(_pairings())
@settings(max_examples=200, deadline=None)
def test_chord_key_is_least_rotation(p):
    n = len(p)
    best = min(rotate(p, r) for r in range(n)) if n else ()
    key = pairing_key(p)
    assert key == bytes([0x43, n // 2, *best])
    for r in range(n):
        assert pairing_key(rotate(p, r)) == key


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
        assert bounded_key(B.graph, B.order) == SignedCanonicalKey(key, 1)


def test_bounded_enumeration_deterministic():
    a = enum_bounded(3, 2)
    b = enum_bounded(3, 2)
    assert a == b
