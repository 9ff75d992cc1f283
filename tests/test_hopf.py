"""Unit tests for the graded Hopf structure on chord and forest classes.

Core claims:
    - coproducts are coassociative on both diagram kinds
    - units are two-sided identities for the product
    - the coproduct is an algebra map on small exhaustive samples
    - connected diagrams are primitive; the crossed two-chord class needs
      its isolated-chord correction
    - chord products are connect sums, forest products disjoint unions
    - tensor bookkeeping multiplies componentwise and flips cleanly
"""

from fractions import Fraction

import pytest

from linkhom.bases import enum_forests
from linkhom.chords import _TAG_CHORD, chord_key, connect_sum, enum_chord, chord_from_key
from linkhom.diagrams import (
    canonical_diagram,
    canonicalize,
    disjoint_union,
    empty,
    inject,
    segment,
    tripod,
)
from linkhom.hopf import (
    coproduct,
    coproduct_key,
    is_primitive,
    product,
    product_keys,
    tensor,
    tensor_product,
    unit_key,
)
from linkhom.lincomb import LinComb


# -- Helpers -----------------------------------------------------------------

def tensor_flip(s: LinComb) -> LinComb:
    return LinComb({(b, a): c for (a, b), c in s.items()})


def coproduct_left(s: LinComb) -> LinComb:
    """(coproduct (x) id) applied to a tensor."""
    out = LinComb.zero()
    for (a, b), c in s.items():
        for (l, m), cl in coproduct_key(a).items():
            out = out + LinComb.term((l, m, b), c * cl)
    return out


def coproduct_right(s: LinComb) -> LinComb:
    """(id (x) coproduct) applied to a tensor."""
    out = LinComb.zero()
    for (a, b), c in s.items():
        for (m, r), cr in coproduct_key(b).items():
            out = out + LinComb.term((a, m, r), c * cr)
    return out


def is_connected_key(key: bytes) -> bool:
    """Connectivity in the intersection graph (chords) or the diagram itself."""
    if key[0] == _TAG_CHORD:
        c = chord_from_key(key)
        if c.d == 0:
            return False
        chords = c.chords()

        def crossing(x, y):
            (i, j), (a, b) = chords[x], chords[y]
            return (i < a < j) != (i < b < j)

        seen, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for y in range(c.d):
                if y not in seen and crossing(x, y):
                    seen.add(y)
                    todo.append(y)
        return len(seen) == c.d
    return len(canonical_diagram(key).components()) == 1


def _chord_classes(max_d):
    out = []
    for d in range(max_d + 1):
        out.extend(LinComb.term(key) for key in enum_chord(d))
    return out


def _forest_classes(k, max_d):
    out = [LinComb.term(canonicalize(empty(k)).key)]
    for d in range(1, max_d + 1):
        out.extend(LinComb.term(key) for key in enum_forests(k, d))
    return out


# -- Units ----------------------------------------------------------------------

def test_chord_unit_is_identity():
    one = LinComb.term(unit_key(b"\x43"))
    for x in _chord_classes(3):
        assert product(one, x) == x
        assert product(x, one) == x


def test_forest_unit_is_identity():
    key = canonicalize(empty(3)).key
    one = LinComb.term(key)
    assert unit_key(key) == key
    for x in _forest_classes(3, 2):
        assert product(one, x) == x
        assert product(x, one) == x


# -- Products ----------------------------------------------------------------------

def test_chord_product_is_connect_sum():
    a, b = enum_chord(1)[0], enum_chord(2)[0]
    x = product(LinComb.term(a), LinComb.term(b))
    assert x == LinComb.term(chord_key(connect_sum(chord_from_key(a), chord_from_key(b))))


def test_forest_product_is_disjoint_union():
    a, b = segment(1, 2, 3), tripod(1, 2, 3, 3)
    x = product(inject(a), inject(b))
    assert x == inject(disjoint_union(a, b))


def test_forest_product_commutative_small():
    xs = _forest_classes(3, 2)
    for a in xs[:6]:
        for b in xs[:6]:
            assert product(a, b) == product(b, a)


def test_product_rejects_mixed_kinds():
    c = LinComb.term(enum_chord(1)[0])
    f = inject(segment(1, 2, 3))
    with pytest.raises(ValueError):
        product(c, f)


# -- Coproducts ------------------------------------------------------------------------

def test_chord_coproduct_counts_subsets():
    x = coproduct_key(enum_chord(2)[0])
    # 2 chords: 4 subsets
    assert sum(abs(v) for v in dict(x.items()).values()) == 4


def test_forest_coproduct_counts_subsets():
    D = disjoint_union(segment(1, 2, 3), tripod(1, 2, 3, 3))
    x = coproduct_key(canonicalize(D).key)
    assert sum(abs(v) for v in dict(x.items()).values()) == 4


@pytest.mark.parametrize("kind_classes", ["chord", "forest"])
def test_coassociativity(kind_classes):
    xs = _chord_classes(3) if kind_classes == "chord" else _forest_classes(3, 3)
    for x in xs:
        lhs = coproduct_left(coproduct(x))    # (coproduct (x) id) . coproduct
        rhs = coproduct_right(coproduct(x))   # (id (x) coproduct) . coproduct
        assert lhs == rhs


def test_coproduct_is_algebra_map_chords():
    xs = _chord_classes(2)
    for a in xs:
        for b in xs:
            assert coproduct(product(a, b)) == tensor_product(
                coproduct(a), coproduct(b)
            )


def test_coproduct_is_algebra_map_forests():
    xs = _forest_classes(3, 1)
    for a in xs:
        for b in xs:
            assert coproduct(product(a, b)) == tensor_product(
                coproduct(a), coproduct(b)
            )


def test_coproduct_cocommutative_small():
    for x in _chord_classes(3) + _forest_classes(3, 2):
        assert tensor_flip(coproduct(x)) == coproduct(x)


# -- Primitives ---------------------------------------------------------------------------

def test_connected_forests_are_primitive():
    assert is_primitive(inject(segment(1, 2, 3)))
    assert is_primitive(inject(tripod(1, 2, 3, 3)))


def test_disconnected_forest_not_primitive():
    D = disjoint_union(segment(1, 2, 3), segment(1, 3, 3))
    assert not is_primitive(inject(D))


def test_one_chord_not_primitive_without_correction():
    # the single chord is isolated, and its coproduct has no correction here
    assert is_primitive(LinComb.term(enum_chord(1)[0]))


def test_crossed_chord_pair_needs_isolated_correction():
    crossed = next(key for key in enum_chord(2) if is_connected_key(key))
    adjacent = next(key for key in enum_chord(2) if not is_connected_key(key))
    x = LinComb.term(crossed)
    a = LinComb.term(adjacent)
    assert not is_primitive(x)
    assert is_primitive(x - a)


def test_is_connected_key():
    assert is_connected_key(canonicalize(tripod(1, 2, 3, 3)).key)
    D = disjoint_union(segment(1, 2, 3), segment(1, 3, 3))
    assert not is_connected_key(canonicalize(D).key)


# -- Tensor bookkeeping --------------------------------------------------------------------

def test_tensor_product_componentwise():
    a = inject(segment(1, 2, 3))
    b = inject(segment(1, 3, 3))
    t = tensor(a, b)
    assert tensor_product(t, tensor(b, a)) == tensor(product(a, b), product(b, a))


def test_tensor_flip_involution():
    a = inject(segment(1, 2, 3))
    b = inject(tripod(1, 2, 3, 3))
    t = tensor(a, b)
    assert tensor_flip(tensor_flip(t)) == t


def test_tensor_bilinear():
    a = inject(segment(1, 2, 3))
    b = inject(segment(2, 3, 3))
    assert tensor(a.scale(Fraction(2)), b) == tensor(a, b.scale(Fraction(2)))
