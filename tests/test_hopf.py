"""Unit tests for the graded Hopf structure on chord and forest classes.

Core claims:
    - coproducts are coassociative on both diagram kinds
    - units are two-sided identities for the product
    - the coproduct is an algebra map on small exhaustive samples
    - connected diagrams are primitive; the crossed two-chord class needs
      its isolated-chord correction
    - chord products are connect sums, forest products disjoint unions
    - forest products join tree bodies and forest coproducts split the set
      of trees; both equal the whole-diagram oracle kept here (disjoint
      union of rebuilt representatives, restriction to components, each
      part keyed again) on every pair of k = 3 forests of total degree <= 4,
      and equal trees split with multiplicity
    - a product of forests with different k, of mixed kinds, or with an
      empty key raises DiagramError
    - tensor bookkeeping multiplies componentwise and flips cleanly
    - tensor_product splits each forest key of its two tensors once, and
      gives the sum of the pairwise products of the tensor factors
"""

import itertools
from fractions import Fraction

import pytest

from linkhom.bases import enum_forests
from linkhom.chords import _TAG_CHORD, enum_chord, pairing_key
from linkhom.diagrams import (
    Diagram,
    canonical_diagram,
    canonicalize,
    empty,
    inject,
    segment,
    split_trees,
    tripod,
)
from linkhom import hopf
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
from linkhom.errors import DiagramError
from linkhom.lincomb import LinComb
from test_diagrams import disjoint_union


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
        d, p = key[1], key[2:]
        if d == 0:
            return False
        chords = [(i, j) for i, j in enumerate(p) if i < j]

        def crossing(x, y):
            (i, j), (a, b) = chords[x], chords[y]
            return (i < a < j) != (i < b < j)

        seen, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for y in range(d):
                if y not in seen and crossing(x, y):
                    seen.add(y)
                    todo.append(y)
        return len(seen) == d
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


# -- Whole-diagram oracle -------------------------------------------------------

def subdiagram(D: Diagram, comps) -> Diagram:
    """Restriction of D to the given components (tuples from D.components()):
    kept vertices and edges are renumbered in order, and half-edge 2e + b
    becomes 2 * new(e) + b."""
    keep = sorted(v for comp in comps for v in comp)
    new = {e: i for i, e in enumerate(sorted({h // 2 for v in keep for h in D.incidence[v]}))}
    return Diagram(D.k, tuple(D.colors[v] for v in keep), tuple(
        tuple(2 * new[h // 2] + h % 2 for h in D.incidence[v]) for v in keep))


def oracle_product(a: bytes, b: bytes) -> LinComb:
    """The product of two forest keys: the disjoint union of their
    representatives, keyed again."""
    return inject(disjoint_union(canonical_diagram(a), canonical_diagram(b)))


def oracle_coproduct(key: bytes) -> LinComb:
    """The coproduct of a forest key: every split of the representative's
    components into two subdiagrams, each keyed again."""
    D = canonical_diagram(key)
    comps = D.components()
    out = LinComb.zero()
    for r in range(len(comps) + 1):
        for left in itertools.combinations(comps, r):
            right = [c for c in comps if c not in left]
            out = out + tensor(inject(subdiagram(D, left)), inject(subdiagram(D, right)))
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
    # splice the pairings: b's points follow a's on one circle
    pa, pb = a[2:], b[2:]
    assert x == LinComb.term(pairing_key(pa + bytes(j + len(pa) for j in pb)))


def test_forest_product_is_disjoint_union():
    a, b = segment(1, 2, 3), tripod(1, 2, 3, 3)
    x = product(inject(a), inject(b))
    assert x == inject(disjoint_union(a, b))


def test_forest_product_and_coproduct_match_the_whole_diagram_oracle():
    by_degree = {d: enum_forests(3, d) for d in range(5)}
    assert by_degree[0] == [unit_key(by_degree[1][0])]
    pairs = 0
    for d1, left in by_degree.items():
        for d2, right in by_degree.items():
            if d1 + d2 > 4:
                continue
            for a in left:
                for b in right:
                    x = product_keys(a, b)
                    assert x == oracle_product(a, b), (a.hex(), b.hex())
                    (key,) = x.keys()
                    assert coproduct_key(key) == oracle_coproduct(key), key.hex()
                    pairs += 1
    assert pairs == 269


def test_equal_trees_split_with_multiplicity():
    seg = canonicalize(segment(1, 2, 3)).key
    key = canonicalize(disjoint_union(segment(1, 2, 3), segment(1, 2, 3))).key
    assert product_keys(seg, seg) == LinComb.term(key)
    one = unit_key(key)
    x = coproduct_key(key)
    assert x == oracle_coproduct(key)
    assert dict(x.items()) == {(one, key): 1, (seg, seg): 2, (key, one): 1}


def test_forest_product_rejects_different_k():
    a, b = canonicalize(segment(1, 2, 2)).key, canonicalize(segment(1, 2, 3)).key
    with pytest.raises(DiagramError):
        product(LinComb.term(a), LinComb.term(b))


def test_empty_key_raises():
    f = canonicalize(segment(1, 2, 3)).key
    for call in (lambda: product_keys(b"", f), lambda: product_keys(f, b""),
                 lambda: coproduct_key(b""), lambda: unit_key(b"")):
        with pytest.raises(DiagramError):
            call()


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


def test_tensor_product_splits_each_forest_key_once(monkeypatch):
    keys = enum_forests(3, 2) + enum_forests(3, 1)
    s, t = coproduct(LinComb.term(keys[0])), coproduct(LinComb.term(keys[-1]) + LinComb.term(keys[3]))
    want = LinComb.zero()
    for (a, b), cs in s.items():
        for (c, d), ct in t.items():
            want = want + tensor(product_keys(a, c), product_keys(b, d)).scale(cs * ct)
    split = []
    monkeypatch.setattr(hopf, "split_trees", lambda key: split.append(key) or split_trees(key))
    assert tensor_product(s, t) == want
    assert sorted(split) == sorted({key for x in (s, t) for pair, _ in x.items() for key in pair})


def test_tensor_flip_involution():
    a = inject(segment(1, 2, 3))
    b = inject(tripod(1, 2, 3, 3))
    t = tensor(a, b)
    assert tensor_flip(tensor_flip(t)) == t


def test_tensor_bilinear():
    a = inject(segment(1, 2, 3))
    b = inject(segment(2, 3, 3))
    assert tensor(a.scale(Fraction(2)), b) == tensor(a, b.scale(Fraction(2)))
