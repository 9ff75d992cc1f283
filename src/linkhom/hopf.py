"""Product, coproduct, and primitivity for chord and forest classes.

Both graded products live on LinComb elements and dispatch on the key tag:
chord classes multiply by splicing circles, forest classes by disjoint union.
Coproducts sum over splittings, of the chord set in one case and of the
diagram components in the other.  Tensors are LinCombs keyed by (left, right)
key pairs.
"""

from __future__ import annotations

import itertools

from . import chords as ch
from .diagrams import Diagram, build, canonical_diagram, disjoint_union, inject
from .diagrams import _TAG_UNITRI
from .errors import DiagramError
from .lincomb import LinComb

_CHORD = ch._TAG_CHORD


def _tag(key: bytes) -> int:
    if not key:
        raise DiagramError("empty key")
    return key[0]


def subdiagram(D: Diagram, comps) -> Diagram:
    """Restriction of D to the given components (tuples from D.components()):
    kept vertices and edges are renumbered in order, and half-edge 2e + b
    becomes 2 * new(e) + b."""
    keep = sorted(v for comp in comps for v in comp)
    new = {e: i for i, e in enumerate(sorted({h // 2 for v in keep for h in D.incidence[v]}))}
    return Diagram._assemble(D.k, tuple(D.colors[v] for v in keep), tuple(
        tuple(2 * new[h // 2] + h % 2 for h in D.incidence[v]) for v in keep))


def _splits(n: int):
    """Every (left, right) split of range(n) into two index tuples."""
    for r in range(n + 1):
        for left in itertools.combinations(range(n), r):
            yield left, tuple(i for i in range(n) if i not in left)


# -- products -----------------------------------------------------------------


def product_keys(a: bytes, b: bytes) -> LinComb:
    ta, tb = _tag(a), _tag(b)
    if ta != tb:
        raise DiagramError("cannot multiply classes of different kinds")
    if ta == _CHORD:
        c = ch.connect_sum(ch.chord_from_key(a), ch.chord_from_key(b))
        return ch.inject_chord(c)
    if ta == _TAG_UNITRI:
        D = disjoint_union(canonical_diagram(a), canonical_diagram(b))
        return inject(D)
    raise DiagramError(f"no product for key tag {ta:#x}")


def product(x: LinComb, y: LinComb) -> LinComb:
    return LinComb((key, ca * cb * c) for a, ca in x.items() for b, cb in y.items()
                   for key, c in product_keys(a, b).items())


# -- coproducts ---------------------------------------------------------------


def coproduct_key(key: bytes) -> LinComb:
    """Sum of left/right splittings as a tensor LinComb."""
    t = _tag(key)
    if t == _CHORD:
        c = ch.chord_from_key(key)
        n = c.d

        def part(index):
            return LinComb.term(ch.chord_key(ch.restrict(c, index)))
    elif t == _TAG_UNITRI:
        D = canonical_diagram(key)
        comps = D.components()
        n = len(comps)

        def part(index):
            return inject(subdiagram(D, [comps[i] for i in index]))
    else:
        raise DiagramError(f"no coproduct for key tag {t:#x}")
    return LinComb(term for left, right in _splits(n)
                   for term in tensor(part(left), part(right)).items())


def coproduct(x: LinComb) -> LinComb:
    return LinComb((pair, coeff * c) for key, coeff in x.items()
                   for pair, c in coproduct_key(key).items())


# -- tensor helpers -----------------------------------------------------------


def tensor(x: LinComb, y: LinComb) -> LinComb:
    """x (x) y as a tensor LinComb."""
    return LinComb(((a, b), ca * cb) for a, ca in x.items() for b, cb in y.items())


def tensor_product(s: LinComb, t: LinComb) -> LinComb:
    """Componentwise product of tensors: (a (x) b)(c (x) d) = ac (x) bd."""
    return LinComb((pair, cs * ct * cp) for (a, b), cs in s.items() for (c, d), ct in t.items()
                   for pair, cp in tensor(product_keys(a, c), product_keys(b, d)).items())


# -- primitivity --------------------------------------------------------------


def unit_key(kind: bytes) -> bytes:
    """Key of the empty class of the same kind as the given key."""
    if _tag(kind) == _CHORD:
        return ch.chord_key(ch.ChordDiagram(()))
    if _tag(kind) == _TAG_UNITRI:
        k = kind[1]
        sk = inject(build(k, [], []))
        return sk.keys()[0]
    raise DiagramError(f"no unit for key tag {kind[0]:#x}")


def is_primitive(x: LinComb) -> bool:
    """True when coproduct(x) = x (x) 1 + 1 (x) x."""
    if x.is_zero():
        return True
    kind = x.keys()[0]
    one = LinComb.term(unit_key(kind))
    want = tensor(x, one) + tensor(one, x)
    return coproduct(x) == want
