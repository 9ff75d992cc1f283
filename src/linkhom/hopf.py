"""Product, coproduct, and primitivity for chord and forest classes.

Products dispatch on the key tag: chord keys multiply by splicing circles
(chords.connect_sum), forests by disjoint union, which joins their tree
bodies.  Coproducts sum over splittings of the chords of a key's pairing, or
of the trees split_trees reads off a forest key.  A chord product depends on
where each circle is cut, so the chord laws hold modulo 4T, not on keys; the
forest laws hold on keys.  Tensors are LinCombs keyed by (left, right) key
pairs, with int coefficients.  The operations take keys this library made
and do not validate them; no CLI path hands them a key read from a document.
"""

from __future__ import annotations

import itertools

from . import chords as ch
from .diagrams import _TAG_UNITRI, join_trees, split_trees
from .errors import DiagramError
from .lincomb import LinComb

_CHORD = ch._TAG_CHORD


def _tag(key: bytes) -> int:
    if not key:
        raise DiagramError("empty key")
    return key[0]


def _splits(n: int):
    """Every (left, right) split of range(n) into two index tuples."""
    for r in range(n + 1):
        for left in itertools.combinations(range(n), r):
            yield left, tuple(i for i in range(n) if i not in left)


# -- products -----------------------------------------------------------------


def _trees(key: bytes, split: dict) -> list:
    """The tree bodies of a forest key, read once per dict split."""
    if (bodies := split.get(key)) is None:
        bodies = split[key] = [body for _, body in split_trees(key)]
    return bodies


def product_keys(a: bytes, b: bytes, split=None) -> LinComb:
    """The product of two keys; a caller that multiplies the same forest
    keys again passes one dict split, which keeps each key's trees."""
    ta, tb = _tag(a), _tag(b)
    if ta != tb:
        raise DiagramError("cannot multiply classes of different kinds")
    if ta == _CHORD:
        return LinComb({ch.connect_sum(a, b): 1})
    if ta == _TAG_UNITRI:
        if a[1] != b[1]:
            raise DiagramError("disjoint union needs equal k")
        split = {} if split is None else split
        return LinComb({join_trees(a[1], _trees(a, split) + _trees(b, split)): 1})
    raise DiagramError(f"no product for key tag {ta:#x}")


def product(x: LinComb, y: LinComb) -> LinComb:
    return LinComb((key, ca * cb * c) for a, ca in x.items() for b, cb in y.items()
                   for key, c in product_keys(a, b).items())


# -- coproducts ---------------------------------------------------------------


def coproduct_key(key: bytes) -> LinComb:
    """Sum of left/right splittings of the chords or of the trees, as a
    tensor LinComb; splits that swap equal trees add up."""
    t = _tag(key)
    if t == _CHORD:
        n = key[1]

        def part(index):
            return ch.restrict(key, index)
    elif t == _TAG_UNITRI:
        bodies = [body for _, body in split_trees(key)]
        n = len(bodies)

        def part(index):
            return join_trees(key[1], [bodies[i] for i in index])
    else:
        raise DiagramError(f"no coproduct for key tag {t:#x}")
    return LinComb(((part(left), part(right)), 1) for left, right in _splits(n))


def coproduct(x: LinComb) -> LinComb:
    return LinComb((pair, coeff * c) for key, coeff in x.items()
                   for pair, c in coproduct_key(key).items())


# -- tensor helpers -----------------------------------------------------------


def tensor(x: LinComb, y: LinComb) -> LinComb:
    """x (x) y as a tensor LinComb."""
    return LinComb(((a, b), ca * cb) for a, ca in x.items() for b, cb in y.items())


def tensor_product(s: LinComb, t: LinComb) -> LinComb:
    """Componentwise product of tensors: (a (x) b)(c (x) d) = ac (x) bd.
    Each forest key is split into its trees once per call."""
    split = {}
    return LinComb((pair, cs * ct * cp) for (a, b), cs in s.items() for (c, d), ct in t.items()
                   for pair, cp in tensor(product_keys(a, c, split),
                                          product_keys(b, d, split)).items())


# -- primitivity --------------------------------------------------------------


def unit_key(kind: bytes) -> bytes:
    """Key of the empty class of the same kind as the given key."""
    if _tag(kind) == _CHORD:
        return ch.pairing_key(())
    if _tag(kind) == _TAG_UNITRI:
        return join_trees(kind[1], [])
    raise DiagramError(f"no unit for key tag {kind[0]:#x}")


def is_primitive(x: LinComb) -> bool:
    """True when coproduct(x) = x (x) 1 + 1 (x) x."""
    if x.is_zero():
        return True
    one = LinComb({unit_key(x.keys()[0]): 1})
    return coproduct(x) == tensor(x, one) + tensor(one, x)
