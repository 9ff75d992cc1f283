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
    """Restriction of D to the given components (tuples from D.components())."""
    keep = sorted(v for comp in comps for v in comp)
    relabel = {v: i for i, v in enumerate(keep)}
    kept_edges = []
    edge_relabel = {}
    for e in range(D.n_edges):
        u, v = (D.vertex_of(2 * e), D.vertex_of(2 * e + 1))
        if u in relabel:
            edge_relabel[e] = len(kept_edges)
            kept_edges.append((relabel[u], relabel[v]))
    rotations = {}
    for v in keep:
        if D.colors[v] is None:
            rotations[relabel[v]] = tuple(edge_relabel[h // 2] for h in D.incidence[v])
    return build(
        D.k,
        [D.colors[v] for v in keep],
        kept_edges,
        rotations,
    )


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
    out = LinComb.zero()
    for a, ca in x.items():
        for b, cb in y.items():
            out = out + product_keys(a, b).scale(ca * cb)
    return out


# -- coproducts ---------------------------------------------------------------


def coproduct_key(key: bytes) -> LinComb:
    """Sum of left/right splittings as a tensor LinComb."""
    t = _tag(key)
    out = LinComb.zero()
    if t == _CHORD:
        c = ch.chord_from_key(key)
        idx = range(c.d)
        for r in range(c.d + 1):
            for left in itertools.combinations(idx, r):
                right = tuple(i for i in idx if i not in left)
                lk = ch.chord_key(ch.restrict(c, left))
                rk = ch.chord_key(ch.restrict(c, right))
                out = out + LinComb.term((lk, rk))
        return out
    if t == _TAG_UNITRI:
        D = canonical_diagram(key)
        comps = D.components()
        for r in range(len(comps) + 1):
            for left in itertools.combinations(range(len(comps)), r):
                lc = inject(subdiagram(D, [comps[i] for i in left]))
                rc = inject(subdiagram(D, [comps[i] for i in range(len(comps)) if i not in left]))
                for lk, cl in lc.items():
                    for rk, cr in rc.items():
                        out = out + LinComb.term((lk, rk), cl * cr)
        return out
    raise DiagramError(f"no coproduct for key tag {t:#x}")


def coproduct(x: LinComb) -> LinComb:
    out = LinComb.zero()
    for key, coeff in x.items():
        out = out + coproduct_key(key).scale(coeff)
    return out


# -- tensor helpers -----------------------------------------------------------


def tensor(x: LinComb, y: LinComb) -> LinComb:
    """x (x) y as a tensor LinComb."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            out[(a, b)] = out.get((a, b), 0) + ca * cb
    return LinComb(out)


def tensor_product(s: LinComb, t: LinComb) -> LinComb:
    """Componentwise product of tensors: (a (x) b)(c (x) d) = ac (x) bd."""
    out = LinComb.zero()
    for (a, b), cs in s.items():
        for (c, d), ct in t.items():
            left = product_keys(a, c)
            right = product_keys(b, d)
            for lk, cl in left.items():
                for rk, cr in right.items():
                    out = out + LinComb.term((lk, rk), cs * ct * cl * cr)
    return out


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
