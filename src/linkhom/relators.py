"""Relator generation for the diagram spaces.

Every relator is a linear combination of canonical keys together with a
stable id.  Relators are generated from canonical basis representatives and
each id carries the hex key of its basis element, so ids are reproducible
across runs; elements may be zero (kept in the list, dropped when building
matrices).  Coefficients are the ints +-1 (summed where terms meet).  The
terms are built from parts known to be valid: derived diagrams skip
re-validation, a graft known to be boring is not built, and the base term
of IHX, STU and link1 is the basis key itself, with sign +1.

Sign conventions: IHX is I - H + X with both rotations normalized to start
with the internal edge (the exchange pattern follows the Jacobi identity);
STU is S - T + U with S the grafted term and T the original leg order; the
grafted vertex rotation is (stem of the first leg, stem of the second, new
leg) everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounded as bnd
from . import chords as ch
from .diagrams import Diagram, forest_key, graft_with_map, representative
from .errors import DiagramError
from .lincomb import LinComb


@dataclass(frozen=True)
class Relator:
    rid: str
    element: LinComb


_ZERO = LinComb.zero()


def _add(terms: dict, sk, c: int = 1) -> None:
    """Add c times the signed key sk to the integer combination terms."""
    s = terms.get(sk.key, 0) + c * sk.sign
    if s:
        terms[sk.key] = s
    else:
        del terms[sk.key]


def _element(terms: dict) -> LinComb:
    return LinComb.of_terms(terms) if terms else _ZERO


def _trees(D: Diagram):
    """The tree index of each vertex of a forest, each tree's leg colors as
    a bitmask, and the legs of each color."""
    tree_of, masks, legs = [0] * D.n, [], {}
    for t, comp in enumerate(D.components()):
        mask = 0
        for v in comp:
            tree_of[v] = t
            c = D.colors[v]
            if c is not None:
                mask |= 1 << c
                legs.setdefault(c, []).append(v)
        masks.append(mask)
    return tree_of, masks, legs


def _interesting_graft(trees, u: int, w: int, color: int) -> bool:
    """Whether grafting the legs u and w of this color keeps a forest whose
    trees have distinct leg colors, so that the graft is not boring.  Two
    legs of one color lie in two trees, which the graft joins; the result
    repeats a color exactly when those trees share one besides this."""
    tree_of, masks, _ = trees
    return masks[tree_of[u]] & masks[tree_of[w]] == 1 << color


# -- the link relation ---------------------------------------------------------


def star_relator(E: Diagram, u: int, key: bytes, trees=None) -> Relator:
    """Link relation at a distinguished leg: the sum of grafting u onto every
    other leg of its color vanishes in the homotopy quotient.  E is a forest
    whose trees have distinct leg colors and key its canonical key, which the
    relator id carries; trees is _trees(E) when the caller has it.  A graft
    that would be boring is 0 and is not built, so a leg whose color no other
    leg has gets the zero element at once."""
    color = E.colors[u]
    if color is None:
        raise DiagramError(f"vertex {u} is not a leg")
    trees = trees or _trees(E)
    terms = {}
    for w in trees[2][color]:
        if w != u and _interesting_graft(trees, u, w, color):
            _add(terms, forest_key(graft_with_map(E, u, w)[0]))
    return Relator(f"star:{key.hex()}:{u}", _element(terms))


def star_relators(basis) -> list:
    """Star relators for every (diagram, leg) over a forest basis."""
    out = []
    for key in basis:
        E = representative(key)
        trees = _trees(E)
        for u, _ in E.legs():
            out.append(star_relator(E, u, key, trees))
    return out


# -- IHX ---------------------------------------------------------------------


def _rotate_to_front(rot, h):
    i = rot.index(h)
    return rot[i:] + rot[:i]


def _with_rotations(D: Diagram, x, rot_x, y, rot_y) -> Diagram:
    """D with new rotations at its adjacent internal vertices x and y, which
    trade half-edges but keep the components."""
    inc = list(D.incidence)
    inc[x], inc[y] = tuple(rot_x), tuple(rot_y)
    return Diagram._assemble(D.k, D.colors, tuple(inc), D.components())


def internal_edges(D: Diagram) -> list:
    return [
        e
        for e in range(D.n_edges)
        if D.colors[D.edge_ends(e)[0]] is None and D.colors[D.edge_ends(e)[1]] is None
    ]


def ihx_relator(D: Diagram, e: int, key: bytes) -> Relator:
    """Three-term exchange at an internal edge, I - H + X.  D is the canonical
    representative of the forest key, so I is key with sign +1; H and X are
    trees on the same legs, never boring."""
    h, hp = 2 * e, 2 * e + 1
    x, y = D.vertex_of(h), D.vertex_of(hp)
    if D.colors[x] is not None or D.colors[y] is not None or x == y:
        raise DiagramError(f"edge {e} is not internal")
    _, a1, a2 = _rotate_to_front(D.incidence[x], h)
    _, b1, b2 = _rotate_to_front(D.incidence[y], hp)
    terms = {key: 1}
    _add(terms, forest_key(_with_rotations(D, x, (h, a1, b1), y, (hp, a2, b2))), -1)
    _add(terms, forest_key(_with_rotations(D, x, (h, a2, b1), y, (hp, a1, b2))))
    return Relator(f"ihx:{key.hex()}:{e}", _element(terms))


def ihx_relators(basis) -> list:
    out = []
    for key in basis:
        D = representative(key)
        for e in internal_edges(D):
            out.append(ihx_relator(D, e, key))
    return out


# -- STU and the bounded link relation ----------------------------------------


def stu_relator(B: bnd.BoundedDiagram, s: int, p: int, key: bytes, trees=None) -> Relator:
    """S - T + U at adjacent leg positions p, p+1 on segment s.  B is the
    representative of the bounded key, so T is key with sign +1; U has B's
    graph, and S is built only when it is not boring.  trees is
    _trees(B.graph) when the caller has it."""
    terms = {key: -1}
    _add(terms, bnd.bounded_key(bnd.swap_adjacent_legs(B, s, p)))
    seg = B.order[s - 1]
    if _interesting_graft(trees or _trees(B.graph), seg[p], seg[p + 1], s):
        _add(terms, bnd.bounded_key(bnd.graft_adjacent_legs(B, s, p)))
    return Relator(f"stu:{key.hex()}:{s}:{p}", _element(terms))


def stu_relators(basis) -> list:
    out = []
    for key in basis:
        B = bnd.bounded_from_key(key)
        trees = _trees(B.graph)
        for s in range(1, B.k + 1):
            for p in range(len(B.order[s - 1]) - 1):
                out.append(stu_relator(B, s, p, key, trees))
    return out


def link1_relator(B: bnd.BoundedDiagram, s: int, key: bytes) -> Relator:
    """Cycling the top leg of segment s to the bottom minus the original; key
    and B as for stu_relator."""
    terms = {key: -1}
    _add(terms, bnd.bounded_key(bnd.cycle_segment(B, s)))
    return Relator(f"link1:{key.hex()}:{s}", _element(terms))


def link1_relators(basis) -> list:
    out = []
    for key in basis:
        B = bnd.bounded_from_key(key)
        for s in range(1, B.k + 1):
            if B.order[s - 1]:
                out.append(link1_relator(B, s, key))
    return out


# -- chord relations ----------------------------------------------------------


def one_t_relators(basis) -> list:
    """Diagrams with an isolated chord are themselves relators; basis is a
    list of chord keys."""
    return [Relator(f"1t:{key.hex()}", LinComb.term(key))
            for key in basis if ch.has_isolated_chord(key[2:])]


def four_t_relator(key: bytes, p: int) -> Relator:
    """Four-term relation at the adjacent endpoint pair (p, p+1) of the chord
    diagram with this canonical key.

    The endpoint at p hops across the near end q = p+1 of the other chord and
    across its far end r, and the four placements cancel:
    (before q) - (after q) + (before r) - (after r) = 0.
    """
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
            terms.append((ch.pairing_key(tuple(at[pairing[x]] for x in order)), sign))
    return Relator(f"4t:{key.hex()}:{p}", LinComb(terms))


def four_t_relators(basis) -> list:
    """Four-term relators at every endpoint not on an isolated chord; basis
    is a list of chord keys."""
    out = []
    for key in basis:
        pairing = key[2:]
        n = len(pairing)
        out.extend(four_t_relator(key, p) for p in range(n) if pairing[p] != (p + 1) % n)
    return out


# -- counting ------------------------------------------------------------------


def count_segments(D: Diagram, i: int, j: int) -> int:
    """Number of components that are single segments colored {i, j}."""
    if i == j:
        raise DiagramError("segment colors must differ")
    want = {i, j}
    total = 0
    for comp in D.components():
        if len(comp) == 2 and {D.colors[v] for v in comp} == want:
            total += 1
    return total
