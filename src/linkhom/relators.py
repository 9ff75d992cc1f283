"""Relator generation for the diagram spaces.

Every relator is a linear combination of canonical keys together with a
stable id.  Relators are generated from canonical basis representatives and
each id carries the hex key of its basis element, so ids are reproducible
across runs; elements may be zero (kept in the list, dropped when building
matrices).

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
from .diagrams import Diagram, canonical_diagram, graft_with_map, inject
from .errors import DiagramError
from .lincomb import LinComb


@dataclass(frozen=True)
class Relator:
    rid: str
    element: LinComb


# -- the link relation ---------------------------------------------------------


def star_relator(E: Diagram, u: int, name: str) -> Relator:
    """Link relation at a distinguished leg: the sum of grafting u onto every
    other leg of its color vanishes in the homotopy quotient.  name is E's
    canonical key in hex; the relator id carries it."""
    if E.colors[u] is None:
        raise DiagramError(f"vertex {u} is not a leg")
    color = E.colors[u]
    element = LinComb.zero()
    for w, c in E.legs():
        if w != u and c == color:
            element = element + inject(graft_with_map(E, u, w)[0])
    rid = f"star:{name}:{u}"
    return Relator(rid, element)


def star_relators(basis) -> list:
    """Star relators for every (diagram, leg) over a forest basis."""
    out = []
    for sk in basis:
        E = canonical_diagram(sk.key)
        for u, _ in E.legs():
            out.append(star_relator(E, u, sk.hex))
    return out


# -- IHX ---------------------------------------------------------------------


def _rotate_to_front(rot, h):
    i = rot.index(h)
    return rot[i:] + rot[:i]


def _with_rotations(D: Diagram, x, rot_x, y, rot_y) -> Diagram:
    inc = list(D.incidence)
    inc[x], inc[y] = tuple(rot_x), tuple(rot_y)
    return Diagram(D.k, D.colors, tuple(inc))


def internal_edges(D: Diagram) -> list:
    return [
        e
        for e in range(D.n_edges)
        if D.colors[D.edge_ends(e)[0]] is None and D.colors[D.edge_ends(e)[1]] is None
    ]


def ihx_relator(D: Diagram, e: int, name: str) -> Relator:
    """Three-term exchange at an internal edge, I - H + X; name as for star_relator."""
    h, hp = 2 * e, 2 * e + 1
    x, y = D.vertex_of(h), D.vertex_of(hp)
    if D.colors[x] is not None or D.colors[y] is not None or x == y:
        raise DiagramError(f"edge {e} is not internal")
    _, a1, a2 = _rotate_to_front(D.incidence[x], h)
    _, b1, b2 = _rotate_to_front(D.incidence[y], hp)
    term_i = D
    term_h = _with_rotations(D, x, (h, a1, b1), y, (hp, a2, b2))
    term_x = _with_rotations(D, x, (h, a2, b1), y, (hp, a1, b2))
    element = inject(term_i) - inject(term_h) + inject(term_x)
    rid = f"ihx:{name}:{e}"
    return Relator(rid, element)


def ihx_relators(basis) -> list:
    out = []
    for sk in basis:
        D = canonical_diagram(sk.key)
        for e in internal_edges(D):
            out.append(ihx_relator(D, e, sk.hex))
    return out


# -- STU and the bounded link relation ----------------------------------------


def stu_relator(B: bnd.BoundedDiagram, s: int, p: int, name: str) -> Relator:
    """S - T + U at adjacent leg positions p, p+1 on segment s; name is B's
    bounded key in hex."""
    term_t = B
    term_u = bnd.swap_adjacent_legs(B, s, p)
    term_s = bnd.graft_adjacent_legs(B, s, p)
    element = bnd.inject_bounded(term_s) - bnd.inject_bounded(term_t) + bnd.inject_bounded(term_u)
    rid = f"stu:{name}:{s}:{p}"
    return Relator(rid, element)


def stu_relators(basis) -> list:
    out = []
    for sk in basis:
        B = bnd.bounded_from_key(sk.key)
        for s in range(1, B.k + 1):
            for p in range(len(B.order[s - 1]) - 1):
                out.append(stu_relator(B, s, p, sk.hex))
    return out


def link1_relator(B: bnd.BoundedDiagram, s: int, name: str) -> Relator:
    """Cycling the top leg of segment s to the bottom minus the original; name
    as for stu_relator."""
    element = bnd.inject_bounded(bnd.cycle_segment(B, s)) - bnd.inject_bounded(B)
    rid = f"link1:{name}:{s}"
    return Relator(rid, element)


def link1_relators(basis) -> list:
    out = []
    for sk in basis:
        B = bnd.bounded_from_key(sk.key)
        for s in range(1, B.k + 1):
            if B.order[s - 1]:
                out.append(link1_relator(B, s, sk.hex))
    return out


# -- chord relations ----------------------------------------------------------


def one_t_relators(basis) -> list:
    """Diagrams with an isolated chord are themselves relators."""
    out = []
    for c in basis:
        if ch.has_isolated_chord(c):
            key = ch.chord_key(c)
            out.append(Relator(f"1t:{key.hex()}", LinComb.term(key)))
    return out


def four_t_relator(c: ch.ChordDiagram, p: int, name: str) -> Relator:
    """Four-term relation at the adjacent endpoint pair (p, p+1); name is c's
    chord key in hex.

    The endpoint at p hops across the near end q = p+1 of the other chord and
    across its far end r, and the four placements cancel:
    (before q) - (after q) + (before r) - (after r) = 0.
    """
    pairing = c.pairing
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
    return Relator(f"4t:{name}:{p}", LinComb(terms))


def four_t_relators(basis) -> list:
    out = []
    for c in basis:
        n = 2 * c.d
        name = ch.chord_key(c).hex()
        for p in range(n):
            if c.pairing[p] != (p + 1) % n:
                out.append(four_t_relator(c, p, name))
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
