"""Relator generation for the diagram spaces.

Every relator is a linear combination of canonical keys together with a
stable id.  Relators are generated from canonical basis representatives and
each id carries the hex key of its basis element, so ids are reproducible
across runs; elements may be zero (still generated and counted, dropped
when building matrices).  All but the 1T list are yielded one at a time,
so a caller that counts and reduces them keeps none.
Coefficients are the ints +-1 (summed where terms meet).  No Diagram is
built here: a graft known to be boring is not built, and the base term of
IHX, STU, link1 and 4T is the basis key itself, with sign +1.

All four relations on forests work on the trees of the basis key, each
canonical with sign +1 (diagrams.split_trees).  A graft joins two tree
bodies into one and an exchange moves two half-edge ends of one body; the
edited body is keyed by diagrams.key_tree, and its sign is negated where
the rotation the surgery asks for is not the ascending one the body
stands for.  A term keys the changed trees alone and joins them
to the untouched trees with the product of their signs; each call keys a
tree pair and leg pair, or a tree and edge, once, in a dict it drops on
return.  A bounded key's legs carry slot colors p*k + s (bounded.py), and
a forest key's colors are slot colors with p = 0, so star, STU and link1
find the trees with a leg on each segment in one leg table
(bounded.slot_trees).  An STU or link1 term is one byte translate of the
slot colors: a swap moves two trees, a graft the trees with a leg at or
below the pair, a cycle every tree with a leg on the segment, and only
those are keyed again.

Sign conventions: IHX is I - H + X with both rotations normalized to start
with the internal edge (the exchange pattern follows the Jacobi identity);
STU is S - T + U with S the grafted term and T the original leg order; the
grafted vertex rotation is (stem of the first leg, stem of the second, new
leg) everywhere, and in STU the upper leg is the first.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from . import chords as ch
from .bounded import joined, slot_trees
from .diagrams import join_trees, key_tree, recolored, split_trees
from .lincomb import LinComb


class Relator(NamedTuple):
    rid: str
    element: LinComb


_ZERO = LinComb.zero()


def _add(terms: dict, key: bytes, c: int) -> None:
    """Add c times key to the integer combination terms."""
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        del terms[key]


def _element(terms: dict) -> LinComb:
    return LinComb.of_terms(terms) if terms else _ZERO


def _interesting_graft(masks, a: int, b: int, color: int) -> bool:
    """Whether grafting a leg of this color in tree a onto one in tree b
    keeps a forest whose trees have distinct leg colors, so that the graft
    is not boring.  Two legs of one color lie in two trees, which the graft
    joins; the result repeats a color exactly when those trees share one
    besides this.  masks holds each tree's leg colors as a bitmask."""
    return masks[a] & masks[b] == 1 << color


# -- the link relation and IHX, on tree bodies ---------------------------------


def _ascending(p, q, r) -> bool:
    """Whether the rotation (p, q, r) is its half-edges in ascending order,
    up to cycling: the rotation a tree body stands for at each vertex."""
    return (p < q) + (q < r) + (r < p) == 2


def _graft(a, b, u: int, w: int):
    """(body, sign) of the tree made by grafting leg u of the tree with body
    a onto leg w of the tree with body b, legs numbered within their trees.
    The bodies are joined in sorted order; u's vertex becomes the new
    internal vertex, w's stem moves to it, and a new edge joins it to w,
    which keeps the color.  The graft's rotation (stem of u, stem of w, new
    edge) is the ascending one exactly when u's stem comes first."""
    (colors, ends), (colors2, ends2) = sorted((a, b))
    n = len(colors)
    u, w = (u, n + w) if a < b else (n + u, w)
    colors, ends = [*colors, *colors2], [*ends, *(x + n for x in ends2)]
    hu, hw = ends.index(u), ends.index(w)
    colors[u], ends[hw] = 0, u
    tree, sign = key_tree((tuple(colors), (*ends, u, w)), {})
    return tree, sign if hu < hw else -sign


def star_relators(basis, color=None):
    """The link relation at each leg u of each basis forest, in leg order:
    the grafts of u onto every other leg of its color sum to zero.  A graft
    of two trees sharing a color besides u's is boring, 0 and not built, so
    a leg whose color no other leg has gets the zero element at once.  A
    forest key's colors are slot colors with p = 0, so slot_trees finds the
    trees with a leg of each color.  With color=j, only the relators at the
    legs of color j are made, with the ids they have among all."""
    grafts = {}
    for key in basis:
        k, name = key[1], key.hex()
        bodies, segs, masks = slot_trees(key, k)
        pairs = {}              # (a, b) -> the term grafting a leg of tree a onto tree b
        off = 0                 # the label of tree a's root
        for a, (colors, _) in enumerate(bodies):
            for u, c in enumerate(colors):
                if not c or color is not None and c != color:
                    continue
                terms = {}
                # a tree shares all its colors with itself, so b != a
                for b in segs[c]:
                    # grafting b's leg onto a's gives the same forest, with the other sign
                    if (term := pairs.get((b, a))) is not None:
                        _add(terms, term[0], -term[1])
                    elif _interesting_graft(masks, a, b, c):
                        g = bodies[a], bodies[b], u, bodies[b][0].index(c)
                        if (made := grafts.get(g)) is None:
                            made = grafts[g] = _graft(*g)
                        term = pairs[a, b] = joined(b"", k, bodies, (a, b), [made])
                        _add(terms, *term)
                yield Relator(f"star:{name}:{off + u}", _element(terms))
            off += len(colors)


def _exchange(body, e: int):
    """(body, sign) of H, then of X, for the exchange at the internal edge e of
    the canonical tree body.  With h = 2e at x and h+1 at y, the rotations
    are (h, a1, a2) at x and (h+1, b1, b2) at y; H moves b1 to x and a2 to
    y, X moves b1 to x and a1 to y, and a new rotation that is not the
    ascending one negates the sign."""
    colors, ends = body
    h = 2 * e
    x, y = ends[h], ends[h + 1]
    at_x = [j for j, v in enumerate(ends) if v == x]
    i = at_x.index(h)
    _, a1, a2 = at_x[i:] + at_x[:i]
    # y is x's child, so its other edges sort after e
    _, b1, b2 = [j for j, v in enumerate(ends) if v == y]
    for kept, moved in ((a1, a2), (a2, a1)):
        new = list(ends)
        new[b1], new[moved] = x, y
        tree, sign = key_tree((colors, tuple(new)), {})
        yield tree, sign if _ascending(h, kept, b1) == _ascending(h + 1, moved, b2) else -sign


def ihx_relators(basis):
    """I - H + X at each internal edge of each basis forest, in edge order.
    I is the forest, with sign +1; H and X are never boring."""
    moves = {}
    for key in basis:
        k, trees = key[1], split_trees(key)
        bodies = [body for _, body in trees]
        for t, (off, body) in enumerate(trees):
            colors, ends = body
            rest = bodies[:t] + bodies[t + 1:]
            for e in range(len(ends) // 2):
                if colors[ends[2 * e]] or colors[ends[2 * e + 1]]:
                    continue
                if (made := moves.get((body, e))) is None:
                    made = moves[body, e] = tuple(_exchange(body, e))
                terms = {key: 1}
                for (tree, sign), c in zip(made, (-1, 1)):
                    _add(terms, join_trees(k, rest + [tree]), c * sign)
                # a tree's edges follow the edges of the trees before it
                yield Relator(f"ihx:{key.hex()}:{off - t + e}", _element(terms))


# -- STU and the bounded link relation, on tree bodies ------------------------


def stu_relators(basis):
    """S - T + U at adjacent leg positions p, p+1 on each segment s of each
    basis key.  T is the key, with sign +1.  U exchanges the slot colors of
    the two legs, and S sends the lower one's slot to the upper's and each
    slot below it up one, then grafts the two legs that now share a slot; S
    is built only when it is not boring.  Only the trees whose colors move
    are keyed again."""
    keyed, grafts = {}, {}
    for key in basis:
        k, K = key[1], key[3]
        bodies, segs, masks = slot_trees(key[2:], k)
        for s in range(1, k + 1):
            seg = segs[s]
            for p in range(len(seg) - 1):
                a, b = seg[p], seg[p + 1]
                upper, lower = p * k + s, (p + 1) * k + s
                terms = {key: -1}
                swap = bytes.maketrans(bytes([upper, lower]), bytes([lower, upper]))
                _add(terms, *joined(key[:2], K, bodies, (a, b), [
                    key_tree(recolored(bodies[t], swap), keyed) for t in (a, b)]))
                if _interesting_graft(masks, a, b, s):
                    end = len(seg) * k + s
                    up = bytes.maketrans(bytes(range(lower, end, k)), bytes(range(upper, end - k, k)))
                    ra, rb = recolored(bodies[a], up), recolored(bodies[b], up)
                    g = ra, rb, ra[0].index(upper), rb[0].index(upper)
                    if (made := grafts.get(g)) is None:
                        made = grafts[g] = _graft(*g)
                    _add(terms, *joined(key[:2], K - k, bodies, seg[p:], [made] + [
                        key_tree(recolored(bodies[t], up), keyed) for t in seg[p + 2:]]))
                yield Relator(f"stu:{key.hex()}:{s}:{p}", _element(terms))


def link1_relators(basis):
    """Cycling the top leg of segment s to the bottom minus the original, at
    each segment with legs of each basis key: every slot of s moves, so the
    trees with a leg on s are keyed again.  The original is the key, with
    sign +1, as for stu_relators.  A lone leg cycles to the key itself, so
    its relator is the zero element at once."""
    keyed = {}
    for key in basis:
        k, K = key[1], key[3]
        bodies, segs, _ = slot_trees(key[2:], k)
        for s in range(1, k + 1):
            if seg := segs[s]:
                terms = {}
                if len(seg) > 1:
                    end = len(seg) * k + s
                    cycle = bytes.maketrans(bytes(range(s, end, k)),
                                            bytes([end - k, *range(s, end - k, k)]))
                    terms = {key: -1}
                    _add(terms, *joined(key[:2], K, bodies, seg, [
                        key_tree(recolored(bodies[t], cycle), keyed) for t in seg]))
                yield Relator(f"link1:{key.hex()}:{s}", _element(terms))


# -- chord relations ----------------------------------------------------------


def one_t_relators(basis) -> list:
    """Diagrams with an isolated chord are themselves relators; basis is a
    list of chord keys."""
    return [Relator(f"1t:{key.hex()}", LinComb.term(key))
            for key in basis if ch.has_isolated_chord(key[2:])]


_PLACEMENTS = {}    # (n, p, pos) -> (gather, relabel table) of one 4T placement


def _four_t_placements(pairing, p: int) -> list:
    """Unkeyed (pairing, sign) of the after-q, before-r and after-r placements
    of the 4T relation at p, each one gather of the points in their new order
    and one translate to the new labels; before q is the pairing itself."""
    n = len(pairing)
    q = (p + 1) % n
    i, j = q - (q > p), pairing[q] - (pairing[q] > p)
    out = []
    for pos, sign in ((i + 1, -1), (j, 1), (j + 1, -1)):
        if (made := _PLACEMENTS.get((n, p, pos))) is None:
            order = [x for x in range(n) if x != p]
            order.insert(pos, p)
            relabel = bytes(map(order.index, range(n))).ljust(256, b"\0")
            made = _PLACEMENTS[n, p, pos] = (itemgetter(*order), relabel)
        out.append((bytes(made[0](pairing)).translate(made[1]), sign))
    return out


def four_t_sites(basis, mod_1t, label):
    """(key, p, terms) of the four-term relation at every adjacent endpoint
    pair (p, p+1) of each basis key that is not one chord, one at a time.
    The endpoint at p hops across the near end q = p+1 of the other chord
    and across its far end r, and the four placements cancel:
    (before q) - (after q) + (before r) - (after r) = 0.  terms maps
    label(term key) to its summed int coefficient; with mod_1t, a term whose
    pairing has an isolated chord is dropped before it is keyed, as rotation
    keeps that property.  terms may be empty.

    Placements recur across keys and endpoints (at d = 6 modulo 1T, the
    3600 sites of the 300 keys with no isolated chord keep 8954 placements,
    1684 distinct pairings; the 9844 sites of all 902 keys keep 10635, 1942
    distinct), so a dict dropped on return labels each raw placement once,
    or marks it None when it is dropped."""
    labelled = {}
    for key in basis:
        pairing = key[2:]
        n = len(pairing)
        base = {} if mod_1t and ch.has_isolated_chord(pairing) else {label(key): 1}
        for p in range(n):
            if pairing[p] != (p + 1) % n:
                terms = dict(base)
                for raw, sign in _four_t_placements(pairing, p):
                    if (made := labelled.get(raw, False)) is False:
                        made = labelled[raw] = None if mod_1t and ch.has_isolated_chord(raw) else (
                            label(ch.pairing_key(raw)))
                    if made is not None:
                        _add(terms, made, sign)
                yield key, p, terms


def four_t_relators(basis):
    """The full four-term relators of four_t_sites, one at a time, 1T terms
    kept; basis is a list of chord keys.  Each term is the basis's own key
    object, which the rows then share.  Elements may be zero."""
    own = {key: key for key in basis}
    for key, p, terms in four_t_sites(basis, False, lambda k: own.setdefault(k, k)):
        yield Relator(f"4t:{key.hex()}:{p}", _element(terms))
