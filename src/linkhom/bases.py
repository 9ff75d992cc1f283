"""Basis enumeration for the colored forest spaces.

The homotopy basis in a given degree is the set of forests whose components
are trees with pairwise distinct leaf colors.  Trees on a fixed leaf set are
generated by the classic leaf-insertion recursion (each unitrivalent tree
arises exactly once), and each is keyed as a tree body by
diagrams.key_tree; forests are multisets of tree components with the
prescribed total degree, and a forest's key is joined from its trees' keys.
No Diagram is built.

The support of a forest is the set of colors its legs use.  A support block
holds the forests whose support is exactly {1..m}; a tree of degree n has
n + 1 <= 2n legs, so a forest of degree d has support of size at most 2d.
"""

from __future__ import annotations

import bisect
import functools
import itertools

from .diagrams import join_trees, key_tree
from .errors import DiagramError


def _raw_trees(colors):
    """All unitrivalent trees on the given distinct leaf colors.

    Trees are (vertex colors, edge list) pairs; rotations are irrelevant here
    because each abstract tree becomes one canonical key.
    """
    m = len(colors)
    if m < 2:
        raise ValueError("a tree needs at least two leaves")
    trees = [([colors[0], colors[1]], [(0, 1)])]
    for c in colors[2:]:
        nxt = []
        for verts, edges in trees:
            for i, (u, v) in enumerate(edges):
                w = len(verts)          # new internal vertex subdividing edge i
                leaf = w + 1
                verts2 = verts + [None, c]
                edges2 = edges[:i] + edges[i + 1:] + [(u, w), (w, v), (w, leaf)]
                nxt.append((verts2, edges2))
        trees = nxt
    return trees


@functools.cache
def _tree_bodies(colors: tuple) -> tuple:
    """Sorted canonical bodies of all trees whose legs carry exactly these
    distinct colors, each met once; kept per color tuple, since the blocks
    of a cell enumerate the same trees again."""
    keyed = {}
    return tuple(sorted(key_tree((tuple(c or 0 for c in verts), tuple(x for e in edges for x in e)),
                                 keyed)[0] for verts, edges in _raw_trees(colors)))


def trees_on_colors(colors, k) -> list:
    """Canonical keys of all trees whose legs carry exactly these colors,
    which must be distinct and in 1..k."""
    colors = tuple(colors)
    if len(set(colors)) < len(colors) or not set(colors) <= set(range(1, k + 1)):
        raise DiagramError(f"tree colors {colors} are not distinct colors in 1..{k}")
    return [join_trees(k, [body]) for body in _tree_bodies(colors)]


def enum_forests(k: int, d: int, support: int | None = None, content=None) -> list:
    """Sorted canonical keys of all degree-d homotopy basis forests on k colors.

    With support=m, only the forests whose legs use exactly the colors
    1..m: the support block.  With content=c, only the forests with c[j-1]
    legs of color j for each j, and none of a color past len(c): the
    content block.  Either way the keys are still keys of the k-color cell.
    Each key's canonical representative is the forest itself, with sign +1;
    component degrees never exceed the palette size minus 1 because leaf
    colors are distinct within a component.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    exact = content is not None
    if exact and support is not None:
        raise ValueError("give a support or a content, not both")
    palette = len(content) if exact else k if support is None else support
    if not 0 <= palette <= k:
        raise ValueError(f"a palette of {palette} colors is outside 0..{k}")
    # legs still owed per color: exactly so many in a content block, at
    # least one of each color in a support block, none in the whole cell
    owed = tuple(content) if exact else (int(support is not None),) * palette
    types = []          # (degree, colors, color mask, key body) per component type
    # the other trees of a forest with sum(owed) legs or more have degree >= 1
    for n in range(1, min(d, palette - 1, 2 * d + 1 - sum(owed)) + 1):
        for colors in itertools.combinations(range(palette), n + 1):
            if not exact or all(owed[c] for c in colors):
                mask = sum(1 << c for c in colors)
                types.extend((n, colors, mask, body)
                             for body in _tree_bodies(tuple(c + 1 for c in colors)))
    # by least color: ends[c] is the number of types whose least color is at most c
    types.sort(key=lambda t: t[1][0])
    ends = [bisect.bisect_right(types, c, key=lambda t: t[1][0]) for c in range(palette + 1)]

    # each multiset of types is one forest, met once
    found = []

    def extend(i, remaining, owed, parts):
        legs = sum(owed)
        # the trees still to come, of total degree r, have r + 1 to 2r legs,
        # which a content block must meet exactly
        if legs > 2 * remaining or exact and remaining and legs <= remaining:
            return
        if remaining == 0:
            found.append(join_trees(k, parts))
            return
        # only a type whose least color is at most the least owed color can
        # pay it, and a content block has no leg left for a color it owes none
        first = next((c for c, x in enumerate(owed) if x), palette)
        spent = exact and sum(1 << c for c, x in enumerate(owed) if not x)
        for j in range(i, ends[first]):
            n, colors, mask, body = types[j]
            if n <= remaining and not mask & spent:
                left = list(owed)
                for c in colors:
                    left[c] -= left[c] > 0
                extend(j, remaining - n, tuple(left), parts + [body])

    extend(0, d, owed, [])
    return sorted(found)
