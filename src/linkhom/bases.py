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


def _tree_bodies(colors) -> list:
    """Sorted canonical bodies of all trees whose legs carry exactly these
    distinct colors, each met once."""
    keyed = {}
    return sorted(key_tree((tuple(c or 0 for c in verts), tuple(x for e in edges for x in e)),
                           keyed)[0] for verts, edges in _raw_trees(colors))


def trees_on_colors(colors, k) -> list:
    """Canonical keys of all trees whose legs carry exactly these colors,
    which must be distinct and in 1..k."""
    colors = tuple(colors)
    if len(set(colors)) < len(colors) or not set(colors) <= set(range(1, k + 1)):
        raise DiagramError(f"tree colors {colors} are not distinct colors in 1..{k}")
    return [join_trees(k, [body]) for body in _tree_bodies(colors)]


def enum_forests(k: int, d: int, support: int | None = None) -> list:
    """Sorted canonical keys of all degree-d homotopy basis forests on k colors.

    With support=m, only the forests whose legs use exactly the colors
    1..m: the support block, whose keys are still keys of the k-color cell.
    Each key's canonical representative is the forest itself, with sign +1;
    component degrees never exceed the palette size minus 1 because leaf
    colors are distinct within a component.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    palette = k if support is None else support
    if not 0 <= palette <= k:
        raise ValueError(f"support {support} is outside 0..{k}")
    # colors the forest must still cover, as a bitmask over the palette
    need = 0 if support is None else (1 << palette) - 1
    types = []          # (degree, color mask, key body) per component type
    for n in range(1, min(d, palette - 1) + 1):
        for colors in itertools.combinations(range(1, palette + 1), n + 1):
            mask = sum(1 << (c - 1) for c in colors)
            for body in _tree_bodies(colors):
                types.append((n, mask, body))

    # each multiset of types is one forest, met once
    found = []

    def extend(i, remaining, uncovered, parts):
        # a tree of degree n covers at most 2n new colors
        if uncovered.bit_count() > 2 * remaining:
            return
        if remaining == 0:
            found.append(join_trees(k, parts))
            return
        for j in range(i, len(types)):
            n, mask, body = types[j]
            if n <= remaining:
                extend(j, remaining - n, uncovered & ~mask, parts + [body])

    extend(0, d, need, [])
    return sorted(found)
