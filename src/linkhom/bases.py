"""Basis enumeration for the colored forest spaces.

The homotopy basis in a given degree is the set of forests whose components
are trees with pairwise distinct leaf colors.  Trees on a fixed leaf set are
generated by the classic leaf-insertion recursion (each unitrivalent tree
arises exactly once), then canonicalized; forests are multisets of tree
components with the prescribed total degree.
"""

from __future__ import annotations

import itertools

from . import diagrams
from .diagrams import Diagram, SignedCanonicalKey, canonicalize, canonical_diagram


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


def trees_on_colors(colors, k) -> list:
    """Canonical keys of all trees whose legs carry exactly these colors."""
    out = set()
    for verts, edges in _raw_trees(tuple(colors)):
        out.add(canonicalize(diagrams.build(k, verts, edges)).key)
    return sorted(out)


def enum_forests(k: int, d: int) -> list:
    """Sorted canonical keys of all degree-d homotopy basis forests on k colors.

    Every output is non-boring with sign +1; component degrees never exceed
    k - 1 because leaf colors are distinct within a component.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return [canonicalize(diagrams.empty(k))]
    types = []          # (degree, key) per component type
    for n in range(1, min(d, k - 1) + 1):
        for colors in itertools.combinations(range(1, k + 1), n + 1):
            for key in trees_on_colors(colors, k):
                types.append((n, key))
    types.sort(key=lambda t: t[1])

    found = set()

    def extend(i, remaining, parts):
        if remaining == 0:
            F = diagrams.empty(k)
            for key in parts:
                F = diagrams.disjoint_union(F, canonical_diagram(key))
            sk = canonicalize(F)
            found.add(sk.key)
            return
        for j in range(i, len(types)):
            n, key = types[j]
            if n <= remaining:
                extend(j, remaining - n, parts + [key])

    extend(0, d, [])
    return [SignedCanonicalKey(key, 1) for key in sorted(found)]
