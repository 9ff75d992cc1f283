"""Diagrams bounded by k ordered segments, as keys.

A bounded diagram is a unitrivalent graph whose legs are attached to k
vertical segments at ordered positions (top to bottom).  Its key recolors
every leg with its slot color p*k + s, where p is the leg's position from
the top of segment s.  That makes all leg colors distinct, so every bounded
diagram without a cycle has a key (the forest labeling of diagrams.py) even
when it repeats a segment within a component.  A bounded key is 0x42, k,
then that forest key, whose color bound key[3] is K = k*(legs + 1).
Whether a diagram is boring is still decided by segment colors, and boring
input is 0 before it is keyed.

No object stands for a bounded diagram.  bounded_key keys a leg order of a
forest, for enum_bounded and the averaging map chi; the STU and link1
relators move slot colors on the key's tree bodies (relators.py); and
interchange.bounded_doc reads the graph and the order back off the key.
"""

from __future__ import annotations

import itertools

from .diagrams import Diagram, SignedCanonicalKey, forest_key, representative

_TAG_BOUNDED = 0x42


def bounded_key(D: Diagram, order) -> SignedCanonicalKey:
    """Canonical key and sign of the forest D with order[s-1] its legs on
    segment s, top to bottom, unchecked."""
    k, colors = D.k, list(D.colors)
    for s, seg in enumerate(order, start=1):
        for p, v in enumerate(seg):
            colors[v] = p * k + s
    sk = forest_key(D, colors, k * (sum(map(len, order)) + 1))
    return SignedCanonicalKey(bytes([_TAG_BOUNDED, k]) + sk.key, sk.sign)


def leg_orders(D: Diagram):
    """Every way to place D's legs on the segments of their colors: one
    permutation of each color's legs, as bounded_key takes them."""
    by_color = [[] for _ in range(D.k)]
    for v, c in D.legs():
        by_color[c - 1].append(v)
    return itertools.product(*map(itertools.permutations, by_color))


def enum_bounded(k: int, d: int, support: int | None = None) -> list:
    """Sorted canonical keys of degree-d homotopy-legal bounded diagrams;
    with support=m, of those whose legs lie exactly on segments 1..m."""
    from .bases import enum_forests

    found = set()
    for key in enum_forests(k, d, support):
        F = representative(key)
        for order in leg_orders(F):
            found.add(bounded_key(F, order).key)
    return sorted(found)
