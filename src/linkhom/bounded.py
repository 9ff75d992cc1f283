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

No object stands for a bounded diagram, and a bounded key is made one way:
each tree body's leg colors are translated to slot colors, the tree is
keyed by diagrams.key_tree and joined to the others (joined).  leg_orders
does so for enum_bounded and chi, and the STU and link1 relators
(relators.py) for each term; interchange.bounded_doc reads the graph and
order off the key.  slot_trees is the leg table of those relators and of
star, which reads a forest key's colors as slot colors with p = 0.
"""

from __future__ import annotations

import itertools

from .bases import enum_forests
from .diagrams import KEY_BYTE_MAX, join_trees, key_tree, recolored, split_trees
from .errors import DiagramError

_TAG_BOUNDED = 0x42


def slot_trees(key: bytes, k: int):
    """The tree bodies of a forest key whose legs carry slot colors p*k + s,
    with the tree of each slot of segment s, top to bottom, at segs[s] and
    each tree's segments as a bitmask.  A basis tree has at most one leg on
    a segment, and the colors of a forest key are slot colors with p = 0."""
    bodies = [body for _, body in split_trees(key)]
    segs, masks = [[] for _ in range(k + 1)], [0] * len(bodies)
    for c, t in sorted((c, t) for t, (colors, _) in enumerate(bodies) for c in colors if c):
        s = (c - 1) % k + 1
        segs[s].append(t)
        masks[t] |= 1 << s
    return bodies, segs, masks


def joined(head, K, bodies, moved, parts):
    """(key, sign) of the forest of the trees in bodies not in moved and of
    parts, (body, sign) pairs, with bound K, after the header bytes head:
    the tag and k of a bounded key, or none for a forest key."""
    kept, sign = [body for t, body in enumerate(bodies) if t not in moved], 1
    for body, c in parts:
        kept.append(body)
        sign *= c
    return head + join_trees(K, kept), sign


def leg_orders(key: bytes, keyed: dict):
    """(bounded key, sign) of every way to place the legs of the forest key
    on the segments of their colors: one permutation, per color, of the
    trees with a leg of that color, the first on top.  Each tree is keyed
    with its slot colors by key_tree in keyed, a dict the caller drops on
    return, and the sign is the product of the trees' signs."""
    k = key[1]
    bodies, segs, _ = slot_trees(key, k)
    K = k * (sum(map(len, segs)) + 1)
    if K > KEY_BYTE_MAX:        # checked before a slot color leaves the byte range
        raise DiagramError("diagram too large to encode")
    head = bytes([_TAG_BOUNDED, k])
    for order in itertools.product(*map(itertools.permutations, segs[1:])):
        tables = [bytearray(256) for _ in bodies]     # 0 stays 0; every leg is set below
        for s, seg in enumerate(order, start=1):
            for p, t in enumerate(seg):
                tables[t][s] = p * k + s
        yield joined(head, K, (), (), [key_tree(recolored(body, table), keyed)
                                       for body, table in zip(bodies, tables)])


def enum_bounded(k: int, d: int, support: int | None = None) -> list:
    """Sorted canonical keys of degree-d homotopy-legal bounded diagrams;
    with support=m, of those whose legs lie exactly on segments 1..m."""
    found, keyed = set(), {}
    for key in enum_forests(k, d, support):
        found.update(bkey for bkey, _ in leg_orders(key, keyed))
    return sorted(found)
