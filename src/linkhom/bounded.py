"""Diagrams bounded by k ordered segments.

A bounded diagram is a unitrivalent graph whose legs are attached to k
vertical segments at ordered positions (top to bottom).  The graph is stored
as a diagram whose leg colors are the segment numbers; the attachment orders
live alongside it.  Canonical keys recolor every leg with its (segment,
position) slot, which makes all leg colors distinct, so every bounded
diagram without a cycle has a key (the forest labeling of diagrams.py) even
when it repeats a segment within a component.  Whether it is boring is still
decided by segment colors, and boring input is 0 before it is keyed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import diagrams
from .diagrams import Diagram, SignedCanonicalKey, forest_key, representative
from .errors import DiagramError

_TAG_BOUNDED = 0x42


@dataclass(frozen=True)
class BoundedDiagram:
    k: int
    graph: Diagram      # legs colored by segment number
    order: tuple        # order[s-1] = leg vertex ids on segment s, top to bottom

    def __post_init__(self):
        if self.graph.k != self.k or len(self.order) != self.k:
            raise DiagramError("segment count mismatch")
        placed = [v for seg in self.order for v in seg]
        expected = sorted(v for v, _ in self.graph.legs())
        if sorted(placed) != expected:
            raise DiagramError("every leg must be placed exactly once")
        for s, seg in enumerate(self.order, start=1):
            for v in seg:
                if self.graph.colors[v] != s:
                    raise DiagramError(f"leg {v} is placed on segment {s}, not its own")

    @classmethod
    def _assemble(cls, k, graph, order) -> "BoundedDiagram":
        """A bounded diagram from a surgery on a valid one, unchecked."""
        B = object.__new__(cls)
        B.__dict__.update(k=k, graph=graph, order=order)
        return B

    def degree(self) -> int:
        return self.graph.degree()


def _slot_colors(B: BoundedDiagram):
    """Leg colors recolored by (segment, position) slot, and their bound."""
    total = sum(len(seg) for seg in B.order)
    colors = list(B.graph.colors)
    for s, seg in enumerate(B.order, start=1):
        for p, v in enumerate(seg):
            colors[v] = p * B.k + s
    return colors, B.k * (total + 1)


def _keyed(B: BoundedDiagram, inner: SignedCanonicalKey) -> SignedCanonicalKey:
    return SignedCanonicalKey(bytes([_TAG_BOUNDED, B.k]) + inner.key, inner.sign)


def bounded_key(B: BoundedDiagram) -> SignedCanonicalKey:
    """Canonical key and sign of a bounded diagram without a cycle,
    unchecked."""
    return _keyed(B, forest_key(B.graph, *_slot_colors(B)))


def bounded_from_key(key: bytes) -> BoundedDiagram:
    """The representative of a bounded key this library made, unchecked."""
    k = key[1]
    inner = representative(key[2:])
    colors, slots = [], {}
    for v, c in enumerate(inner.colors):
        if c is None:
            colors.append(None)
        else:
            s, p = (c - 1) % k + 1, (c - 1) // k
            colors.append(s)
            slots[(s, p)] = v
    order = []
    for s in range(1, k + 1):
        seg, p = [], 0
        while (s, p) in slots:
            seg.append(slots[(s, p)])
            p += 1
        order.append(tuple(seg))
    graph = Diagram._assemble(k, tuple(colors), inner.incidence)
    return BoundedDiagram._assemble(k, graph, tuple(order))


def leg_orders(D: Diagram):
    """Every way to place D's legs on the segments of their colors: one
    permutation of each color's legs, as BoundedDiagram orders."""
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
            found.add(bounded_key(BoundedDiagram._assemble(k, F, order)).key)
    return sorted(found)


# -- surgeries ---------------------------------------------------------------


def _replace_segment(B: BoundedDiagram, s: int, seg) -> BoundedDiagram:
    order = list(B.order)
    order[s - 1] = tuple(seg)
    return BoundedDiagram._assemble(B.k, B.graph, tuple(order))


def swap_adjacent_legs(B: BoundedDiagram, s: int, p: int) -> BoundedDiagram:
    seg = list(B.order[s - 1])
    seg[p], seg[p + 1] = seg[p + 1], seg[p]
    return _replace_segment(B, s, seg)


def cycle_segment(B: BoundedDiagram, s: int) -> BoundedDiagram:
    seg = B.order[s - 1]
    if not seg:
        raise DiagramError(f"segment {s} has no legs")
    return _replace_segment(B, s, seg[1:] + seg[:1])


def graft_adjacent_legs(B: BoundedDiagram, s: int, p: int) -> BoundedDiagram:
    """The grafted STU term at positions p, p+1 of segment s."""
    seg = B.order[s - 1]
    u, w = seg[p], seg[p + 1]
    graph, idmap, leaf = diagrams.graft_with_map(B.graph, u, w)
    order = []
    for si, old in enumerate(B.order, start=1):
        seg2 = [idmap[v] for v in old if v not in (u, w)]
        if si == s:
            seg2.insert(p, leaf)
        order.append(tuple(seg2))
    return BoundedDiagram._assemble(B.k, graph, tuple(order))
