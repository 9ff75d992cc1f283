"""Chord diagrams on an oriented circle, up to rotation.

A degree-d chord diagram is a perfect matching on 2d circle points; two
diagrams are equal when a rotation carries one matching to the other.  The
circle is oriented and never reflected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DiagramError
from .lincomb import LinComb

_TAG_CHORD = 0x43


@dataclass(frozen=True)
class ChordDiagram:
    pairing: tuple      # pairing[i] = partner of point i on the circle

    def __post_init__(self):
        n = len(self.pairing)
        if n % 2:
            raise DiagramError("odd number of endpoints")
        for i, j in enumerate(self.pairing):
            if not 0 <= j < n or j == i or self.pairing[j] != i:
                raise DiagramError(f"point {i} is not matched involutively")

    @property
    def d(self) -> int:
        return len(self.pairing) // 2

    def chords(self):
        """Chords as (i, j) pairs with i < j, sorted."""
        return [(i, j) for i, j in enumerate(self.pairing) if i < j]


def rotate(c: ChordDiagram, r: int) -> ChordDiagram:
    n = len(c.pairing)
    if n == 0:
        return c
    r %= n
    return ChordDiagram(tuple((c.pairing[(i + r) % n] - r) % n for i in range(n)))


def chord_key(c: ChordDiagram) -> bytes:
    """Canonical byte key: the least pairing over all rotations."""
    return pairing_key(c.pairing)


def pairing_key(p) -> bytes:
    """chord_key of a pairing that is known to be valid, without building a
    ChordDiagram.

    The rotation that starts at point r begins with the forward gap
    (p[r] - r) % n, so only rotations starting at a point of least gap can be
    least; those are compared as plain tuples.
    """
    n = len(p)
    best = ()
    if n:
        gaps = [(j - i) % n for i, j in enumerate(p)]
        low = min(gaps)
        best = min(
            tuple((p[(i + r) % n] - r) % n for i in range(n))
            for r in range(n) if gaps[r] == low
        )
    return bytes([_TAG_CHORD, n // 2, *best])


def chord_from_key(key: bytes) -> ChordDiagram:
    if len(key) < 2 or key[0] != _TAG_CHORD or len(key) != 2 + 2 * key[1]:
        raise DiagramError("not a chord diagram key")
    return ChordDiagram(tuple(key[2:]))


def inject_chord(c: ChordDiagram, coeff=1) -> LinComb:
    return LinComb.term(chord_key(c), Fraction(coeff))


def enum_chord(d: int) -> list:
    """Sorted canonical keys of all degree-d chord diagrams.

    The recursion fills one pairing in place and meets only perfect
    matchings, so each is keyed at once, without building a diagram."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    found = set()
    pairing = [0] * (2 * d)

    def matchings(points):
        if not points:
            found.add(pairing_key(pairing))
            return
        a = points[0]
        for idx in range(1, len(points)):
            b = points[idx]
            pairing[a], pairing[b] = b, a
            matchings(points[1:idx] + points[idx + 1:])

    matchings(tuple(range(2 * d)))
    return sorted(found)


def has_isolated_chord(pairing) -> bool:
    """Whether a chord joins two neighboring points; pairing may be a key's
    key[2:]."""
    n = len(pairing)
    return any(pairing[i] == (i + 1) % n for i in range(n))


# -- surgeries ------------------------------------------------------------


def restrict(c: ChordDiagram, chord_indices) -> ChordDiagram:
    """Keep only the chords with the given indices into c.chords()."""
    keep = set(chord_indices)
    chords = c.chords()
    points = sorted(p for idx in keep for p in chords[idx])
    relabel = {p: i for i, p in enumerate(points)}
    pairing = [0] * len(points)
    for idx in keep:
        a, b = chords[idx]
        pairing[relabel[a]], pairing[relabel[b]] = relabel[b], relabel[a]
    return ChordDiagram(tuple(pairing))


def connect_sum(c1: ChordDiagram, c2: ChordDiagram, arc1: int = 0, arc2: int = 0) -> ChordDiagram:
    """Splice the circles, cutting each at the arc before the given point."""
    a, b = rotate(c1, arc1), rotate(c2, arc2)
    shift = len(a.pairing)
    return ChordDiagram(a.pairing + tuple(p + shift for p in b.pairing))
