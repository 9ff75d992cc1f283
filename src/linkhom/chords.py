"""Chord diagrams on an oriented circle, up to rotation.

A degree-d chord diagram is a perfect matching on 2d circle points; two
diagrams are equal when a rotation carries one matching to the other.  The
circle is oriented and never reflected.  A diagram is its key, the least
rotation of its pairing, made as bytes (pairing_key): every operation here
takes keys and returns keys, and key[2:] is the pairing, key[1] the degree.
"""

from __future__ import annotations

from operator import eq

_TAG_CHORD = 0x43
_ROTATIONS = {}     # n -> the translate tables taking x to (x - r) % n, one per r


def pairing_key(p) -> bytes:
    """Canonical byte key of a pairing that is known to be valid: the least
    pairing over all rotations.

    The rotation that starts at point r begins with the forward gap
    (p[r] - r) % n, so only rotations starting at a point of least gap can be
    least.  Each is built as bytes by one slice and one translate, and bytes
    order as the tuples of their points do.
    """
    b = bytes(p)
    n = len(b)
    if n:
        if (tables := _ROTATIONS.get(n)) is None:
            tables = _ROTATIONS[n] = [bytes((x - r) % n for x in range(256)) for r in range(n)]
        gaps = [(j - i) % n for i, j in enumerate(b)]
        low = min(gaps)
        b = min((b[r:] + b[:r]).translate(tables[r]) for r, g in enumerate(gaps) if g == low)
    return bytes((_TAG_CHORD, n // 2)) + b


def enum_chord(d: int) -> list:
    """Sorted canonical keys of all degree-d chord diagrams.

    A key, the least rotation of its pairing, starts at a point of least
    forward gap (pairing_key), so it joins point 0 to some j <= d and its
    other chords have both gaps, (b - a) % n and (a - b) % n, at least j.
    The recursion fills one pairing in place over such pairings only and
    keeps each that is its own key: every class once, none missed."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = 2 * d
    found = []
    pairing = [0] * n

    def matchings(points, low):
        if not points:
            b = bytes(pairing)
            if (key := pairing_key(b))[2:] == b:
                found.append(key)
            return
        a = points[0]
        for idx in range(1, len(points)):
            b = points[idx]
            gap = low or b      # point 0's partner sets the least gap
            if gap <= b - a <= n - gap:
                pairing[a], pairing[b] = b, a
                matchings(points[1:idx] + points[idx + 1:], gap)

    matchings(tuple(range(n)), 0)
    return sorted(found)


def has_isolated_chord(pairing) -> bool:
    """Whether a chord joins two neighboring points; pairing may be a key's
    key[2:]."""
    n = len(pairing)
    return n > 0 and (pairing[0] == n - 1 or any(map(eq, pairing, range(1, n))))


def crossings(key: bytes) -> int:
    """The number of crossing chord pairs of the diagram with this key."""
    p = key[2:]
    return sum(not i < p[x] < j for i, j in enumerate(p) if i < j for x in range(i + 1, j)) // 2


# -- surgeries ------------------------------------------------------------


def restrict(key: bytes, chord_indices) -> bytes:
    """Key of the diagram that keeps only the chords with the given indices,
    the chords of key's pairing numbered by their first endpoint."""
    p = key[2:]
    chords = [i for i, j in enumerate(p) if i < j]
    points = sorted(x for idx in chord_indices for x in (chords[idx], p[chords[idx]]))
    relabel = {x: i for i, x in enumerate(points)}
    return pairing_key([relabel[p[x]] for x in points])


def _cut(p, r: int) -> tuple:
    """The pairing p read from point r on."""
    n = len(p)
    return tuple((p[(i + r) % n] - r) % n for i in range(n))


def connect_sum(a: bytes, b: bytes, arc1: int = 0, arc2: int = 0) -> bytes:
    """Key of the splice of two circles, each cut at the arc before the given
    point of its key's pairing."""
    p, q = _cut(a[2:], arc1), _cut(b[2:], arc2)
    return pairing_key(p + tuple(x + len(p) for x in q))
