"""Reference answers for the benchmark, computed without importing linkhom.

Every figure comes from a closed form, a brute-force count or a published
table, so a wrong engine answer cannot also change what it is checked against.

- Forest (bhl) dimension: the degree-d monomials in C(k,2) commuting
  variables x_ij, C(C(k,2)+d-1, d).  The bounded (ahl) side has the same
  dimension.
- Forest basis: multisets of trees with distinct leaf colours, of total
  degree d.  A tree with m leaves has degree m-1, and there are
  C(k,m)*(2m-5)!! of them (one when m = 2).
- Bounded basis: the same forests with a top-to-bottom order of the legs on
  each segment.  Pinning every leg kills every automorphism except swaps of
  identical components, which act freely on the orders, so a forest type
  contributes prod_s n_s! / prod_t mult_t! where n_s counts legs on segment s.
- Chord basis: perfect matchings of 2d points on a circle up to rotation,
  counted by brute force.
- Chord dimension: Bar-Natan's table for chord diagrams modulo 4T and 1T.
- Certificate count of ``verify -k K --max-degree D``: every basis forest
  that is not a product of segments, sum over d <= D of (basis - monomials).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

#: dim of the degree-d chord space modulo 4T and 1T (Bar-Natan, "On the
#: Vassiliev knot invariants", Topology 34 (1995), table 1).
CHORD_DIMS = {1: 0, 2: 1, 3: 1, 4: 3, 5: 4, 6: 9, 7: 14, 8: 27, 9: 44}


def tree_count(m: int) -> int:
    """Unitrivalent trees on m distinctly labelled leaves: (2m-5)!!."""
    if m < 2:
        raise ValueError("a tree needs at least two leaves")
    out = 1
    for odd in range(3, 2 * m - 4, 2):
        out *= odd
    return out


def monomials(k: int, d: int) -> int:
    return comb(comb(k, 2) + d - 1, d)


def forest_basis(k: int, d: int) -> int:
    """Coefficient of x^d in prod_n (1 - x^n)^-(tree types of degree n)."""
    series = [1] + [0] * d
    for n in range(1, min(d, k - 1) + 1):
        types = comb(k, n + 1) * tree_count(n + 1)
        nxt = [0] * (d + 1)
        for base, c in enumerate(series):
            if c:
                for j in range((d - base) // n + 1):
                    nxt[base + n * j] += c * comb(types + j - 1, j)
        series = nxt
    return series[d]


def bounded_basis(k: int, d: int) -> int:
    """Forest types with leg orders, summed over multisets of leaf colour sets.

    A colour set of size m appearing r times, spread over its tree_count(m)
    shapes, contributes tree_count(m)**r / r! after summing 1/prod(mult!)
    over the ways to spread it.
    """
    colour_sets = [c for m in range(2, min(d + 1, k) + 1)
                   for c in combinations(range(1, k + 1), m)]
    total = Fraction(0)

    def extend(i, remaining, legs, weight):
        nonlocal total
        if remaining == 0:
            orders = 1
            for n in legs:
                orders *= factorial(n)
            total += orders * weight
            return
        for j in range(i, len(colour_sets)):
            cs = colour_sets[j]
            deg = len(cs) - 1
            for r in range(1, remaining // deg + 1):
                legs2 = list(legs)
                for s in cs:
                    legs2[s - 1] += r
                extend(j + 1, remaining - r * deg, legs2,
                       weight * Fraction(tree_count(len(cs)) ** r, factorial(r)))

    extend(0, d, [0] * k, Fraction(1))
    if total.denominator != 1:
        raise ArithmeticError("bounded basis count is not an integer")
    return int(total)


def _matchings(points):
    if not points:
        yield ()
        return
    a, rest = points[0], points[1:]
    for i, b in enumerate(rest):
        for m in _matchings(rest[:i] + rest[i + 1:]):
            yield ((a, b),) + m


def chord_basis(d: int) -> int:
    """Chord diagrams with d chords up to rotation, by brute force."""
    n = 2 * d
    seen = set()
    for m in _matchings(tuple(range(n))):
        partner = [0] * n
        for a, b in m:
            partner[a], partner[b] = b, a
        # a diagram as the tuple of forward distances to each point's partner
        gaps = [(partner[p] - p) % n for p in range(n)]
        seen.add(min(tuple(gaps[r:] + gaps[:r]) for r in range(max(n, 1))))
    return len(seen)


def certificate_count(k: int, max_degree: int) -> int:
    return sum(forest_basis(k, d) - monomials(k, d) for d in range(1, max_degree + 1))
