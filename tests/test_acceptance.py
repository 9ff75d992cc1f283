"""Acceptance battery.  One test per criterion, one printed verdict line each.

Run with -s to watch the verdict lines stream:

    pytest tests/test_acceptance.py -s

A1  forest-side link dims equal the monomial count C(C(k,2)+d-1, d)
A2  every compound basis forest is certified in the relation span and the
    certificates re-sum independently
A3  the split star relator carries the exact +-(1+m) coefficient
A4  string-link dims match the symmetric-algebra oracle with a Lyndon count
A5  bounded-side dims equal forest-side dims; chi(IHX) lies in the STU span
A6  coproducts respect products exhaustively; connect sums are cut-independent
    modulo 4T
A7  knot chord dims modulo 1T+4T are 0,1,1,3 against a dense oracle
A8  linking matrices are 0/+1/0 on the fixtures and survive 10^3 random
    homotopy moves across 10 seeds
"""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

from linkhom.bases import enum_forests
from linkhom.bounded import enum_bounded
from linkhom.chords import chord_from_key, connect_sum, enum_chord, inject_chord
from linkhom.diagrams import (
    canonical_diagram,
    canonicalize,
    disjoint_union,
    empty,
    segment,
    tripod,
)
from linkhom.gauss import linking_matrix, parse_gauss, random_homotopy_move
from linkhom.hopf import coproduct, product, tensor_product
from linkhom.lincomb import LinComb
from linkhom.qlinalg import SparseRationalMatrix, relator_matrix
from linkhom.relators import (
    four_t_relators,
    ihx_relators,
    star_relator,
    stu_relators,
)
from linkhom.spaces import dim_space, verify_main_theorem
from test_spaces import chi_lincomb, relator_table

FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


# -- A1 ---------------------------------------------------------------------------

def test_a1_forest_link_dims():
    cells = [(k, d) for k in (2, 3, 4, 5) for d in (1, 2, 3)]
    cells += [(k, 4) for k in (2, 3, 4)]
    worst = 0.0
    bad = []
    for k, d in cells:
        t0 = time.perf_counter()
        got = dim_space("bhl", k, d).dim
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        want = comb(comb(k, 2) + d - 1, d)
        if got != want or dt >= 120:
            bad.append((k, d, got, want, round(dt, 1)))
    _verdict(
        "A1", not bad,
        f"dim bhl equals C(C(k,2)+d-1,d) at {len(cells)} cells, "
        f"worst cell {worst:.2f}s" + (f"; mismatches {bad}" if bad else ""),
    )


# -- A2 ---------------------------------------------------------------------------

def _independent_resum(cert, elements_by_rid):
    """Plain dictionary summation, no eliminator or library re-check involved."""
    total = {}
    for rid, coeff in cert.combination:
        for key, c in elements_by_rid[rid].items():
            total[key] = total.get(key, Fraction(0)) + coeff * c
    total = {key: c for key, c in total.items() if c}
    want = {}
    for key, c in cert.target.items():
        want[key] = want.get(key, Fraction(0)) + c
    for key, c in cert.residual.items():
        want[key] = want.get(key, Fraction(0)) - c
    want = {key: c for key, c in want.items() if c}
    return total == want


def _compound_count(k, dmax):
    count = 0
    for d in range(1, dmax + 1):
        for key in enum_forests(k, d):
            D = canonical_diagram(key)
            if any(len(comp) >= 4 for comp in D.components()):
                count += 1
    return count


def test_a2_compound_forests_certified():
    t0 = time.perf_counter()
    total, resummed, expected = 0, 0, 0
    for k in (3, 4, 5):
        certs = verify_main_theorem(k, 3)
        expected += _compound_count(k, 3)
        rid_maps = {d: relator_table(k, d) for d in (2, 3)}
        elements = {d: {rid: r for rid, r in m.items()} for d, m in rid_maps.items()}
        for cert in certs:
            total += 1
            key = next(iter(cert.target.keys()))
            d = canonical_diagram(key).degree()
            if cert.is_member and _independent_resum(cert, elements[d]):
                resummed += 1
    dt = time.perf_counter() - t0
    ok = total == expected == resummed and dt < 600
    _verdict(
        "A2", ok,
        f"{resummed}/{total} certificates re-sum independently, "
        f"covering all {expected} compound forests for k in 3..5, {dt:.1f}s",
    )


# -- A3 ---------------------------------------------------------------------------

def test_a3_star_coefficient():
    results = []
    for m in (0, 1, 2):
        E = empty(3)
        for part in [segment(1, 3, 3)] + [segment(1, 2, 3)] * (1 + m):
            E = disjoint_union(E, part)
        u = next(
            v for v, c in E.legs()
            if c == 1 and any(
                E.colors[w] == 3
                for w in next(cmp_ for cmp_ in E.components() if v in cmp_)
            )
        )
        D = empty(3)
        for part in [tripod(1, 2, 3, 3)] + [segment(1, 2, 3)] * m:
            D = disjoint_union(D, part)
        terms = list(star_relator(E, u, canonicalize(E).key).element.items())
        results.append(
            len(terms) == 1
            and terms[0][0] == canonicalize(D).key
            and abs(terms[0][1]) == 1 + m
        )
    _verdict(
        "A3", all(results),
        "split star relator is exactly +-(1+m)*D for m in 0..2",
    )


# -- A4 ---------------------------------------------------------------------------

def _lyndon_count(n):
    """Permutations of n symbols strictly minimal among their rotations."""
    count = 0
    for p in permutations(range(n)):
        if all(p < p[i:] + p[:i] for i in range(1, n)):
            count += 1
    return count


def _sym_dim(k, d):
    prim = {n: comb(k, n + 1) * _lyndon_count(n) for n in range(1, d + 1)}
    coeffs = [1] + [0] * d
    for n, t in prim.items():
        if t == 0:
            continue
        new = [0] * (d + 1)
        for base, c in enumerate(coeffs):
            if c:
                mult = 0
                while base + mult * n <= d:
                    new[base + mult * n] += c * comb(t + mult - 1, mult)
                    mult += 1
        coeffs = new
    return coeffs[d]


def test_a4_string_link_dims():
    cells = {(3, 2): 7, (3, 3): 13, (4, 2): 25, (4, 3): 82}
    worst = 0.0
    bad = []
    for (k, d), want in cells.items():
        t0 = time.perf_counter()
        got = dim_space("bhsl", k, d).dim
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if not (got == _sym_dim(k, d) == want and dt < 60):
            bad.append((k, d, got, _sym_dim(k, d), want))
    lyndon_ok = all(_lyndon_count(n) == factorial(n - 1) for n in (1, 2, 3, 4))
    _verdict(
        "A4", not bad and lyndon_ok,
        f"dim bhsl matches the symmetric-algebra oracle at {len(cells)} cells "
        f"(Lyndon counts check out), worst cell {worst:.2f}s"
        + (f"; mismatches {bad}" if bad else ""),
    )


# -- A5 ---------------------------------------------------------------------------

def test_a5_bounded_side_descends():
    cells = [(2, 1), (2, 2), (3, 1), (3, 2)]
    dim_ok = all(
        dim_space("ahl", k, d).dim == dim_space("bhl", k, d).dim
        for k, d in cells
    )
    ihx_total, ihx_in_span = 0, 0
    for k, d in cells:
        relators = ihx_relators(enum_forests(k, d))
        ihx_total += len(relators)
        if relators:
            basis = enum_bounded(k, d)
            m = relator_matrix(basis, stu_relators(basis))
            ihx_in_span += sum(
                m.membership(chi_lincomb(r.element, k)).is_member for r in relators
            )
    # the listed cells have no internal edges, so exercise the descent where
    # IHX is live as well
    basis43 = enum_bounded(4, 3)
    m43 = relator_matrix(basis43, stu_relators(basis43))
    live = ihx_relators(enum_forests(4, 3))
    live_ok = all(
        m43.membership(chi_lincomb(r.element, 4)).is_member for r in live
    )
    ok = dim_ok and ihx_total == ihx_in_span and live_ok and len(live) > 0
    _verdict(
        "A5", ok,
        f"dim ahl == dim bhl at {len(cells)} cells; chi(IHX) in STU span "
        f"({ihx_total}/{ihx_total} at the listed sizes, vacuously; "
        f"{len(live)}/{len(live)} live checks at (4,3))",
    )


# -- A6 ---------------------------------------------------------------------------

def _chord_classes_by_degree(dmax):
    return {d: enum_chord(d) for d in range(dmax + 1)}


def test_a6_hopf_compatibility_and_cut_independence():
    t0 = time.perf_counter()

    # coproduct is an algebra map: chord pairs, both operands of degree <= 2
    chords = _chord_classes_by_degree(2)
    chord_pairs = 0
    compat_ok = True
    for d1, cs1 in chords.items():
        for d2, cs2 in chords.items():
            for a in cs1:
                for b in cs2:
                    x, y = LinComb.term(a), LinComb.term(b)
                    if coproduct(product(x, y)) != tensor_product(
                        coproduct(x), coproduct(y)
                    ):
                        compat_ok = False
                    chord_pairs += 1

    # forest pairs with total degree <= 3 at k = 3
    classes = {0: [LinComb.term(canonicalize(empty(3)).key)]}
    for d in (1, 2, 3):
        classes[d] = [LinComb.term(key) for key in enum_forests(3, d)]
    forest_pairs = 0
    for d1 in range(4):
        for d2 in range(4 - d1):
            for x in classes[d1]:
                for y in classes[d2]:
                    if coproduct(product(x, y)) != tensor_product(
                        coproduct(x), coproduct(y)
                    ):
                        compat_ok = False
                    forest_pairs += 1

    # connect sum cut independence modulo 4T, operands of degree 1..3
    cut_checked, cut_ok = 0, True
    spans = {}
    for total in range(2, 7):
        basis = enum_chord(total)
        m = SparseRationalMatrix(basis)
        m.add_relators(four_t_relators(basis))
        spans[total] = m
    for d1 in (1, 2, 3):
        for d2 in (1, 2, 3):
            m = spans[d1 + d2]
            for a in enum_chord(d1):
                for b in enum_chord(d2):
                    c1, c2 = chord_from_key(a), chord_from_key(b)
                    base = inject_chord(connect_sum(c1, c2, 0, 0))
                    for a1 in range(2 * d1):
                        for a2 in range(2 * d2):
                            diff = base - inject_chord(connect_sum(c1, c2, a1, a2))
                            if not diff.is_zero() and not m.in_span(diff):
                                cut_ok = False
                    cut_checked += 1
    dt = time.perf_counter() - t0
    ok = compat_ok and cut_ok
    _verdict(
        "A6", ok,
        f"coproduct respects products ({chord_pairs} chord pairs, "
        f"{forest_pairs} forest pairs); connect sum cut-independent mod 4T "
        f"({cut_checked} operand pairs, all arcs), {dt:.1f}s",
    )


# -- A7 ---------------------------------------------------------------------------

def _oracle_matchings(points):
    if not points:
        yield ()
        return
    a = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1:]
        for m in _oracle_matchings(rest):
            yield ((a, points[i]),) + m


def _oracle_canon(pairing, n):
    return min(
        tuple((pairing[(i + r) % n] - r) % n for i in range(n))
        for r in range(n)
    )


def _oracle_chord_dim(d):
    """Dense, self-contained: enumerate, build 1T+4T rows, eliminate."""
    n = 2 * d
    all_pairings = []
    for m in _oracle_matchings(tuple(range(n))):
        pairing = [0] * n
        for a, b in m:
            pairing[a], pairing[b] = b, a
        all_pairings.append(tuple(pairing))
    classes = sorted({_oracle_canon(p, n) for p in all_pairings})
    index = {c: i for i, c in enumerate(classes)}
    rows = []

    def unit_row():
        return [Fraction(0)] * len(classes)

    # 1T: an isolated chord (adjacent endpoints) kills the class
    for c in classes:
        if any(c[i] == (i + 1) % n for i in range(n)):
            row = unit_row()
            row[index[c]] = Fraction(1)
            rows.append(row)

    # 4T: slide one free endpoint past both ends of another chord;
    # before/after insertions alternate signs and the four terms cancel
    for pairing in all_pairings:
        for x in range(n):
            y = pairing[x]
            order = [p for p in range(n) if p != x]   # circle minus x
            pos = {p: i for i, p in enumerate(order)}
            for u in range(n):
                if u in (x, y) or pairing[u] in (x, y):
                    continue
                v = pairing[u]
                row = unit_row()
                for anchor, sign in ((u, 1), (v, 1)):
                    for offset, s in ((0, sign), (1, -sign)):
                        slot = pos[anchor] + offset
                        new_pairing = [0] * n
                        shifted = order[:slot] + [None] + order[slot:]
                        renum = {p: i for i, p in enumerate(shifted) if p is not None}
                        xi = shifted.index(None)
                        for a in range(n):
                            if a == x:
                                continue
                            b = pairing[a]
                            if b == x:
                                new_pairing[renum[a]], new_pairing[xi] = xi, renum[a]
                            else:
                                new_pairing[renum[a]] = renum[b]
                        row[index[_oracle_canon(tuple(new_pairing), n)]] += s
                if any(row):
                    rows.append(row)

    rank = 0
    for col in range(len(classes)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return len(classes) - rank


def test_a7_knot_chord_dims():
    t0 = time.perf_counter()
    want = {1: 0, 2: 1, 3: 1, 4: 3}
    got = {d: dim_space("chord", None, d).dim for d in want}
    oracle = {d: _oracle_chord_dim(d) for d in want}
    dt = time.perf_counter() - t0
    ok = got == oracle == want and dt < 60
    _verdict(
        "A7", ok,
        f"chord dims mod 1T+4T {tuple(got[d] for d in sorted(got))} match the "
        f"dense oracle and 0,1,1,3, {dt:.1f}s",
    )


# -- A8 ---------------------------------------------------------------------------

def test_a8_linking_matrix_invariance():
    t0 = time.perf_counter()
    want = {
        "unlink2.gauss": [[0, 0], [0, 0]],
        "hopf.gauss": [[0, 1], [1, 0]],
        "whitehead.gauss": [[0, 0], [0, 0]],
    }
    moves_per_walk, seeds = 1000, range(10)
    stable = True
    for name, matrix in want.items():
        L0 = parse_gauss((FIXTURES / name).read_text())
        if linking_matrix(L0) != matrix:
            stable = False
            continue
        for seed in seeds:
            rng = random.Random(seed)
            L = L0
            for _ in range(moves_per_walk):
                L, _move = random_homotopy_move(L, rng)
                if linking_matrix(L) != matrix:
                    stable = False
                    break
    dt = time.perf_counter() - t0
    ok = stable and dt < 60
    _verdict(
        "A8", ok,
        "linking matrices 0/+1/0 on unlink, Hopf, Whitehead; invariant under "
        f"{moves_per_walk} moves x {len(list(seeds))} seeds each, {dt:.1f}s",
    )
