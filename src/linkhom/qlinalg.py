"""Exact elimination with membership certificates, on integer rows.

Rows are sparse integer vectors over a fixed column order of canonical
keys; a relator with integer coefficients enters as it is, one with
rational coefficients as the integer multiple that clears its
denominators, and an integer row over the column indices through
add_int_row.  Elimination is fraction-free and deterministic: rows are
processed in input order, a reduction step at column col is
vec <- a*vec - b*pvec with a = lead/g, b = vec[col]/g and
g = gcd(vec[col], lead), and a row that survives becomes a pivot after
division by the gcd of its entries, with its lead made positive; a row's
lead is its first column in that order.  Every step
is a nonzero multiple of the rational step against a pivot scaled to lead 1,
so the pivots, residuals and certificates equal those of rational
elimination.  Fractions appear only at the boundary: certificate coefficients
and the residual.

Each row is reduced as it is added, and only a row that makes a pivot is
kept, so a stream of relators costs the memory of its pivots.  Pivot
expressions in the relators are built on the first membership call, by
replaying the kept rows in creation order against the pivots made before
each; membership reductions then come with replayable certificates that a
plain summation can re-check without touching the eliminator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .lincomb import LinComb, doc_field, lincomb_from_doc, terms_doc


@dataclass(frozen=True)
class MembershipCertificate:
    target: LinComb
    combination: tuple      # ((relator id, Fraction), ...) sorted by id
    residual: LinComb

    @property
    def is_member(self) -> bool:
        return self.residual.is_zero()


def _make_primitive(vec) -> int:
    """Divide vec by the gcd of its entries, signed so the lead turns
    positive; return that signed divisor."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    for c in vec:
        vec[c] //= g
    return g


class SparseRationalMatrix:
    """Relator rows over a fixed basis, each reduced on arrival against the
    pivots made so far; rows is only those that made a pivot.  rank and
    residual build no relator combinations; the first membership call
    builds the pivot expressions, once."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        self._col_index = {key: i for i, key in enumerate(self.columns)}
        if len(self._col_index) != len(self.columns):
            raise ValueError("duplicate basis keys")
        self.rows = []          # (rid, {col: int}, m) with the int row = m * relator
        self._pivots = {}       # lead col -> primitive int row with positive lead
        self._exprs = None      # lead col -> (den, {rid: int}), den * pivot = sum(c * relator)

    def _to_cols(self, element: LinComb):
        """(vec, m): the integer vector m * element, m its least denominator."""
        vec, m, ints = {}, 1, True
        for key, coeff in element.items():
            col = self._col_index.get(key)
            if col is None:
                raise ValueError(f"key {key.hex()} is not in the basis")
            vec[col] = coeff
            if type(coeff) is not int:
                ints = False
                m = lcm(m, coeff.denominator)
        if ints:
            return vec, 1
        return {col: c.numerator * (m // c.denominator) for col, c in vec.items()}, m

    def add_row(self, element: LinComb, rid=None):
        """Reduce element against the pivots; keep it when a pivot is left."""
        row, m = self._to_cols(element)
        self.add_int_row(row, rid, m)

    def add_int_row(self, row: dict, rid=None, m: int = 1):
        """Reduce the integer row {col: int}, m times the relator rid,
        against the pivots; keep it when a pivot is left."""
        if rid is None:
            rid = f"row{len(self.rows)}"
        vec = dict(row)
        self._reduce(vec, self._pivots)
        self._exprs = None
        if vec:
            _make_primitive(vec)
            lead = min(vec)
            assert lead not in self._pivots, "reduced row must lead a fresh column"
            self._pivots[lead] = vec
            self.rows.append((rid, row, m))

    def add_relators(self, relators) -> int:
        """Add each nonzero relator element; return how many relators came."""
        count = 0
        for rel in relators:
            count += 1
            if not rel.element.is_zero():
                self.add_row(rel.element, rel.rid)
        return count

    @staticmethod
    def _reduce(vec, pivots, exprs=None, combo=None) -> int:
        """Clear every pivot column of the integer vector vec, in place.

        Worklist in ascending column order.  Subtracting a pivot row can
        populate columns that were zero on entry, so the frontier has to grow
        as it is consumed; pivot rows only reach columns above their lead,
        hence every push is above the column being cleared.

        With exprs (lead -> (pden, pcombo)) the integer combination combo,
        keyed by relator id, is carried along so that
        den * vec = sum(combo[k] * relator k) holds after every step, given
        that it held with den = 1 on entry; the final den is returned.
        """
        den = 1
        frontier = sorted(vec)
        queued = set(frontier)
        heapq.heapify(frontier)
        while frontier:
            col = heapq.heappop(frontier)
            queued.discard(col)
            x = vec.get(col)
            pvec = pivots.get(col)
            if pvec is None or not x:
                continue
            lead = pvec[col]
            g = gcd(x, lead)
            a, b = lead // g, x // g
            if a != 1:
                for c in vec:
                    vec[c] *= a
            for c, y in pvec.items():
                s = vec.get(c, 0) - b * y
                if s:
                    vec[c] = s
                    if c not in queued:
                        queued.add(c)
                        heapq.heappush(frontier, c)
                else:
                    vec.pop(c, None)
            if exprs is not None:
                pden, pcombo = exprs[col]
                new_den = lcm(den, pden)
                fa, fb = a * (new_den // den), b * (new_den // pden)
                den = new_den
                if fa != 1:
                    for k in combo:
                        combo[k] *= fa
                for k, y in pcombo.items():
                    s = combo.get(k, 0) - fb * y
                    if s:
                        combo[k] = s
                    else:
                        combo.pop(k, None)
        return den

    def _eliminate(self):
        """The pivot map, keyed by lead column."""
        return self._pivots

    def _expressions(self):
        """Pivot expressions in the relators.  Each kept row is replayed, in
        creation order, against the pivots made before it, which are the
        ones it was reduced against, so the same steps recur."""
        if self._exprs is not None:
            return self._exprs
        pivots = self._eliminate()
        made, exprs = {}, {}
        for rid, row, m in self.rows:
            vec, combo = dict(row), {rid: m}
            den = self._reduce(vec, made, exprs, combo) * _make_primitive(vec)
            lead = min(vec)
            g = gcd(den, *combo.values())
            made[lead] = pivots[lead]
            exprs[lead] = (den // g, {k: x // g for k, x in combo.items()})
        self._exprs = exprs
        return exprs

    def rank(self) -> int:
        return len(self._eliminate())

    def residual(self, target: LinComb) -> LinComb:
        """The untracked reduction of target, exact: zero when target lies in
        the row span, and the same for two targets whose difference does."""
        vec, m = self._to_cols(target)
        # a sentinel column past the basis holds m: every step scales it and
        # no pivot reaches it, so vec ends as sentinel * residual
        sentinel = len(self.columns)
        vec[sentinel] = m
        self._reduce(vec, self._eliminate())
        s = vec.pop(sentinel)
        return LinComb({self.columns[c]: Fraction(x, s) for c, x in vec.items()})

    def membership(self, target: LinComb) -> MembershipCertificate:
        """Reduce target against the row span; zero residual means member.

        The certificate satisfies sum(coeff * relator) = target - residual.
        """
        pivots, exprs = self._eliminate(), self._expressions()
        vec, m = self._to_cols(target)
        # the key None stands for the target among the relator ids
        combo = {None: m}
        den = self._reduce(vec, pivots, exprs, combo)
        t = combo.pop(None)
        # den * vec = t * target + sum(combo * relators)
        residual = LinComb({self.columns[c]: Fraction(den * x, t) for c, x in vec.items()})
        combination = tuple(sorted((rid, Fraction(-x, t)) for rid, x in combo.items()))
        return MembershipCertificate(target, combination, residual)


def relator_matrix(basis_keys, relators) -> SparseRationalMatrix:
    """Matrix over the given keys with the relators added in order; a row
    that reduces to zero is not kept."""
    m = SparseRationalMatrix(basis_keys)
    m.add_relators(relators)
    return m


def verify_certificate(cert: MembershipCertificate, relators_by_id) -> bool:
    """Re-check a certificate by plain summation, independent of elimination."""
    total = LinComb.zero()
    for rid, coeff in cert.combination:
        total = total + relators_by_id[rid].scale(coeff)
    return total + cert.residual == cert.target


def certificate_doc(cert: MembershipCertificate) -> dict:
    return {
        "target": terms_doc(cert.target),
        "combination": [{"relator": rid, "coeff": str(c)} for rid, c in cert.combination],
        "residual": terms_doc(cert.residual),
    }


def _combination_from_doc(terms) -> tuple:
    if not isinstance(terms, list):
        raise TypeError("terms must be a JSON array")
    out = []
    for t in terms:
        if not isinstance(t["relator"], str):
            raise TypeError(f"relator id {t['relator']!r} is not a string")
        out.append((t["relator"], Fraction(t["coeff"])))
    return tuple(out)


def certificate_from_doc(doc) -> MembershipCertificate:
    return MembershipCertificate(
        doc_field(doc, "target", lincomb_from_doc),
        doc_field(doc, "combination", _combination_from_doc),
        doc_field(doc, "residual", lincomb_from_doc),
    )
