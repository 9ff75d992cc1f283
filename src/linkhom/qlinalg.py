"""Exact rational elimination with membership certificates.

Rows are sparse Fraction vectors over a fixed, sorted column basis of
canonical keys.  Elimination is deterministic: rows are processed in input
order, the pivot of a row is its first surviving nonzero column, and every
pivot is scaled to 1.  Echelon rows remember their expression in the original
relators, so membership reductions come with replayable certificates that a
plain summation can re-check without touching the eliminator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .lincomb import LinComb, doc_field, lincomb_from_doc, terms_doc


@dataclass(frozen=True)
class MembershipCertificate:
    target: LinComb
    combination: tuple      # ((relator id, Fraction), ...) sorted by id
    residual: LinComb

    @property
    def is_member(self) -> bool:
        return self.residual.is_zero()


class SparseRationalMatrix:
    """Relator rows over a fixed basis: rank and in_span never build relator
    combinations, and membership always does."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        self._col_index = {key: i for i, key in enumerate(self.columns)}
        if len(self._col_index) != len(self.columns):
            raise ValueError("duplicate basis keys")
        self.rows = []          # (rid, {col: Fraction})
        self._pivots = None     # col -> (rowvec, expr {rid: Fraction})

    def _to_cols(self, element: LinComb) -> dict:
        out = {}
        for key, coeff in element.items():
            col = self._col_index.get(key)
            if col is None:
                raise ValueError(f"key {key.hex()} is not in the basis")
            out[col] = coeff
        return out

    def add_row(self, element: LinComb, rid=None):
        if rid is None:
            rid = f"row{len(self.rows)}"
        self.rows.append((rid, self._to_cols(element)))
        self._pivots = None

    def add_relators(self, relators):
        for rel in relators:
            if not rel.element.is_zero():
                self.add_row(rel.element, rel.rid)

    @staticmethod
    def _reduce(vec, combo, pivots):
        # Worklist in ascending column order.  Subtracting a pivot row can
        # populate columns that were zero on entry, so the frontier has to
        # grow as it is consumed; pivot rows only reach columns above their
        # lead, hence every push is above the column being cleared.
        #
        # Pivot rows satisfy pvec = sum(pcombo[rid] * relator rid), so the
        # quantity vec + sum(combo * relators) is preserved by every step.
        frontier = sorted(vec)
        queued = set(frontier)
        heapq.heapify(frontier)
        while frontier:
            col = heapq.heappop(frontier)
            queued.discard(col)
            piv = pivots.get(col)
            if piv is None or not vec.get(col):
                continue
            factor = vec[col]
            pvec, pcombo = piv
            for c, x in pvec.items():
                s = vec.get(c, 0) - factor * x
                if s:
                    vec[c] = s
                    if c not in queued:
                        queued.add(c)
                        heapq.heappush(frontier, c)
                else:
                    vec.pop(c, None)
            if combo is not None:
                for rid, x in pcombo.items():
                    s = combo.get(rid, 0) + factor * x
                    if s:
                        combo[rid] = s
                    else:
                        combo.pop(rid, None)
        return vec, combo

    def _eliminate(self):
        if self._pivots is not None:
            return self._pivots
        pivots = {}
        for rid, row in self.rows:
            vec, _ = self._reduce(dict(row), None, pivots)
            if not vec:
                continue
            # only a surviving row needs its expression in the relators; the
            # tracked replay sees the same pivots, so vec comes out the same
            vec, combo = self._reduce(dict(row), {}, pivots)
            lead = min(vec)
            assert lead not in pivots, "reduced row must lead a fresh column"
            scale = Fraction(1) / vec[lead]
            vec = {c: x * scale for c, x in vec.items()}
            # reduction left vec = row - sum(combo * relators), so the stored
            # expression of vec in the relators negates combo
            expr = {rid: scale}
            for r, x in combo.items():
                s = expr.get(r, 0) - x * scale
                if s:
                    expr[r] = s
                else:
                    expr.pop(r, None)
            pivots[lead] = (vec, expr)
        self._pivots = pivots
        return pivots

    def rank(self) -> int:
        return len(self._eliminate())

    def in_span(self, target: LinComb) -> bool:
        """Whether target lies in the row span, without a certificate."""
        vec, _ = self._reduce(self._to_cols(target), None, self._eliminate())
        return not vec

    def membership(self, target: LinComb) -> MembershipCertificate:
        """Reduce target against the row span; zero residual means member.

        The certificate satisfies sum(coeff * relator) = target - residual.
        """
        vec, combo = self._reduce(self._to_cols(target), {}, self._eliminate())
        residual = LinComb({self.columns[c]: x for c, x in vec.items()})
        return MembershipCertificate(target, tuple(sorted(combo.items())), residual)


def relator_matrix(basis_keys, relators) -> SparseRationalMatrix:
    """Matrix over the given keys, zero relator elements dropped."""
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
