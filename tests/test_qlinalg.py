"""Unit tests for exact sparse elimination and membership certificates.

Core claims:
    - ranks agree with an independently coded dense Fraction eliminator
    - every relator row is a member of its own span with zero residual
    - certificates replay: sum(coeff * relator) + residual == target
    - rank is invariant under row shuffles
    - duplicate or unknown basis keys are rejected
    - rank and residual, which track no combinations, leave membership
      certificates unchanged, agree with them, and build no pivot
      expressions
    - the integer kernel gives the same rank, span answers, residuals and
      whole certificates as the rational elimination it replaced (kept below
      as an oracle), on non-integral rows, fractional targets and shuffled
      orders; a residual is the same for two targets whose difference lies
      in the span
    - a matrix keeps only the rows that made a pivot
"""

import heapq
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from linkhom.lincomb import LinComb
from linkhom.qlinalg import (
    MembershipCertificate,
    SparseRationalMatrix,
    certificate_doc,
    certificate_from_doc,
    relator_matrix,
    verify_certificate,
)
from linkhom.relators import Relator


# -- Dense oracle --------------------------------------------------------------

def _dense_rank(rows, ncols):
    """Textbook Gaussian elimination on dense Fraction rows."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


class _RationalOracle:
    """The earlier Fraction eliminator: every pivot scaled to lead 1, each
    surviving row replayed with tracking for its relator expression."""

    def __init__(self, keys, relators):
        self.columns = list(keys)
        index = {key: i for i, key in enumerate(keys)}
        self.index = index
        self.rows = [(r.rid, {index[k]: c for k, c in r.element.items()})
                     for r in relators if not r.element.is_zero()]
        self.pivots = self._eliminate()

    @staticmethod
    def _reduce(vec, combo, pivots):
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
        pivots = {}
        for rid, row in self.rows:
            vec, _ = self._reduce(dict(row), None, pivots)
            if not vec:
                continue
            vec, combo = self._reduce(dict(row), {}, pivots)
            lead = min(vec)
            scale = Fraction(1) / vec[lead]
            vec = {c: x * scale for c, x in vec.items()}
            expr = {rid: scale}
            for r, x in combo.items():
                s = expr.get(r, 0) - x * scale
                if s:
                    expr[r] = s
                else:
                    expr.pop(r, None)
            pivots[lead] = (vec, expr)
        return pivots

    def _cols(self, target):
        return {self.index[k]: c for k, c in target.items()}

    def in_span(self, target):
        vec, _ = self._reduce(self._cols(target), None, self.pivots)
        return not vec

    def membership(self, target):
        vec, combo = self._reduce(self._cols(target), {}, self.pivots)
        residual = LinComb({self.columns[c]: x for c, x in vec.items()})
        return MembershipCertificate(target, tuple(sorted(combo.items())), residual)


def _keys(n):
    return [bytes([0x7A, i]) for i in range(n)]


def _lincomb(keys, row):
    return LinComb({keys[c]: Fraction(v) for c, v in row.items() if v})


def _random_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows.append({c: v for c, v in row.items() if v})
    return rows


# -- Agreement with the rational oracle -------------------------------------------

@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_integer_kernel_matches_rational_oracle(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 9)
    keys = _keys(ncols)
    rows = [r for r in _random_rows(rng, rng.randint(0, 14), ncols) if r]
    # a few dependent rows with fractional multipliers, so rows reduce to zero
    for _ in range(rng.randint(0, 3)):
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            f = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            row = {c: a.get(c, 0) + f * b.get(c, 0) for c in set(a) | set(b)}
            rows.append({c: v for c, v in row.items() if v})
    relators = [Relator(f"r{i}", _lincomb(keys, row)) for i, row in enumerate(rows)]
    targets = [r.element for r in relators]
    targets += [_lincomb(keys, row) for row in _random_rows(rng, 4, ncols, density=0.7)]
    targets.append(sum((r.element.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
                        for r in relators), LinComb.zero()))
    for _ in range(3):
        oracle = _RationalOracle(keys, relators)
        m = relator_matrix(keys, relators)
        assert m.rank() == len(oracle.pivots)
        # only the rows that made a pivot are kept
        assert len(m.rows) == m.rank()
        for t in targets:
            assert m.residual(t).is_zero() == oracle.in_span(t)
            assert m.residual(t) == oracle.membership(t).residual
            assert m.membership(t) == oracle.membership(t)
            assert m.residual(t + targets[-1]) == m.residual(t)
        rng.shuffle(relators)


def test_rank_and_in_span_build_no_expressions():
    # residual is the untracked reduction, so it builds none either
    rng = random.Random(5)
    keys = _keys(6)
    rows = [r for r in _random_rows(rng, 9, 6) if r]
    m = relator_matrix(keys, [Relator(f"r{i}", _lincomb(keys, row))
                              for i, row in enumerate(rows)])
    assert m.rank() > 0
    assert m.residual(_lincomb(keys, rows[0])).is_zero()
    m.residual(_lincomb(keys, {0: Fraction(1, 3), 5: 2}))
    assert m.residual(_lincomb(keys, rows[0])).is_zero()
    assert m._exprs is None
    m.membership(_lincomb(keys, rows[0]))
    assert m._exprs is not None
    m.add_row(_lincomb(keys, {1: 1}), "extra")
    assert m._exprs is None


# -- Rank agreement -------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_matches_dense_oracle(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 8)
    nrows = rng.randint(0, 12)
    rows = _random_rows(rng, nrows, ncols)
    keys = _keys(ncols)
    m = SparseRationalMatrix(keys)
    for i, row in enumerate(rows):
        if row:
            m.add_row(_lincomb(keys, row), f"r{i}")
    assert m.rank() == _dense_rank(rows, ncols)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rank_invariant_under_row_shuffle(seed):
    rng = random.Random(seed)
    ncols = rng.randint(2, 7)
    rows = [r for r in _random_rows(rng, 10, ncols) if r]
    keys = _keys(ncols)

    def rank_of(order):
        m = SparseRationalMatrix(keys)
        for i in order:
            m.add_row(_lincomb(keys, rows[i]), f"r{i}")
        return m.rank()

    order = list(range(len(rows)))
    base = rank_of(order)
    for _ in range(3):
        rng.shuffle(order)
        assert rank_of(order) == base


# -- Membership and certificates --------------------------------------------------

@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rows_belong_to_own_span(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 7)
    rows = [r for r in _random_rows(rng, 8, ncols) if r]
    keys = _keys(ncols)
    relators = [Relator(f"r{i}", _lincomb(keys, row)) for i, row in enumerate(rows)]
    m = relator_matrix(keys, relators)
    by_id = {r.rid: r.element for r in relators}
    for r in relators:
        cert = m.membership(r.element)
        assert cert.is_member
        assert verify_certificate(cert, by_id)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_certificate_replays_even_for_nonmembers(seed):
    rng = random.Random(seed)
    ncols = rng.randint(2, 7)
    rows = [r for r in _random_rows(rng, 4, ncols) if r]
    keys = _keys(ncols)
    relators = [Relator(f"r{i}", _lincomb(keys, row)) for i, row in enumerate(rows)]
    m = relator_matrix(keys, relators)
    by_id = {r.rid: r.element for r in relators}
    target = _lincomb(keys, _random_rows(rng, 1, ncols, density=0.7)[0])
    cert = m.membership(target)
    # residual absorbs whatever the span missed; the identity always holds
    assert verify_certificate(cert, by_id)


def test_random_combination_is_member():
    rng = random.Random(11)
    keys = _keys(6)
    rows = [r for r in _random_rows(rng, 5, 6) if r]
    relators = [Relator(f"r{i}", _lincomb(keys, row)) for i, row in enumerate(rows)]
    m = relator_matrix(keys, relators)
    combo = LinComb.zero()
    for r in relators:
        combo = combo + r.element.scale(Fraction(rng.randint(-2, 2)))
    cert = m.membership(combo)
    assert cert.is_member


def test_membership_of_zero_is_trivial():
    keys = _keys(3)
    m = SparseRationalMatrix(keys)
    cert = m.membership(LinComb.zero())
    assert cert.is_member
    assert cert.combination == ()


# -- Construction errors -----------------------------------------------------------

def test_duplicate_basis_keys_rejected():
    with pytest.raises(ValueError):
        SparseRationalMatrix([b"a", b"a"])


def test_unknown_key_rejected():
    m = SparseRationalMatrix([b"a", b"b"])
    with pytest.raises(ValueError):
        m.add_row(LinComb({b"c": Fraction(1)}))


def test_rank_skips_dependent_row():
    keys = _keys(4)
    m = SparseRationalMatrix(keys)
    m.add_row(_lincomb(keys, {0: 1, 1: -1}), "r0")
    m.add_row(_lincomb(keys, {1: 1, 2: -1}), "r1")
    m.add_row(_lincomb(keys, {0: 1, 2: -1}), "r2")   # dependent
    assert m.rank() == 2
    assert m.residual(_lincomb(keys, {0: 1, 2: -1})).is_zero()
    assert not m.residual(_lincomb(keys, {3: 1})).is_zero()


# -- Untracked queries ---------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_untracked_queries_leave_certificates_unchanged(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 7)
    keys = _keys(ncols)
    rows = [r for r in _random_rows(rng, 8, ncols) if r]
    relators = [Relator(f"r{i}", _lincomb(keys, row)) for i, row in enumerate(rows)]
    by_id = {r.rid: r.element for r in relators}
    ranked, fresh = relator_matrix(keys, relators), relator_matrix(keys, relators)
    ranked.rank()
    # every pivot row re-sums from its recorded relator expression,
    # den * pivot = sum(expr * relators)
    exprs = ranked._expressions()
    for lead, vec in ranked._eliminate().items():
        assert lead == min(vec) and vec[lead] > 0 and gcd(*vec.values()) == 1
        den, expr = exprs[lead]
        total = LinComb.zero()
        for rid, x in expr.items():
            total = total + by_id[rid].scale(Fraction(x, den))
        assert total == _lincomb(keys, vec)
    targets = [r.element for r in relators]
    targets += [_lincomb(keys, row) for row in _random_rows(rng, 4, ncols, density=0.6)]
    for t in targets:
        cert = ranked.membership(t)
        assert cert == fresh.membership(t)
        assert ranked.residual(t).is_zero() == cert.is_member
        assert verify_certificate(cert, by_id)


# -- Serialization --------------------------------------------------------------------

def test_certificate_doc_round_trip():
    keys = _keys(3)
    target = _lincomb(keys, {0: Fraction(3, 2), 2: -1})
    cert = MembershipCertificate(
        target, (("r0", Fraction(1, 3)), ("r1", Fraction(-2))), LinComb.zero()
    )
    back = certificate_from_doc(certificate_doc(cert))
    assert back.target == cert.target
    assert back.combination == cert.combination
    assert back.residual == cert.residual
    assert back.is_member


# -- LinComb basics --------------------------------------------------------------------

def test_lincomb_arithmetic():
    a = LinComb({b"x": Fraction(1, 2)})
    b = LinComb({b"x": Fraction(1, 2), b"y": Fraction(-1)})
    assert (a + a) == LinComb({b"x": Fraction(1)})
    assert (a - b) == LinComb({b"y": Fraction(1)})
    assert (a - a).is_zero()
    assert b.scale(Fraction(0)).is_zero()
    assert -b == b.scale(Fraction(-1))


def test_lincomb_drops_zero_terms():
    a = LinComb({b"x": Fraction(0), b"y": Fraction(2)})
    assert list(a.keys()) == [b"y"]
    assert a.get(b"x") == 0
