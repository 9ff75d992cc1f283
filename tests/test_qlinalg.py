"""Unit tests for exact sparse elimination and membership certificates.

Core claims:
    - ranks agree with an independently coded dense Fraction eliminator
    - every relator row is a member of its own span with zero residual
    - certificates replay: sum(coeff * relator) + residual == target
    - rank is invariant under row shuffles
    - duplicate or unknown basis keys are rejected
    - rank and in_span, which track no combinations, leave membership
      certificates unchanged and agree with them
"""

import random
from fractions import Fraction

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
    assert m.in_span(_lincomb(keys, {0: 1, 2: -1}))
    assert not m.in_span(_lincomb(keys, {3: 1}))


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
    # every pivot row re-sums from its recorded relator expression
    for vec, expr in ranked._eliminate().values():
        total = LinComb.zero()
        for rid, x in expr.items():
            total = total + by_id[rid].scale(x)
        assert total == _lincomb(keys, vec)
    targets = [r.element for r in relators]
    targets += [_lincomb(keys, row) for row in _random_rows(rng, 4, ncols, density=0.6)]
    for t in targets:
        cert = ranked.membership(t)
        assert cert == fresh.membership(t)
        assert ranked.in_span(t) == cert.is_member
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
