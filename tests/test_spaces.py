"""Unit tests for quotient space dimensions, the averaging map, reductions.

Core claims:
    - forest-side dims with star relators match the polynomial count
      C(C(k,2)+d-1, d) cell by cell
    - string-link dims match the symmetric-algebra reference values
    - bounded-side dims agree with forest-side dims where both are in budget
    - knot chord dims modulo 1T+4T are 0, 1, 1, 3, and the chord pipeline
      reads keys without building a chord diagram
    - chi kills boring diagrams and averages legs with uniform weights
    - chi carries IHX relators into the STU span and star relators into
      the STU+link1 span
    - the main theorem verifier certifies every compound component and its
      certificates replay by plain summation
    - a relator id rebuilds to the element the whole-basis relator table
      holds for it, and names a relator exactly when the table has it
    - monomial reduction reads off segment multiplicities
    - out-of-budget requests raise before any work happens
    - the support-block sum gives the report of the whole-cell pipeline
      (whole basis, every relator, one matrix), byte for byte
    - the bhl and ahl block on colors 1..m has the dimension of the loopless
      multigraphs with d edges on m labeled vertices and none isolated
"""

from fractions import Fraction
from math import comb

import pytest

from linkhom.chords import ChordDiagram
from linkhom.diagrams import (
    canonical_diagram,
    canonicalize,
    disjoint_union,
    empty,
    inject,
    segment,
    tripod,
)
from linkhom.errors import BudgetError, DiagramError, VerificationError
from linkhom.lincomb import LinComb
from linkhom.qlinalg import relator_matrix, verify_certificate
from linkhom.relators import ihx_relators, link1_relators, star_relators, stu_relators
from linkhom.bases import enum_forests
from linkhom.bounded import enum_bounded
from linkhom.spaces import (
    _relators_for,
    check_budget,
    chi,
    dim_block,
    dim_space,
    monomial_str,
    reduce_to_monomials,
    relator_by_id,
    space_basis,
    verify_main_theorem,
)


def polynomial_dimension(k: int, d: int) -> int:
    """Degree-d dimension of a polynomial ring on C(k,2) degree-one generators."""
    return comb(comb(k, 2) + d - 1, d) if d else 1


def chi_lincomb(L: LinComb, k: int) -> LinComb:
    """chi extended linearly to a combination of forest keys."""
    out = LinComb.zero()
    for key, coeff in L.items():
        out = out + chi(canonical_diagram(key), k).scale(coeff)
    return out


def relator_table(k: int, d: int) -> dict:
    """Every star and IHX relator of bhl(k, d) by id, generated over the
    whole basis: the oracle for relator_by_id, which rebuilds one from its
    id alone."""
    basis = space_basis("bhl", k, d)
    return {r.rid: r.element for r in star_relators(basis) + ihx_relators(basis)}


def whole_cell_doc(space: str, k: int, d: int) -> dict:
    """dim --json of a cell by the whole-cell pipeline: every basis element,
    every relator, one matrix.  The oracle for the support-block sum."""
    keys = space_basis(space, k, d)
    groups = _relators_for(space, keys)
    rank = relator_matrix(keys, [r for rs in groups.values() for r in rs]).rank()
    return {"space": space, "k": k, "d": d, "basis": len(keys),
            "relators": {name: len(rs) for name, rs in sorted(groups.items())},
            "rank": rank, "dim": len(keys) - rank}


def full_support_multigraphs(m: int, d: int) -> int:
    """Loopless multigraphs with d edges on m labeled vertices, none isolated,
    by inclusion-exclusion over the vertices left bare; polynomial_dimension
    counts them with isolated vertices allowed."""
    return sum((-1) ** (m - j) * comb(m, j) * polynomial_dimension(j, d) for j in range(m + 1))


def _union(parts, k):
    out = empty(k)
    for p in parts:
        out = disjoint_union(out, p)
    return out


# -- Dimensions -----------------------------------------------------------------

@pytest.mark.parametrize("k,d", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_bhl_dim_is_polynomial_count(k, d):
    assert dim_space("bhl", k, d).dim == polynomial_dimension(k, d)


def test_polynomial_dimension_values():
    assert polynomial_dimension(3, 2) == 6
    assert polynomial_dimension(4, 3) == 56
    assert polynomial_dimension(5, 3) == 220
    assert polynomial_dimension(2, 4) == 1


@pytest.mark.parametrize("k,d,dim", [(3, 2, 7), (3, 3, 13), (4, 2, 25)])
def test_bhsl_reference_dims(k, d, dim):
    assert dim_space("bhsl", k, d).dim == dim


@pytest.mark.parametrize("k,d", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_bounded_side_agrees_with_forest_side(k, d):
    assert dim_space("ahl", k, d).dim == dim_space("bhl", k, d).dim
    assert dim_space("ahsl", k, d).dim == dim_space("bhsl", k, d).dim


@pytest.mark.parametrize("space,k,d", [
    *((space, k, d) for space in ("bhsl", "bhl", "ahsl", "ahl")
      for k in range(1, 6) for d in range(4)),
    ("bhl", 4, 4),
])
def test_block_sum_matches_the_whole_cell(space, k, d):
    assert dim_space(space, k, d).to_doc() == whole_cell_doc(space, k, d)


def test_full_support_multigraph_values():
    assert [full_support_multigraphs(m, 3) for m in range(7)] == [0, 0, 1, 7, 22, 30, 15]
    assert [full_support_multigraphs(m, 0) for m in range(3)] == [1, 0, 0]
    # summed over the supports of a cell, the count is polynomial_dimension
    assert sum(comb(5, m) * full_support_multigraphs(m, 3) for m in range(6)) == \
        polynomial_dimension(5, 3)


@pytest.mark.parametrize("space,m,d", [
    *((space, m, d) for space in ("bhl", "ahl") for d in range(4) for m in range(6)),
    *(("bhl", m, 4) for m in range(5)),
])
def test_support_block_dim_counts_multigraphs(space, m, d):
    block = dim_block(space, max(m, 1), d, m)
    want = full_support_multigraphs(m, d)
    assert block.dim == want, f"{space} block on colors 1..{m}, d={d}: dim {block.dim}, want {want}"


@pytest.mark.parametrize("d,dim", [(1, 0), (2, 1), (3, 1)])
def test_knot_chord_dims(d, dim):
    assert dim_space("chord", None, d).dim == dim


def test_chord_dim_builds_no_chord_diagram(monkeypatch):
    def refuse(self):
        raise AssertionError("a ChordDiagram was built")
    monkeypatch.setattr(ChordDiagram, "__post_init__", refuse)
    assert dim_space("chord", None, 5).dim == 4


def test_space_report_doc_shape():
    doc = dim_space("bhl", 3, 2).to_doc()
    assert doc["space"] == "bhl"
    assert doc["basis"] == 7
    assert doc["dim"] == 6
    assert set(doc["relators"]) == {"ihx", "star"}


def test_space_basis_sizes():
    assert len(space_basis("bhl", 3, 2)) == 7
    assert len(space_basis("ahl", 3, 2)) == 13
    assert len(space_basis("chord", None, 2)) == 2


# -- Budget ----------------------------------------------------------------------

def test_budget_rejects_large_cells():
    with pytest.raises(BudgetError):
        check_budget("bhl", 6, 3)
    with pytest.raises(BudgetError):
        check_budget("bhl", 5, 4)
    with pytest.raises(BudgetError):
        check_budget("chord", None, 6)
    # in-budget cells pass silently
    check_budget("bhl", 5, 3)
    check_budget("chord", None, 5)


def test_dim_space_honors_budget():
    with pytest.raises(BudgetError):
        dim_space("bhl", 9, 9)


# -- Averaging map -----------------------------------------------------------------

def test_chi_kills_boring():
    assert chi(segment(1, 1, 2), 2).is_zero()


def test_chi_single_attachment():
    x = chi(tripod(1, 2, 3, 3), 3)
    terms = list(x.items())
    assert len(terms) == 1
    assert abs(terms[0][1]) == 1


def test_chi_uniform_weights():
    D = _union([segment(1, 2, 2)] * 2, 2)
    x = chi(D, 2)
    assert sorted(abs(c) for _, c in x.items()) == [Fraction(1, 2), Fraction(1, 2)]


def test_chi_lincomb_linear():
    a = inject(tripod(1, 2, 3, 3))
    b = inject(_union([segment(1, 2, 3)] * 2, 3))
    lhs = chi_lincomb(a + b.scale(Fraction(3)), 3)
    rhs = chi_lincomb(a, 3) + chi_lincomb(b, 3).scale(Fraction(3))
    assert lhs == rhs


def test_chi_ihx_lands_in_stu_span():
    basis = enum_bounded(4, 3)
    m = relator_matrix(basis, stu_relators(basis))
    for r in ihx_relators(enum_forests(4, 3)):
        assert m.membership(chi_lincomb(r.element, 4)).is_member


def test_chi_star_lands_in_stu_link1_span():
    basis = enum_bounded(3, 2)
    m = relator_matrix(
        basis,
        stu_relators(basis) + link1_relators(basis),
    )
    for r in star_relators(enum_forests(3, 2)):
        assert m.membership(chi_lincomb(r.element, 3)).is_member


# -- Main theorem ---------------------------------------------------------------------

def test_main_theorem_no_compound_components_at_k2():
    assert verify_main_theorem(2, 3) == []


def test_main_theorem_certificates_verify():
    certs = verify_main_theorem(3, 3)
    assert len(certs) == 4
    rid_maps = {d: relator_table(3, d) for d in (2, 3)}
    for cert in certs:
        assert cert.is_member
        assert any(
            _verifies(cert, rid_map) for rid_map in rid_maps.values()
        )


def _verifies(cert, rid_map):
    try:
        return verify_certificate(cert, rid_map)
    except KeyError:
        return False


def _rebuilt(rid, k, d):
    try:
        return relator_by_id(rid, k, d)
    except VerificationError as exc:
        assert str(exc) == f"unknown relator id {rid!r}"
        return None


@pytest.mark.parametrize("k,d", [(3, 2), (3, 3), (4, 3), (4, 4), (5, 3)])
def test_relator_ids_rebuild_as_the_global_table(k, d):
    table = relator_table(k, d)
    for rid, element in table.items():
        assert relator_by_id(rid, k, d) == element, rid
    accepted = 0
    for key in space_basis("bhl", k, d):
        D = canonical_diagram(key)
        ids = [f"star:{key.hex()}:{u}" for u in range(-1, D.n + 1)]
        ids += [f"ihx:{key.hex()}:{e}" for e in range(-1, D.n_edges + 1)]
        for rid in ids:
            got = _rebuilt(rid, k, d)
            assert (got is not None) == (rid in table), rid
            accepted += got is not None
    assert accepted == len(table)
    # the same ids name nothing in a neighboring cell
    some = next(iter(table))
    assert _rebuilt(some, k + 1, d) is None and _rebuilt(some, k, d + 1) is None


# -- Reduction to monomials --------------------------------------------------------------

def test_reduce_segments_to_monomial():
    D = _union([segment(1, 2, 2)] * 2, 2)
    red = reduce_to_monomials(LinComb.term(canonicalize(D).key), 2)
    assert {monomial_str(m): c for m, c in red.items()} == {"x12^2": Fraction(1)}


def test_reduce_drops_compound_components():
    red = reduce_to_monomials(inject(tripod(1, 2, 3, 3)), 3)
    assert red == {}


def test_reduce_rejects_boring():
    # the key of segment(1, 1, 2), which canonicalize no longer produces
    boring = bytes([0x55, 2, 2, 1, 1, 1, 0, 1])
    with pytest.raises(DiagramError):
        reduce_to_monomials(LinComb.term(boring), 2)


def test_monomial_str():
    assert monomial_str((((1, 2), 2), ((1, 3), 1))) == "x12^2*x13"
