"""Unit tests for quotient space dimensions, the averaging map, reductions.

Core claims:
    - forest-side dims with star relators match the polynomial count
      C(C(k,2)+d-1, d) cell by cell
    - string-link dims match the symmetric-algebra reference values
    - bounded-side dims agree with forest-side dims where both are in budget
    - knot chord dims modulo 1T+4T are 0, 1, 1, 3, 4, 9 at d = 1..6
    - the full 4T span that hopf-check reduces against, with crossings-first
      columns and repeated rows left out, has the rank of every 4T relator
      over the sorted keys, and holds each one, at d = 0..5
    - the primitive dims, the chord dims modulo 1T minus the rank of the
      connect sums of lower degrees, are 1, 1, 2, 3, 5, 8 at n = 2..7
    - the chord report, taken on the 1T quotient with crossings-first
      columns and repeated rows left out, equals the whole-cell report of
      every 1T and 4T relator over the sorted keys at d = 0..6
    - chi kills boring diagrams and averages legs with uniform weights
    - chi carries IHX relators into the STU span and star relators into
      the STU+link1 span
    - chi of a relabeled forest with reversed rotations is its canonical
      sign times chi of its key's representative
    - chi is onto modulo STU and link1: its images of the bhl basis and the
      STU and link1 relators span the ahl cell at k <= 3, d <= 3 and at
      4/2, 4/3 and 5/3; with the spans above and dim ahl = dim bhl, chi is
      an isomorphism there
    - the main theorem verifier certifies every compound component and its
      certificates replay by plain summation
    - a relator id rebuilds to the element the whole-basis relator table,
      made by the whole-forest oracle, holds for it, and names a relator
      exactly when the table has it
    - monomial reduction reads segment multiplicities off the key, as the
      count_segments oracle counts them on the rebuilt diagram, and rejects
      a key of another k, a short key or a boring one
    - out-of-budget requests raise before any work happens
    - the support-block sum gives the report of the whole-cell pipeline
      (whole basis, every relator, one matrix), byte for byte
    - a block's report keeps no relator: dim_block of the f(5,4) block
      allocates less than half of what holding its relators takes
    - the bhl and ahl block on colors 1..m has the dimension of the loopless
      multigraphs with d edges on m labeled vertices and none isolated
    - at k = 5, every ahl block at d <= 4, and at d = 5 for m <= 3, has the
      dimension of its bhl block and of that multigraph count (the averaging
      map chi is an isomorphism block by block), and every ahsl block at
      d <= 3 that of its bhsl block
    - at every budget cell, each non-increasing content of each bhl support
      block has the dimension of the loopless multigraphs with that degree
      sequence when its leg total is 2d, and 0 otherwise; the library's
      representatives are among them, each with its number of permutations
      as its orbit
    - at f(5,4) and f(6,4), every content of the bhsl and bhl block, not
      only a representative, has the basis size, relator counts and rank
      of its sorted representative: the colors' permutations carry content
      blocks onto each other
    - the whole cell taken as one block, by contents with bare colors,
      gives the whole-cell report
    - the f(6,6) bhl block has basis 78885, rank 63770 and dimension 15115,
      the multigraph count: the main statement holds there
"""

import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from linkhom.chords import connect_sum, enum_chord, has_isolated_chord
from linkhom.diagrams import (
    canonical_diagram,
    canonicalize,
    empty,
    inject,
    segment,
    tripod,
)
from linkhom.errors import BudgetError, DiagramError, VerificationError
from linkhom.lincomb import LinComb
from linkhom.qlinalg import SparseRationalMatrix, relator_matrix, verify_certificate
from linkhom.relators import (four_t_relators, ihx_relators, link1_relators, one_t_relators,
                              star_relators, stu_relators)
from linkhom.bases import enum_forests
from linkhom.bounded import enum_bounded
from linkhom.spaces import (
    _contents,
    _relators_for,
    check_budget,
    chi,
    dim_block,
    dim_content,
    dim_space,
    four_t_span,
    monomial_str,
    reduce_to_monomials,
    relator_by_id,
    space_basis,
    verify_main_theorem,
)
from test_diagrams import _relabel, disjoint_union
from test_relators import count_segments, oracle_relators


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
    """Every star and IHX relator of bhl(k, d) by id, made by the whole-forest
    oracle over the whole basis: the oracle for relator_by_id, which
    rebuilds one from its id alone."""
    return {r.rid: r.element for r in oracle_relators(space_basis("bhl", k, d))}


def whole_cell_doc(space: str, k, d: int) -> dict:
    """dim --json of a cell by the whole-cell pipeline: every basis element,
    every relator, one matrix over the sorted keys.  The oracle for the
    support-block sum, and for chord for the 1T quotient."""
    keys = space_basis(space, k, d)
    if space == "chord":
        groups = {"1t": one_t_relators(keys), "4t": list(four_t_relators(keys))}
    else:
        groups = {name: list(rs) for name, rs in _relators_for(space, keys).items()}
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


def test_dim_block_keeps_no_relator():
    # 3745 relators reduce to 280 pivots; holding every relator, as a list
    # per kind and a matrix row each, peaks near 2.2 MiB
    tracemalloc.start()
    try:
        block = dim_block("bhl", 5, 4, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (block.basis_size, sum(block.relator_counts.values()), block.rank) == (505, 3745, 280)
    assert peak < 1.1 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("d", range(7))
def test_chord_quotient_matches_the_whole_cell(d):
    assert dim_space("chord", None, d, budget=(None, 6)).to_doc() == whole_cell_doc("chord", None, d)


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


BUDGET_CELLS = [(k, d) for k in range(1, 6) for d in range(4)] + [(k, 4) for k in range(1, 5)]


def multigraphs_with_degrees(degrees) -> int:
    """Loopless multigraphs on labeled vertices with these degrees: the
    first vertex's edges go to the others in every way, then the rest."""
    if not degrees:
        return 1
    rest = list(degrees[1:])

    def spread(left, i):
        if i == len(rest):
            return 0 if left else multigraphs_with_degrees(tuple(rest))
        total = 0
        for x in range(min(left, rest[i]) + 1):
            rest[i] -= x
            total += spread(left - x, i + 1)
            rest[i] += x
        return total
    return spread(degrees[0], 0)


def block_contents(m: int, d: int) -> list:
    """Every leg count vector of m positive entries that a degree-d forest
    on colors 1..m could have: at most d legs of a color, d + 1 to 2d legs
    in all, or none at d = 0."""
    if d == 0:
        return [()] if m == 0 else []
    return [c for c in itertools.product(range(1, d + 1), repeat=m) if d < sum(c) <= 2 * d]


def test_multigraph_oracle_values():
    # a triangle; a 4-cycle three ways or two double edges three ways
    assert multigraphs_with_degrees((2, 2, 2)) == 1
    assert multigraphs_with_degrees((2, 2, 2, 2)) == 6
    assert multigraphs_with_degrees((3, 2, 2, 1)) == 3
    # summed over the contents of a block, the degree sequences give the block's count
    for m, d in [(3, 3), (4, 3), (4, 4), (5, 4)]:
        assert sum(multigraphs_with_degrees(c) for c in block_contents(m, d)
                   if sum(c) == 2 * d) == full_support_multigraphs(m, d), (m, d)


@pytest.mark.parametrize("k,d", BUDGET_CELLS)
def test_content_dim_counts_multigraphs_of_its_degree_sequence(k, d):
    for m in range(min(k, 2 * d) + 1):
        reps = {tuple(sorted(c, reverse=True)) for c in block_contents(m, d)}
        orbits = dict(_contents(m, d, 1))
        assert set(orbits) <= reps, (m, d)
        for content in sorted(reps):
            want = multigraphs_with_degrees(content) if sum(content) == 2 * d else 0
            got = dim_content("bhl", k, d, content)
            assert got.dim == want, f"m={m}, d={d}, content {content}: dim {got.dim}, want {want}"
            if content in orbits:
                assert orbits[content] == len(set(itertools.permutations(content))), content
            else:
                assert got.basis_size == 0, (m, d, content)


@pytest.mark.parametrize("space", ["bhsl", "bhl"])
@pytest.mark.parametrize("m,d", [(5, 4), (6, 4)], ids=["f(5,4)", "f(6,4)"])
def test_every_content_has_the_sizes_of_its_representative(space, m, d):
    reps = {}
    for content in block_contents(m, d):
        rep = tuple(sorted(content, reverse=True))
        if rep not in reps:
            reps[rep] = dim_content(space, m, d, rep)
        got, want = dim_content(space, m, d, content), reps[rep]
        assert (got.basis_size, got.relator_counts, got.rank) == \
            (want.basis_size, want.relator_counts, want.rank), (m, d, content)


@pytest.mark.parametrize("space", ["bhsl", "bhl"])
@pytest.mark.parametrize("k,d", [(k, d) for k in range(1, 5) for d in range(4)])
def test_whole_cell_block_by_contents_matches_the_whole_cell(space, k, d):
    assert dim_block(space, k, d).to_doc() == whole_cell_doc(space, k, d)


def test_f66_block_satisfies_the_main_statement():
    block = dim_block("bhl", 6, 6, 6)
    assert (block.basis_size, block.rank, block.dim) == (78885, 63770, 15115)
    assert block.dim == full_support_multigraphs(6, 6)


@pytest.mark.parametrize("d", range(6))
def test_bounded_blocks_match_forest_blocks_at_k5(d):
    # at d = 5 the m = 4 ahl block alone takes about 13 s, so m stops at 3
    for m in range(6 if d < 5 else 4):
        want = full_support_multigraphs(m, d)
        assert dim_block("ahl", 5, d, m).dim == dim_block("bhl", 5, d, m).dim == want, (m, d)
        if d <= 3:
            assert dim_block("ahsl", 5, d, m).dim == dim_block("bhsl", 5, d, m).dim, (m, d)


@pytest.mark.parametrize("d,dim", [(1, 0), (2, 1), (3, 1), (4, 3), (5, 4), (6, 9)])
def test_knot_chord_dims(d, dim):
    assert dim_space("chord", None, d, budget=(None, 6)).dim == dim


@pytest.mark.parametrize("d", range(6))
def test_full_four_t_span_is_every_4t_relator(d):
    # hopf-check's span: crossings-first columns and repeated rows left
    # out, over every key; the reference takes every relator, sorted keys
    span, keys, count = four_t_span(d, mod_1t=False)
    relators = list(four_t_relators(keys))
    assert sorted(span.columns) == keys and count == len(relators), d
    assert span.rank() == relator_matrix(keys, relators).rank(), d
    for r in relators:
        assert span.residual(r.element).is_zero(), (d, r.rid)


@pytest.mark.parametrize("d", range(7))
def test_quotient_four_t_span_is_every_4t_relator_mod_1t(d):
    # the chord quotient's span makes rows at the keys with no isolated
    # chord only; every 4T relator modulo 1T, at every key, is the oracle
    span, keys, count = four_t_span(d, mod_1t=True)
    relators = list(four_t_relators(keys, mod_1t=True))
    assert count == len(relators), d
    assert span.rank() == relator_matrix(span.columns, relators).rank(), d
    at_columns = set()
    for r in relators:
        if not has_isolated_chord(bytes.fromhex(r.rid.split(":")[1])[2:]):
            at_columns.update((r.element, -r.element))
    for r in relators:
        assert not r.element or r.element in at_columns, (d, r.rid)
        assert span.residual(r.element).is_zero(), (d, r.rid)


def test_four_t_span_row_order_is_fixed():
    # rows go in latest lead first, ties broken on the row, so two calls
    # make the same pivots
    span = four_t_span(6, mod_1t=True)[0]
    assert span._eliminate() == four_t_span(6, mod_1t=True)[0]._eliminate()
    order = [(-min(row), sorted(row.items())) for _, row, _ in span.rows]
    assert order == sorted(order)


#: (dim A_n, dim P_n) of the chord algebra modulo 1T and its primitives,
#: n = 2..7 (Bar-Natan, "On the Vassiliev knot invariants", 1995)
CHORD_PRIMITIVE_DIMS = {2: (1, 1), 3: (1, 1), 4: (3, 2), 5: (4, 3), 6: (9, 5), 7: (14, 8)}


@pytest.mark.parametrize("n", sorted(CHORD_PRIMITIVE_DIMS))
def test_primitive_dims_from_connect_sums(n):
    # the algebra is polynomial on its primitives (Milnor-Moore), so P_n
    # is A_n modulo the products of lower degrees; a degree-1 factor, or
    # any product key with an isolated chord, is 0 modulo 1T
    span, _, _ = four_t_span(n, mod_1t=True)
    products = {connect_sum(a, b) for i in range(2, n - 1)
                for a in enum_chord(i) for b in enum_chord(n - i)}
    decomposable = SparseRationalMatrix(span.columns)
    for key in sorted(products):
        if not has_isolated_chord(key[2:]):
            decomposable.add_row(span.residual(LinComb.term(key)))
    dim_a = len(span.columns) - span.rank()
    assert (dim_a, dim_a - decomposable.rank()) == CHORD_PRIMITIVE_DIMS[n], n


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
        list(stu_relators(basis)) + list(link1_relators(basis)),
    )
    for r in star_relators(enum_forests(3, 2)):
        assert m.membership(chi_lincomb(r.element, 3)).is_member


@pytest.mark.parametrize("k, d", [(4, 3), (5, 3)])
def test_chi_keeps_the_sign_of_its_input(k, d):
    # the chi pin feeds canonical documents only, whose sign is +1
    rng = random.Random(1000 * k + d)
    signs = set()
    for key in enum_forests(k, d):
        E = _relabel(canonical_diagram(key), rng, flip=True)[0]
        sign = canonicalize(E).sign
        signs.add(sign)
        assert chi(E, k) == chi(canonical_diagram(key), k).scale(sign), key.hex()
    assert signs == {1, -1}


@pytest.mark.parametrize("k, d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                  (4, 2), (4, 3), (5, 3)])
def test_chi_is_onto_modulo_stu_and_link1(k, d):
    # with the spans above and dim ahl = dim bhl, chi is an isomorphism
    basis = enum_bounded(k, d)
    m = SparseRationalMatrix(basis)
    m.add_relators(stu_relators(basis))
    m.add_relators(link1_relators(basis))
    for key in enum_forests(k, d):
        m.add_row(chi(canonical_diagram(key), k))
    assert m.rank() == len(basis)


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


def _oracle_monomials(L, k):
    """reduce_to_monomials through whole diagrams: each segment-only forest
    rebuilt and its segments counted per color pair."""
    terms = []
    for key, coeff in L.items():
        D = canonical_diagram(key)
        if all(len(comp) == 2 for comp in D.components()):
            mono = tuple(((i, j), m) for i, j in itertools.combinations(range(1, k + 1), 2)
                         if (m := count_segments(D, i, j)))
            terms.append((mono, coeff))
    return dict(LinComb(terms).items())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_reduce_matches_the_segment_count_oracle(k):
    for d in range(4):
        for key in enum_forests(k, d):
            L = LinComb.term(key, Fraction(3, 2))
            assert reduce_to_monomials(L, k) == _oracle_monomials(L, k), key.hex()
    # the whole basis as one sum: the compound forests contribute nothing
    L = LinComb.of_terms({key: Fraction(1) for d in range(4) for key in enum_forests(k, d)})
    assert reduce_to_monomials(L, k) == _oracle_monomials(L, k)


@pytest.mark.parametrize("key", [
    inject(segment(4, 5, 5)).keys()[0],         # x45 of k = 5, read at k = 3
    canonicalize(empty(4)).key,                 # the empty forest of k = 4
    b"", b"\x55", b"\x55\x03", b"\x55\x03\x02\x01\x01",
], ids=["x45-k5", "empty-forest-k4", "empty", "tag", "tag-k", "truncated"])
def test_reduce_rejects_keys_of_another_k_and_short_keys(key):
    with pytest.raises(DiagramError):
        reduce_to_monomials(LinComb.term(key), 3)


def test_reduce_rejects_boring():
    # the key of segment(1, 1, 2), which canonicalize no longer produces
    boring = bytes([0x55, 2, 2, 1, 1, 1, 0, 1])
    with pytest.raises(DiagramError):
        reduce_to_monomials(LinComb.term(boring), 2)


def test_monomial_str():
    assert monomial_str((((1, 2), 2), ((1, 3), 1))) == "x12^2*x13"
