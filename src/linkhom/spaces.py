"""Dimension pipelines, the main triviality verification, and the averaging map.

Space names: "bhsl" and "bhl" are the colored forest spaces without and with
the link relation; "ahsl" and "ahl" are the bounded spaces without and with
the segment-cycling relation; "chord" is the knot chord space modulo the one-
and four-term relations.

The forest and bounded spaces split into support blocks.  The support of a
diagram is the set of colors its legs use, and every IHX, star, STU and link1
relator keeps the support of the diagram it is generated from, so the
relator matrix is block diagonal by support.  A recoloring of {1..k} carries
the block of one support onto the block of any other of the same size, with
its basis, relators and rank.  So with f(m, d) the block of support exactly
{1..m},

    dim(k, d) = sum over m of C(k, m) * f(m, d),    0 <= m <= min(k, 2d),

and likewise for the basis size, each relator count and the rank.
dim_space computes those min(k, 2d) + 1 blocks only, each in the k-color
cell's own keys; d = 0 is the m = 0 block, the empty forest.

A bhsl or bhl block splits one level further, by content: the number of
legs of each color.  IHX keeps a forest's content, and the star relator at
a leg of color j takes content c + e_j to c, so the block is a direct sum
of content blocks, and the rows of block c are the IHX relators of its
keys and the star relators at the color-j legs of the keys of c + e_j.  A
permutation of the colors carries content block c onto the block of the
permuted content, so only the non-increasing contents are computed, each
weighted by its orbit, m! over the product of the factorials of its
multiplicities.  Each relator is still counted at the key it is made from.
The ahsl and ahl blocks do not split this way: the S term of STU has one
leg fewer on its segment than T and U.  The main triviality verification
still eliminates over the whole cell, whose certificate bytes depend on
the rows it meets.

A chord diagram with an isolated chord is a 1T relator by itself, so the
chord rank is the number of those keys plus the rank of the 4T relators
modulo 1T, over the other keys with the ones of more crossings first.
Those rows need only be made at the other keys.  Write the relation at
site (key, p) as bq - aq + br - ar: the moving end sits before or after
q = p+1, then before or after r, the far end of q's chord c.  It is made
again at its br term, with the same sign.  Say bq has an isolated chord.
A third chord is isolated in all four terms; for c, bq and ar have c
isolated and aq = br; either way the relation is 0 modulo 1T.  The moving
chord is not isolated in br.  So every relation that is nonzero modulo 1T
is made at some key with no isolated chord.  four_t_span makes that span,
and the full 4T span over every key that hopf-check compares chord
classes in.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod

from . import bounded as bnd
from . import chords as ch
from . import relators as rel
from .bases import enum_forests
from .diagrams import KEY_BYTE_MAX, Diagram, canonical_diagram, canonicalize, is_boring
from .errors import BudgetError, DiagramError, UsageError, VerificationError
from .lincomb import LinComb
from .qlinalg import MembershipCertificate, SparseRationalMatrix, verify_certificate

SPACES = ("bhsl", "bhl", "ahsl", "ahl", "chord")

#: Default enumeration budget: (k, d) cells allowed without an override.
DEFAULT_MAX_CHORD_DEGREE = 5


def _key_fields(space: str, k, d: int) -> dict:
    """The largest value each one-byte key field takes in a cell.  A forest of
    degree d has 2d vertices and at most 2d - 1 edges, so the vertex count
    also bounds the edge count."""
    if space == "chord":
        return {"degree": d, "endpoint index": 2 * d - 1}
    fields = {"k": k, "vertex count": 2 * d}
    if space in ("ahsl", "ahl", "bounded"):
        fields["bounded color bound"] = k * (2 * d + 1)
    return fields


def check_budget(space: str, k, d: int, budget=None) -> None:
    """Raise UsageError for k < 1 (outside chord) or d < 0, and BudgetError
    when the request exceeds the configured bounds or its keys cannot fit
    their one-byte fields.

    budget is a (k, d) pair that replaces the default; a side given as None
    is unbounded, except the chord degree, which then keeps its default.
    """
    if space != "chord" and (k is None or k < 1):
        raise UsageError(f"space {space} needs k >= 1")
    if d < 0:
        raise UsageError(f"degree {d} is negative")
    if space == "chord":
        limit = budget[1] if budget and budget[1] is not None else DEFAULT_MAX_CHORD_DEGREE
        if d > limit:
            raise BudgetError(f"chord degree {d} exceeds budget {limit}")
    elif budget:
        bk, bd = (float("inf") if b is None else b for b in budget)
        if k > bk or d > bd:
            raise BudgetError(f"(k={k}, d={d}) exceeds budget (k<={bk}, d<={bd})")
    elif not ((k <= 5 and d <= 3) or (k <= 4 and d <= 4)):
        raise BudgetError(f"(k={k}, d={d}) exceeds the default budget")
    for name, value in _key_fields(space, k, d).items():
        if value > KEY_BYTE_MAX:
            raise BudgetError(f"{space} cell (k={k}, d={d}) exceeds the key-size limit: "
                              f"{name} {value} > {KEY_BYTE_MAX}")


@dataclass
class SpaceReport:
    space: str
    k: int | None
    d: int
    basis_size: int
    relator_counts: dict = field(default_factory=dict)
    rank: int = 0
    dim: int = 0

    def to_doc(self) -> dict:
        return {
            "space": self.space,
            "k": self.k,
            "d": self.d,
            "basis": self.basis_size,
            "relators": dict(sorted(self.relator_counts.items())),
            "rank": self.rank,
            "dim": self.dim,
        }


def _relators_for(space: str, basis):
    if space == "bhsl":
        return {"ihx": rel.ihx_relators(basis)}
    if space == "bhl":
        return {"ihx": rel.ihx_relators(basis), "star": rel.star_relators(basis)}
    if space == "ahsl":
        return {"stu": rel.stu_relators(basis)}
    if space == "ahl":
        return {"stu": rel.stu_relators(basis), "link1": rel.link1_relators(basis)}
    raise ValueError(f"unknown space {space!r}")


def space_basis(space: str, k, d: int, support=None) -> list:
    """The sorted basis keys of a cell, or with support=m of its block on
    colors 1..m."""
    if space in ("bhsl", "bhl"):
        return enum_forests(k, d, support)
    if space in ("ahsl", "ahl"):
        return bnd.enum_bounded(k, d, support)
    if space == "chord":
        if support is not None:
            raise ValueError("chord diagrams have no colors, hence no support blocks")
        return ch.enum_chord(d)
    raise ValueError(f"unknown space {space!r}")


def block_matrix(space: str, k, d: int, support=None):
    """(relator matrix, basis keys, relator count by kind) of one block of
    the (k, d) cell: with support=m the part on colors exactly 1..m, else
    the whole cell.  Each kind is counted as its relators are reduced, and
    the matrix keeps only the rows that make pivots; it raises ValueError
    should a relator leave the block.  The bounded columns are the keys of
    fewer internal vertices first (the inner key's colors, 0 when internal,
    start at key[6], its vertex count is key[4]), which leaves the rank and
    fills far fewer pivot entries; the others are the sorted keys."""
    keys = space_basis(space, k, d, support)
    bounded = space in ("ahsl", "ahl")
    columns = sorted(keys, key=lambda key: key[6:6 + key[4]].count(0)) if bounded else keys
    matrix = SparseRationalMatrix(columns)
    counts = {name: matrix.add_relators(rs) for name, rs in _relators_for(space, keys).items()}
    return matrix, keys, counts


def _contents(palette: int, d: int, least: int):
    """(content, orbit size) of each non-increasing content on this many
    colors, each count at least least, that a degree-d forest can have.
    The orbit is the content's permutations: palette! over the product of
    its multiplicities' factorials."""
    for content in itertools.combinations_with_replacement(range(d, least - 1, -1), palette):
        trees = sum(content) - d
        # a forest is empty, or has d + t legs for t trees, at most t of a color
        if trees == d == 0 or 0 < trees <= d and content[0] <= trees:
            yield content, factorial(palette) // prod(map(factorial, Counter(content).values()))


def dim_content(space: str, k, d: int, content) -> SpaceReport:
    """The report of one content block of bhsl or bhl: the forests of the
    (k, d) cell with content[j-1] legs of color j.  Its rows are the IHX
    relators of its keys and, for bhl, the star relators at the legs of
    color j of the keys of content + e_j, which land in it.  Each kind is
    counted where it is made, as in every other block: IHX at the internal
    edges of its keys, star at their legs."""
    keys = enum_forests(k, d, content=content)
    matrix = SparseRationalMatrix(keys)
    counts = {"ihx": matrix.add_relators(rel.ihx_relators(keys))}
    if space == "bhl":
        counts["star"] = len(keys) * sum(content)
        for j, n in enumerate(content):
            # no row lands in an empty block, and a color of no leg gives a
            # lone leg, whose star relator is 0
            if keys and n:
                source = enum_forests(k, d, content=(*content[:j], n + 1, *content[j + 1:]))
                matrix.add_relators(rel.star_relators(source, j + 1))
    rank = matrix.rank()
    return SpaceReport(space, k, d, len(keys), counts, rank, len(keys) - rank)


def _accumulate(total: SpaceReport, part: SpaceReport, mult: int) -> None:
    """Add mult copies of part's sizes and counts to total."""
    total.basis_size += mult * part.basis_size
    total.rank += mult * part.rank
    total.dim = total.basis_size - total.rank
    for name, count in part.relator_counts.items():
        total.relator_counts[name] = total.relator_counts.get(name, 0) + mult * count


def dim_block(space: str, k, d: int, support=None) -> SpaceReport:
    """The report of one block of the (k, d) cell: with support=m the part
    on colors exactly 1..m, else the whole cell.  A bhsl or bhl block is
    the sum of its representative content blocks, each times its orbit;
    any other is reduced whole, as block_matrix takes it.  The relators
    are counted and reduced, and none is kept."""
    if space not in ("bhsl", "bhl"):
        matrix, keys, counts = block_matrix(space, k, d, support)
        rank = matrix.rank()
        return SpaceReport(space, k, d, len(keys), counts, rank, len(keys) - rank)
    # every kind is counted from 0, so a block with no forest still names it
    report = SpaceReport(space, k, d, 0, dict.fromkeys(_relators_for(space, ()), 0))
    palette, least = (k, 0) if support is None else (support, 1)
    for content, orbit in _contents(palette, d, least):
        _accumulate(report, dim_content(space, k, d, content), orbit)
    return report


def dim_space(space: str, k, d: int, budget=None) -> SpaceReport:
    """Basis size, relator counts, rank, and quotient dimension of one graded
    piece: the sum over m of C(k, m) times its support block on 1..m, or
    for chord the one block of the whole cell."""
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    check_budget(space, k, d, budget)
    if space == "chord":
        return _dim_chord(d)
    report = SpaceReport(space=space, k=k, d=d, basis_size=0)
    for m in range(min(k, 2 * d) + 1):
        _accumulate(report, dim_block(space, k, d, m), comb(k, m))
    return report


def four_t_span(d: int, mod_1t: bool):
    """(4T matrix, chord keys, 4T relator count) of degree d.  The columns
    put the keys with more crossings first; with mod_1t they are only the
    keys with no isolated chord, and the rows are the 4T relators modulo
    1T.  Rows are made as integer rows over the column indices, at the
    column keys only, as the module docstring says, and each distinct row
    is kept once, its lead made positive.  They are added latest lead
    first, ties broken on the row, so the order is fixed and elimination
    meets the short rows at the sparse keys first.  The count is every 4T
    site of every key; no relator is built for it."""
    keys = ch.enum_chord(d)
    columns = sorted((key for key in keys if not (mod_1t and ch.has_isolated_chord(key[2:]))),
                     key=lambda key: (-ch.crossings(key), key))
    n = 2 * d
    count = sum(key[2 + p] != (p + 1) % n for key in keys for p in range(n))
    index = {key: i for i, key in enumerate(columns)}
    rows = set()
    for _, _, terms in rel.four_t_sites(columns, mod_1t, index.__getitem__):
        if terms:
            row = sorted(terms.items())
            rows.add(tuple(row) if row[0][1] > 0 else tuple((c, -x) for c, x in row))
    matrix = SparseRationalMatrix(columns)
    for row in sorted(rows, key=lambda row: (-row[0][0], row)):
        matrix.add_int_row(dict(row))
    return matrix, keys, count


def _dim_chord(d: int) -> SpaceReport:
    """The chord cell on the 1T quotient, as the module docstring says."""
    matrix, keys, count = four_t_span(d, mod_1t=True)
    one_t = len(keys) - len(matrix.columns)
    rank = one_t + matrix.rank()
    return SpaceReport("chord", None, d, len(keys), {"1t": one_t, "4t": count}, rank,
                       len(keys) - rank)


# -- main triviality verification ---------------------------------------------


def is_compound(key: bytes) -> bool:
    """True when some tree of the forest with this key has degree >= 2, i.e.
    is not a segment: a tree has an internal vertex exactly then, and the
    key gives internal vertices the color 0."""
    return 0 in key[4:4 + key[2]]


def verify_main_theorem(k: int, max_degree: int, budget=None) -> list:
    """Certify that every basis forest with a component of degree >= 2 lies in
    the relation span.  Raises VerificationError at the first counterexample.
    """
    check_budget("bhl", k, max_degree, budget)
    certs = []
    for d in range(1, max_degree + 1):
        matrix, basis, _ = block_matrix("bhl", k, d)
        for key in basis:
            if not is_compound(key):
                continue
            cert = matrix.membership(LinComb.term(key))
            if not cert.is_member:
                raise VerificationError(
                    f"forest {key.hex()} of degree {d} escapes the relation span",
                    witness=canonical_diagram(key),
                )
            certs.append(cert)
    return certs


def _is_basis_forest(key: bytes, k: int, d: int) -> bool:
    """Whether key names a basis forest of bhl(k, d).

    Every forest of trees with distinct leg colors on k colors and 2d
    vertices is a basis forest, and canonicalize accepts exactly those; a key
    names one when it rebuilds to a diagram whose key it is, with sign +1.
    """
    if len(key) < 3 or key[1] != k or key[2] != 2 * d:
        return False
    try:
        sk = canonicalize(canonical_diagram(key))
    except DiagramError:
        return False
    return sk.key == key and sk.sign == 1


def relator_by_id(rid: str, k: int, d: int) -> LinComb:
    """The element of the bhl(k, d) relator named rid, rebuilt from the id
    alone: star:<hex>:<u> is the star relator at leg u of the basis forest
    with key <hex>, ihx:<hex>:<e> the IHX relator at its internal edge e,
    each made by the generator of its kind over that one forest.  Any other
    id, or another spelling of one, raises VerificationError naming it.
    """
    kind, _, rest = rid.partition(":")
    build = {"star": rel.star_relators, "ihx": rel.ihx_relators}.get(kind)
    try:
        key = bytes.fromhex(rest.partition(":")[0])
    except ValueError:
        key = b""       # names no forest
    if build and _is_basis_forest(key, k, d):
        for r in build([key]):
            # only the spelling the generator gives is the relator's id
            if r.rid == rid:
                return r.element
    raise VerificationError(f"unknown relator id {rid!r}")


def check_main_certificate(cert: MembershipCertificate, k: int, d: int) -> None:
    """Re-check one certificate of verify_main_theorem against its claim.

    The target must be a single compound basis forest of degree d with
    coefficient 1, the combination must name relators of that degree and
    re-sum to the target, and the residual must be zero.  Only the relators
    the combination names are rebuilt; nothing is enumerated.  Raises
    VerificationError otherwise.
    """
    terms = cert.target.items()
    if len(terms) != 1 or terms[0][1] != 1 or not _is_basis_forest(terms[0][0], k, d):
        raise VerificationError(
            f"target is not one basis forest of bhl(k={k}, d={d}) with coefficient 1")
    if not is_compound(terms[0][0]):
        raise VerificationError(f"target forest {terms[0][0].hex()} has only segment components")
    by_id = {rid: relator_by_id(rid, k, d) for rid in sorted({rid for rid, _ in cert.combination})}
    if not verify_certificate(cert, by_id):
        raise VerificationError("combination plus residual does not re-sum to the target")
    if not cert.is_member:
        raise VerificationError("nonzero residual")


# -- monomial reduction ---------------------------------------------------------


def reduce_to_monomials(L: LinComb, k: int) -> dict:
    """Image of a homotopy class in the polynomial algebra on x_ij.

    Each key must name a basis forest on k colors, or DiagramError is raised.
    Forests with a component of degree >= 2 map to 0 (that is verify_main_
    theorem's content); a segment-only forest's key lists its segments' color
    pairs (i, j), i < j, in sorted order, and the monomial counts them.
    Monomials are tuples (((i, j), e), ...).
    """
    terms = []
    for key, coeff in L.items():
        if len(key) < 3 or not _is_basis_forest(key, k, key[2] // 2):
            raise DiagramError(f"key {key.hex()} names no basis forest on {k} colors")
        if not is_compound(key):
            colors = key[4:4 + key[2]]
            terms.append((tuple(Counter(zip(colors[::2], colors[1::2])).items()), coeff))
    return dict(LinComb(terms).items())


def monomial_str(mono) -> str:
    if not mono:
        return "1"
    bits = []
    for (i, j), e in mono:
        bits.append(f"x{i}{j}" + (f"^{e}" if e > 1 else ""))
    return "*".join(bits)


# -- averaging map ----------------------------------------------------------------


def chi(D: Diagram, k: int) -> LinComb:
    """Average of all leg attachments, one permutation per color, divided by
    the number of attachments.  Boring input maps to 0; any other input is
    its canonical sign times the average of its key's leg orders."""
    if D.k != k:
        raise DiagramError("color bound mismatch")
    if is_boring(D):
        return LinComb.zero()
    sk = canonicalize(D)
    weight = Fraction(sk.sign, prod(factorial(D.colors.count(c)) for c in range(1, k + 1)))
    return LinComb([(key, weight * sign) for key, sign in bnd.leg_orders(sk.key, {})])
