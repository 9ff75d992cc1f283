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
cell's own keys; d = 0 is the m = 0 block, the empty forest.  The main
triviality verification still eliminates over the whole cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod

from . import bounded as bnd
from . import chords as ch
from . import relators as rel
from .bases import enum_forests
from .diagrams import KEY_BYTE_MAX, Diagram, canonical_diagram, canonicalize, is_boring, representative
from .errors import BudgetError, DiagramError, UsageError, VerificationError
from .lincomb import LinComb
from .qlinalg import MembershipCertificate, relator_matrix, verify_certificate

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
    if space == "chord":
        return {"1t": rel.one_t_relators(basis), "4t": rel.four_t_relators(basis)}
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
    """(relator matrix, basis keys, relators by kind) of one block of the
    (k, d) cell: with support=m the part on colors exactly 1..m, else the
    whole cell.  relator_matrix raises ValueError should a relator leave the
    block."""
    keys = space_basis(space, k, d, support)
    groups = _relators_for(space, keys)
    return relator_matrix(keys, [r for rs in groups.values() for r in rs]), keys, groups


def dim_block(space: str, k, d: int, support=None) -> SpaceReport:
    """The report of one block of the (k, d) cell, as block_matrix takes it."""
    matrix, keys, groups = block_matrix(space, k, d, support)
    report = SpaceReport(
        space=space,
        k=None if space == "chord" else k,
        d=d,
        basis_size=len(keys),
        relator_counts={name: len(rs) for name, rs in groups.items()},
        rank=matrix.rank(),
    )
    report.dim = report.basis_size - report.rank
    return report


def dim_space(space: str, k, d: int, budget=None) -> SpaceReport:
    """Basis size, relator counts, rank, and quotient dimension of one graded
    piece: the sum over m of C(k, m) times its support block on 1..m, or
    for chord the one block of the whole cell."""
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    check_budget(space, k, d, budget)
    if space == "chord":
        return dim_block(space, k, d)
    report = SpaceReport(space=space, k=k, d=d, basis_size=0)
    for m in range(min(k, 2 * d) + 1):
        block, mult = dim_block(space, k, d, m), comb(k, m)
        report.basis_size += mult * block.basis_size
        report.rank += mult * block.rank
        for name, count in block.relator_counts.items():
            report.relator_counts[name] = report.relator_counts.get(name, 0) + mult * count
    report.dim = report.basis_size - report.rank
    return report


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
        # the relators are dropped: the matrix holds what membership needs
        matrix, basis = block_matrix("bhl", k, d)[:2]
        for key in basis:
            if not is_compound(key):
                continue
            cert = matrix.membership(LinComb.term(key))
            if not cert.is_member:
                raise VerificationError(
                    f"forest {key.hex()} of degree {d} escapes the relation span",
                    witness=representative(key),
                )
            certs.append(cert)
    return certs


def _basis_forest(key: bytes, k: int, d: int):
    """The canonical representative of key when key names a basis forest of
    bhl(k, d), else None.

    Every forest of trees with distinct leg colors on k colors and 2d
    vertices is a basis forest, and canonicalize accepts exactly those; a key
    names one when it rebuilds to a diagram whose key it is, with sign +1.
    """
    if len(key) < 3 or key[1] != k or key[2] != 2 * d:
        return None
    try:
        D = canonical_diagram(key)
        sk = canonicalize(D)
    except DiagramError:
        return None
    return D if sk.key == key and sk.sign == 1 else None


def _parse_relator_id(rid: str):
    """(kind, key, index) of a star or IHX id spelled exactly as the relators
    spell one, else None."""
    parts = rid.split(":")
    if len(parts) != 3 or parts[0] not in ("star", "ihx"):
        return None
    kind, name, index = parts
    try:
        key, i = bytes.fromhex(name), int(index)
    except ValueError:
        return None
    # fromhex and int also take uppercase, whitespace, signs, underscores and
    # leading zeros; only the spelling that formats back is the relator's id
    return (kind, key, i) if i >= 0 and f"{kind}:{key.hex()}:{i}" == rid else None


def relator_by_id(rid: str, k: int, d: int) -> LinComb:
    """The element of the bhl(k, d) relator named rid, rebuilt from the id
    alone: star:<hex>:<u> is the star relator at leg u of the basis forest
    with key <hex>, ihx:<hex>:<e> the IHX relator at its internal edge e.
    Any other id raises VerificationError naming it.
    """
    parsed = _parse_relator_id(rid)
    if parsed and (D := _basis_forest(parsed[1], k, d)) is not None:
        kind, key, i = parsed
        if kind == "star" and i < D.n and D.colors[i] is not None:
            return rel.star_relator(D, i, key).element
        if kind == "ihx" and i in rel.internal_edges(D):
            return rel.ihx_relator(D, i, key).element
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
    if len(terms) != 1 or terms[0][1] != 1 or _basis_forest(terms[0][0], k, d) is None:
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

    Diagrams with a component of degree >= 2 map to 0 (that is verify_main_
    theorem's content); segment-only forests map to the monomial recording
    their segment multiplicities.  Monomials are tuples (((i, j), e), ...).
    """
    terms = []
    for key, coeff in L.items():
        D = canonical_diagram(key)
        if is_boring(D):
            raise DiagramError("boring content is outside the homotopy quotient")
        if not is_compound(key):
            mono = tuple(((i, j), m) for i, j in itertools.combinations(range(1, k + 1), 2)
                         if (m := rel.count_segments(D, i, j)))
            terms.append((mono, coeff))
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
    the number of attachments.  Boring input maps to 0."""
    if D.k != k:
        raise DiagramError("color bound mismatch")
    if is_boring(D):
        return LinComb.zero()
    weight = Fraction(1, prod(factorial(D.colors.count(c)) for c in range(1, k + 1)))
    terms = []
    for order in bnd.leg_orders(D):
        sk = bnd.bounded_key(bnd.BoundedDiagram._assemble(k, D, order))
        terms.append((sk.key, weight * sk.sign))
    return LinComb(terms)
