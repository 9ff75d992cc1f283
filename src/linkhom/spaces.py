"""Dimension pipelines, the main triviality verification, and the averaging map.

Space names: "bhsl" and "bhl" are the colored forest spaces without and with
the link relation; "ahsl" and "ahl" are the bounded spaces without and with
the segment-cycling relation; "chord" is the knot chord space modulo the one-
and four-term relations.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from . import bounded as bnd
from . import chords as ch
from . import relators as rel
from .bases import enum_forests
from .diagrams import Diagram, canonical_diagram, is_boring
from .errors import BudgetError, DiagramError, UsageError, VerificationError
from .lincomb import LinComb
from .qlinalg import MembershipCertificate, relator_matrix, verify_certificate

SPACES = ("bhsl", "bhl", "ahsl", "ahl", "chord")

#: Default enumeration budget: (k, d) cells allowed without an override.
DEFAULT_MAX_CHORD_DEGREE = 5


def check_budget(space: str, k, d: int, budget=None) -> None:
    """Raise UsageError for k < 1 (outside chord) or d < 0, and BudgetError
    when the request exceeds the configured bounds."""
    if space != "chord" and (k is None or k < 1):
        raise UsageError(f"space {space} needs k >= 1")
    if d < 0:
        raise UsageError(f"degree {d} is negative")
    if space == "chord":
        limit = budget[1] if budget else DEFAULT_MAX_CHORD_DEGREE
        if d > limit:
            raise BudgetError(f"chord degree {d} exceeds budget {limit}")
        return
    if budget:
        bk, bd = budget
        if k > bk or d > bd:
            raise BudgetError(f"(k={k}, d={d}) exceeds budget (k<={bk}, d<={bd})")
        return
    if not ((k <= 5 and d <= 3) or (k <= 4 and d <= 4)):
        raise BudgetError(f"(k={k}, d={d}) exceeds the default budget")


@dataclass
class SpaceReport:
    space: str
    k: int | None
    d: int
    basis_size: int
    relator_counts: dict = field(default_factory=dict)
    rank: int = 0
    dim: int = 0
    seconds: float = 0.0

    @property
    def label(self) -> str:
        where = f"({self.k})" if self.k is not None else ""
        return f"{self.space}{where}_{self.d}"

    def to_doc(self) -> dict:
        return {
            "space": self.space,
            "k": self.k,
            "d": self.d,
            "basis": self.basis_size,
            "relators": dict(sorted(self.relator_counts.items())),
            "rank": self.rank,
            "dim": self.dim,
            "seconds": round(self.seconds, 3),
        }


def _relators_for(space: str, k, d: int, basis):
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


def space_basis(space: str, k, d: int):
    if space in ("bhsl", "bhl"):
        return enum_forests(k, d)
    if space in ("ahsl", "ahl"):
        return bnd.enum_bounded(k, d)
    if space == "chord":
        return ch.enum_chord(d)
    raise ValueError(f"unknown space {space!r}")


def _basis_keys(space: str, basis):
    if space == "chord":
        return [ch.chord_key(c) for c in basis]
    return [sk.key for sk in basis]


def dim_space(space: str, k, d: int, budget=None) -> SpaceReport:
    """Basis size, relator rank, and quotient dimension of one graded piece."""
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    check_budget(space, k, d, budget)
    t0 = time.perf_counter()
    basis = space_basis(space, k, d)
    keys = _basis_keys(space, basis)
    groups = _relators_for(space, k, d, basis)
    matrix = relator_matrix(keys, [r for rs in groups.values() for r in rs])
    report = SpaceReport(
        space=space,
        k=None if space == "chord" else k,
        d=d,
        basis_size=len(keys),
        relator_counts={name: len(rs) for name, rs in groups.items()},
        rank=matrix.rank(),
    )
    report.dim = report.basis_size - report.rank
    report.seconds = time.perf_counter() - t0
    return report


def dim_knot_chord(d: int, budget=None) -> SpaceReport:
    return dim_space("chord", None, d, budget)


def polynomial_dimension(k: int, d: int) -> int:
    """Degree-d dimension of a polynomial ring on C(k,2) degree-one generators."""
    return comb(comb(k, 2) + d - 1, d)


# -- main triviality verification ---------------------------------------------


def relation_matrix_bhl(k: int, d: int):
    """The (star + ihx) relator matrix over the degree-d forest basis, with
    the relators indexed by id for certificate replay."""
    basis = space_basis("bhl", k, d)
    relators = [r for rs in _relators_for("bhl", k, d, basis).values() for r in rs]
    matrix = relator_matrix(_basis_keys("bhl", basis), relators)
    return matrix, {r.rid: r.element for r in relators}, basis


def is_compound(D: Diagram) -> bool:
    """True when some component has degree >= 2, i.e. is not a segment."""
    return D.n > 0 and max(len(c) for c in D.components()) >= 4


def verify_main_theorem(k: int, max_degree: int, budget=None) -> list:
    """Certify that every basis forest with a component of degree >= 2 lies in
    the relation span.  Raises VerificationError at the first counterexample.
    """
    check_budget("bhl", k, max_degree, budget)
    certs = []
    for d in range(1, max_degree + 1):
        matrix, _, basis = relation_matrix_bhl(k, d)
        for sk in basis:
            D = canonical_diagram(sk.key)
            if not is_compound(D):
                continue
            cert = matrix.membership(LinComb.term(sk.key))
            if not cert.is_member:
                raise VerificationError(
                    f"forest {sk.hex} of degree {d} escapes the relation span",
                    witness=D,
                )
            certs.append(cert)
    return certs


def check_main_certificate(cert: MembershipCertificate, k: int, d: int) -> None:
    """Re-check one certificate of verify_main_theorem against its claim.

    The target must be a single compound basis forest of degree d with
    coefficient 1, the combination must name relators of that degree and
    re-sum to the target, and the residual must be zero.  Raises
    VerificationError otherwise.
    """
    _, by_id, basis = relation_matrix_bhl(k, d)
    keys = {sk.key for sk in basis}
    terms = cert.target.items()
    if len(terms) != 1 or terms[0][0] not in keys or terms[0][1] != 1:
        raise VerificationError(
            f"target is not one basis forest of bhl(k={k}, d={d}) with coefficient 1")
    if not is_compound(canonical_diagram(terms[0][0])):
        raise VerificationError(f"target forest {terms[0][0].hex()} has only segment components")
    unknown = sorted({rid for rid, _ in cert.combination} - by_id.keys())
    if unknown:
        raise VerificationError(f"unknown relator id {unknown[0]!r}")
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
    out = {}
    for key, coeff in L.items():
        D = canonical_diagram(key)
        if is_boring(D):
            raise DiagramError("boring content is outside the homotopy quotient")
        if is_compound(D):
            continue
        exps = {}
        for i, j in itertools.combinations(range(1, k + 1), 2):
            m = rel.count_segments(D, i, j)
            if m:
                exps[(i, j)] = m
        mono = tuple(sorted(exps.items()))
        s = out.get(mono, Fraction(0)) + coeff
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


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
    the number of attachments.  Boring or AS-null input maps to 0."""
    if D.k != k:
        raise DiagramError("color bound mismatch")
    if is_boring(D):
        return LinComb.zero()
    by_color = {s: [] for s in range(1, k + 1)}
    for v, c in D.legs():
        by_color[c].append(v)
    total = 1
    for s in range(1, k + 1):
        total *= factorial(len(by_color[s]))
    out = LinComb.zero()
    pools = [itertools.permutations(by_color[s]) for s in range(1, k + 1)]
    for order in itertools.product(*pools):
        B = bnd.BoundedDiagram(k, D, tuple(order))
        out = out + bnd.inject_bounded(B, Fraction(1, total))
    return out


def chi_lincomb(L: LinComb, k: int) -> LinComb:
    out = LinComb.zero()
    for key, coeff in L.items():
        out = out + chi(canonical_diagram(key), k).scale(coeff)
    return out
