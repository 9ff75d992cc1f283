"""Diagram spaces for links up to link homotopy.

Enumerates colored unitrivalent, chord, and segment-bounded diagrams, imposes
their defining relations by exact rational elimination, and certifies the
resulting dimension and triviality statements.
"""

from .bases import enum_forests, trees_on_colors
from .bounded import enum_bounded
from .chords import enum_chord
from .diagrams import (
    Diagram,
    SignedCanonicalKey,
    build,
    canonical_diagram,
    canonicalize,
    empty,
    inject,
    is_boring,
    segment,
    tripod,
)
from .errors import BudgetError, DiagramError, ParseError, UsageError, VerificationError
from .gauss import GaussLink, linking_matrix, parse_gauss, parse_pd, random_homotopy_move
from .hopf import coproduct, is_primitive, product
from .interchange import parse, serialize
from .lincomb import LinComb
from .qlinalg import (
    MembershipCertificate,
    SparseRationalMatrix,
    certificate_doc,
    certificate_from_doc,
    relator_matrix,
    verify_certificate,
)
from .relators import (
    Relator,
    four_t_relators,
    ihx_relators,
    link1_relators,
    one_t_relators,
    star_relators,
    stu_relators,
)
from .spaces import (
    SpaceReport,
    chi,
    dim_space,
    reduce_to_monomials,
    verify_main_theorem,
)

__version__ = "0.1.0"

__all__ = [
    # bases, bounded, chords
    "enum_forests", "trees_on_colors",
    "enum_bounded",
    "enum_chord",
    # diagrams
    "Diagram", "SignedCanonicalKey", "build", "canonical_diagram", "canonicalize",
    "empty", "inject", "is_boring", "segment", "tripod",
    # errors
    "BudgetError", "DiagramError", "ParseError", "UsageError", "VerificationError",
    # gauss
    "GaussLink", "linking_matrix", "parse_gauss", "parse_pd", "random_homotopy_move",
    # hopf, interchange, lincomb
    "coproduct", "is_primitive", "product",
    "parse", "serialize",
    "LinComb",
    # qlinalg
    "MembershipCertificate", "SparseRationalMatrix", "certificate_doc",
    "certificate_from_doc", "relator_matrix", "verify_certificate",
    # relators
    "Relator", "four_t_relators", "ihx_relators", "link1_relators",
    "one_t_relators", "star_relators", "stu_relators",
    # spaces
    "SpaceReport", "chi", "dim_space", "reduce_to_monomials", "verify_main_theorem",
]
