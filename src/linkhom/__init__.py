"""Diagram spaces for links up to link homotopy.

Enumerates colored unitrivalent, chord, and segment-bounded diagrams, imposes
their defining relations by exact rational elimination, and certifies the
resulting dimension and triviality statements.
"""

from .bases import enum_forests, trees_on_colors
from .bounded import BoundedDiagram, canonicalize_bounded, enum_bounded, inject_bounded
from .chords import ChordDiagram, chord_key, enum_chord, inject_chord
from .diagrams import (
    Diagram,
    SignedCanonicalKey,
    build,
    canonical_diagram,
    canonicalize,
    caterpillar,
    disjoint_union,
    empty,
    first_betti,
    graft_with_map,
    inject,
    is_boring,
    segment,
    tripod,
)
from .errors import BudgetError, DiagramError, ParseError, UsageError, VerificationError
from .gauss import (
    GaussLink,
    gauss_text,
    linking_matrix,
    parse_gauss,
    parse_pd,
    random_homotopy_move,
    reverse_component,
)
from .hopf import coproduct, is_primitive, product
from .interchange import parse, serialize, serialize_text
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
    graft,
    ihx_relators,
    link1_relators,
    one_t_relators,
    star_relator,
    star_relators,
    stu_relators,
)
from .spaces import (
    SpaceReport,
    chi,
    chi_lincomb,
    dim_knot_chord,
    dim_space,
    polynomial_dimension,
    reduce_to_monomials,
    verify_main_theorem,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
