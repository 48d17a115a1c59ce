"""Workbench for the noncommutative algebras attached to complexes and graphs.

Construct the set-indexed quotient algebras, compute graded dimensions and
degree-truncated ideal memberships exactly over the rationals, and run the
machine-check suite for the defining identities.
"""

from .complexes import (
    Complex,
    Graph,
    NodeSet,
    closure,
    complete_graph,
    cycle_graph,
    dimension,
    edgeless_graph,
    edges,
    enumerate_complexes,
    is_face,
    path_graph,
    star_graph,
)
from .free_algebra import (
    Poly,
    Symbol,
    commutator,
    poly_text,
    substitute,
    symbol_key,
    u,
    z,
)
from .parsing import parse_poly
from .presentations import (
    Presentation,
    graph_presentation,
    identity_11_residual,
    qF_presentation,
    qn_presentation,
    rel_4,
    rel_5,
    rel_9,
    rel_10,
    rel_additive,
    rel_multiplicative,
    u_in_z,
    z_in_u,
)
from .quotient_engine import TruncatedIdealBasis, graded_dimension
from .verifier import (
    CheckResult,
    VerificationReport,
    VerifyConfig,
    check_basis_lemma,
    check_commutative_case,
    check_corollary,
    check_eq3_welldefined,
    check_presentation_equivalence,
    check_proposition,
    check_theorem,
    default_config,
    run_all,
)

__version__ = "0.1.0"
