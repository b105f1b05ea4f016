"""Exact invariants of finite simplicial complexes and mechanical checkers
for the classical face-count bounds.

The toolkit computes f-, h- and short h-vectors, reduced rational Betti
numbers and the standard link-based classifiers (Eulerian, homology
manifold, pseudomanifold, Cohen-Macaulay, Buchsbaum), generates cyclic
polytope boundaries through Gale's evenness condition, and verifies
upper-bound and skeleton lower-bound statements with structured
pass/fail reports.  All arithmetic is exact.
"""

from .complexes import Face, SimplicialComplex, build_complex, normalize_face
from .corpus import (
    boundary_simplex,
    cone,
    cross_polytope,
    disjoint_union,
    generate,
    join,
    parse_spec,
    projective_plane_6,
    suspension,
    torus_7,
    wedge,
)
from .cyclic import cyclic_h, gale_facets, neighborliness
from .facetfile import (
    FacetFileError,
    load_complex,
    parse_facet_text,
    render_facet_text,
    save_complex,
)
from .homology import (
    BettiVector,
    ClassificationReport,
    Witness,
    betti_numbers,
    boundary_matrix,
    classify,
    connected_components,
    is_buchsbaum,
    is_cohen_macaulay,
    is_eulerian,
    is_homology_manifold,
    is_homology_sphere,
    is_pseudomanifold,
    is_semi_eulerian,
    matrix_rank,
    satisfies_betti_bound,
)
from .vectors import (
    FVector,
    HVector,
    ShortHVector,
    beta_integral,
    binomial,
    f_from_h,
    f_from_short_h,
    h_from_f,
    h_from_short_h,
    lower_bound_coeff,
    short_h_coefficient,
    short_h_from_f,
    short_h_from_links,
)
from .verify import (
    Hypothesis,
    Inequality,
    VerificationReport,
    check_dehn_sommerville,
    check_lemma_hh,
    check_lower_bounds,
    check_sphere_ubc,
    check_ubc_hypotheses,
    verify_ubc,
)

__version__ = "0.1.0"

__all__ = [
    "BettiVector",
    "ClassificationReport",
    "Face",
    "FacetFileError",
    "FVector",
    "HVector",
    "Hypothesis",
    "Inequality",
    "ShortHVector",
    "SimplicialComplex",
    "VerificationReport",
    "Witness",
    "beta_integral",
    "betti_numbers",
    "binomial",
    "boundary_matrix",
    "boundary_simplex",
    "build_complex",
    "check_dehn_sommerville",
    "check_lemma_hh",
    "check_lower_bounds",
    "check_sphere_ubc",
    "check_ubc_hypotheses",
    "classify",
    "cone",
    "connected_components",
    "cross_polytope",
    "cyclic_h",
    "disjoint_union",
    "f_from_h",
    "f_from_short_h",
    "gale_facets",
    "generate",
    "h_from_f",
    "h_from_short_h",
    "is_buchsbaum",
    "is_cohen_macaulay",
    "is_eulerian",
    "is_homology_manifold",
    "is_homology_sphere",
    "is_pseudomanifold",
    "is_semi_eulerian",
    "join",
    "load_complex",
    "lower_bound_coeff",
    "matrix_rank",
    "neighborliness",
    "normalize_face",
    "parse_facet_text",
    "parse_spec",
    "projective_plane_6",
    "render_facet_text",
    "satisfies_betti_bound",
    "save_complex",
    "short_h_coefficient",
    "short_h_from_f",
    "short_h_from_links",
    "suspension",
    "torus_7",
    "verify_ubc",
    "wedge",
]
