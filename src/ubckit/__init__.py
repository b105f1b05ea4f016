"""Exact invariants of finite simplicial complexes and mechanical checkers
for the classical face-count bounds.

The toolkit computes f-, h- and short h-vectors, reduced rational Betti
numbers and the standard link-based classifiers (Eulerian, homology
manifold, pseudomanifold, Cohen-Macaulay, Buchsbaum), generates cyclic
polytope boundaries through Gale's evenness condition, and verifies
upper-bound and skeleton lower-bound statements with structured
pass/fail reports.  All arithmetic is exact.

``import ubckit`` loads no submodule.  A public name, or a submodule name
such as ``ubckit.homology``, imports its module on first access (PEP 562),
so a command loads only the modules it runs.  The reports (Witness,
ClassificationReport, Hypothesis, Inequality, VerificationReport) are
immutable named tuples: they unpack as tuples and compare equal to the
plain tuple of their fields.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining submodule
_EXPORTS = {
    name: module
    for module, names in {
        "complexes": "Face SimplicialComplex build_complex normalize_face",
        "corpus": "boundary_simplex cone cross_polytope disjoint_union generate join "
        "parse_spec projective_plane_6 suspension torus_7 wedge",
        "cyclic": "cyclic_h gale_facets neighborliness",
        "facetfile": "FacetFileError load_complex parse_facet_text render_facet_text save_complex",
        "homology": "BettiVector ClassificationReport Witness betti_numbers boundary_matrix "
        "classify connected_components is_buchsbaum is_cohen_macaulay is_eulerian "
        "is_homology_manifold is_homology_sphere is_pseudomanifold is_semi_eulerian "
        "matrix_rank satisfies_betti_bound",
        "vectors": "FVector HVector ShortHVector beta_integral binomial f_from_h f_from_short_h "
        "h_from_f h_from_short_h lower_bound_coeff short_h_coefficient short_h_from_f "
        "short_h_from_links",
        "verify": "Hypothesis Inequality VerificationReport check_dehn_sommerville "
        "check_lemma_hh check_lower_bounds check_sphere_ubc check_ubc_hypotheses verify_ubc",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS.values():  # a submodule: importing it binds the attribute
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
