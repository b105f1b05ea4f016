"""The lazy package namespace and the immutable report types."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ubckit
from ubckit import ClassificationReport, Hypothesis, Inequality, VerificationReport, Witness

DEFINED_IN = {
    "complexes": "Face SimplicialComplex build_complex normalize_face",
    "corpus": "boundary_simplex cone cross_polytope disjoint_union generate join parse_spec "
    "projective_plane_6 suspension torus_7 wedge",
    "cyclic": "cyclic_h gale_facets neighborliness",
    "facetfile": "FacetFileError load_complex parse_facet_text render_facet_text save_complex",
    "homology": "BettiVector ClassificationReport Witness betti_numbers boundary_matrix classify "
    "connected_components is_buchsbaum is_cohen_macaulay is_eulerian is_homology_manifold "
    "is_homology_sphere is_pseudomanifold is_semi_eulerian matrix_rank satisfies_betti_bound",
    "vectors": "FVector HVector ShortHVector beta_integral binomial f_from_h f_from_short_h "
    "h_from_f h_from_short_h lower_bound_coeff short_h_coefficient short_h_from_f "
    "short_h_from_links",
    "verify": "Hypothesis Inequality VerificationReport check_dehn_sommerville check_lemma_hh "
    "check_lower_bounds check_sphere_ubc check_ubc_hypotheses verify_ubc",
}
PUBLIC = {name for names in DEFINED_IN.values() for name in names.split()}


def test_public_names_are_unchanged():
    assert len(PUBLIC) == 61
    assert set(ubckit.__all__) == PUBLIC
    assert ubckit.__version__ == "0.1.0"


def test_names_resolve_to_their_defining_modules():
    for module, names in DEFINED_IN.items():
        for name in names.split():
            assert getattr(ubckit, name) is getattr(importlib.import_module(f"ubckit.{module}"), name)
    assert PUBLIC <= set(dir(ubckit))


def test_star_import_binds_every_public_name():
    space = {}
    exec("from ubckit import *", space)
    assert PUBLIC <= set(space)
    assert space["classify"] is ubckit.homology.classify


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ubckit.no_such_name
    with pytest.raises(ImportError):
        exec("from ubckit import no_such_name", {})


def test_bare_import_reaches_submodules():
    src = str(Path(ubckit.__file__).resolve().parents[1])
    code = "import ubckit; print(ubckit.homology.matrix_rank([{0: 1}]), ubckit.verify.VERIFIERS['ubc'].__name__)"
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "1 verify_ubc\n"


def test_a_loaded_submodule_unbound_from_the_package_is_found_again(monkeypatch):
    # in process: the package attribute is gone, the module stays loaded
    import ubckit.cyclic

    monkeypatch.delattr(ubckit, "cyclic")
    assert ubckit.cyclic is sys.modules["ubckit.cyclic"]


def test_reports_construct_positionally_and_by_keyword():
    assert Witness((0,), "r") == Witness(face=(0,), reason="r")
    assert Hypothesis("c", True) == Hypothesis(condition="c", status=True)
    assert Hypothesis("c", True).witness is None
    assert Inequality("l", 1, 2, True) == Inequality(label="l", left=1, right=2, holds=True)
    assert Inequality("l", 1, 2, True).binding is True
    assert Inequality("l", 1, 2, True, False).binding is False
    flags = dict(
        pure=True, eulerian=True, semi_eulerian=True, homology_sphere=True,
        homology_manifold=True, orientable=True, pseudomanifold=True, cohen_macaulay=True,
        buchsbaum=True, witnesses={},
    )
    assert ClassificationReport(**flags) == ClassificationReport(*flags.values())
    report = VerificationReport("s", (Hypothesis("c", True),), (Inequality("l", 1, 2, True),))
    assert report == VerificationReport(
        statement="s", hypotheses=(Hypothesis("c", True),), conclusions=(Inequality("l", 1, 2, True),)
    )
    assert report.overall == "pass" and report.exit_code == 0


def test_reports_are_immutable_values():
    witness = Witness(None, "r")
    hypothesis = Hypothesis("c", False, "w")
    inequality = Inequality("l", 3, 2, False)
    report = VerificationReport("s", (hypothesis,), (inequality,))
    for obj, field in ((witness, "reason"), (hypothesis, "status"), (inequality, "holds"),
                       (report, "statement")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    assert witness == Witness(None, "r") and witness != Witness(None, "other")
    assert hypothesis == Hypothesis("c", False, "w") and hypothesis != Hypothesis("c", False)
    assert hash(inequality) == hash(Inequality("l", 3, 2, False))
    # named tuples: a report also equals the plain tuple of its fields
    assert witness == (None, "r")
    assert report.to_json_dict()["overall"] == "hypotheses-not-met"
