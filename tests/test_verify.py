"""Structured verification reports for the bound statements."""

import pytest

from corpus_data import CORPUS, EXTRAS
from ubckit import (
    boundary_simplex,
    build_complex,
    check_dehn_sommerville,
    check_lemma_hh,
    check_lower_bounds,
    check_sphere_ubc,
    check_ubc_hypotheses,
    h_from_f,
    is_buchsbaum,
    is_eulerian,
    verify_ubc,
)


def _conclusion(report, label_prefix):
    return [c for c in report.conclusions if c.label.startswith(label_prefix)]


def test_ubc_equality_case():
    report = verify_ubc(CORPUS["boundary-simplex-4"])
    assert report.overall == "pass"
    assert report.exit_code == 0
    assert all(c.left == c.right for c in report.conclusions if c.binding)


def test_ubc_wedge_of_spheres():
    report = verify_ubc(CORPUS["wedge-spheres-3"])
    assert report.overall == "pass"
    (f3,) = _conclusion(report, "f_3 ")
    assert (f3.left, f3.right) == (10, 27)


def test_ubc_cross_polytope():
    report = verify_ubc(CORPUS["cross-polytope-4"])
    assert report.overall == "pass"
    (f3,) = _conclusion(report, "f_3 ")
    assert (f3.left, f3.right) == (16, 20)


def test_ubc_suspended_torus_hypotheses_not_met():
    report = verify_ubc(CORPUS["suspension-torus-7"])
    assert report.overall == "hypotheses-not-met"
    assert report.exit_code == 2
    failed = report.failed_hypotheses()
    assert failed
    # the failing items name the two suspension apexes
    apexes = {h.condition for h in failed}
    assert apexes == {"link of vertex 7 is admissible", "link of vertex 8 is admissible"}
    for h in failed:
        assert "beta_1 = 2" in h.witness


def test_ubc_hypotheses_wedge_vertex_passes_betti_bound():
    items = check_ubc_hypotheses(CORPUS["wedge-spheres-3"], "theorem")
    assert all(item.status for item in items)


def test_ubc_hypotheses_corollary_mode():
    items = check_ubc_hypotheses(CORPUS["boundary-simplex-4"], "corollary")
    assert all(item.status for item in items)
    assert items[0].condition == "complex is an oriented pseudomanifold"
    # the wedge is not a pseudomanifold, so corollary hypotheses fail there
    items = check_ubc_hypotheses(CORPUS["wedge-spheres-3"], "corollary")
    assert items[0].status is False


def test_ubc_dimension_guards():
    with pytest.raises(ValueError):
        verify_ubc(CORPUS["torus-7"])  # even dimension
    with pytest.raises(ValueError):
        verify_ubc(CORPUS["boundary-simplex-2"])  # k = 0
    with pytest.raises(ValueError):
        verify_ubc(EXTRAS["impure"])
    with pytest.raises(ValueError):
        check_ubc_hypotheses(CORPUS["torus-7"], "theorem")
    with pytest.raises(ValueError):
        check_ubc_hypotheses(CORPUS["boundary-simplex-4"], "nonsense")


def test_ubc_on_five_dimensional_sphere():
    report = verify_ubc(boundary_simplex(6))
    assert report.overall == "pass"


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(CORPUS) if CORPUS[n].is_pure and CORPUS[n].dim == 3],
)
def test_ubc_soundness_sweep(name):
    # whenever hypotheses are met the conclusions must hold, including the
    # intermediate short-h comparison
    report = verify_ubc(CORPUS[name])
    if report.hypotheses_met:
        assert report.overall == "pass", f"bound failed on {name}: {report.to_json()}"
        for c in report.conclusions:
            if c.binding:
                assert c.holds


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(CORPUS) if CORPUS[n].is_pure and CORPUS[n].dim == 3],
)
def test_lemma_applies_to_links_of_admissible_complexes(name):
    sc = CORPUS[name]
    report = verify_ubc(sc)
    if not report.hypotheses_met:
        return
    for v in sc.vertices:
        link_report = check_lemma_hh(sc.link((v,)))
        assert link_report.overall == "pass"


def test_lemma_equality_cases():
    report = check_lemma_hh(CORPUS["boundary-simplex-3"])
    assert report.overall == "pass"
    assert all(c.left == c.right for c in report.conclusions)
    report = check_lemma_hh(CORPUS["octahedron"])
    assert report.overall == "pass"
    assert [(c.left, c.right) for c in report.conclusions] == [(1, 1), (3, 3), (3, 3)]


def test_lemma_torus_vacuous_failure():
    report = check_lemma_hh(CORPUS["torus-7"])
    assert report.overall == "hypotheses-not-met"
    assert report.exit_code == 2
    h2 = [c for c in report.conclusions if c.label.startswith("h_2")]
    assert h2[0].left == 10 and h2[0].right == 4 and not h2[0].holds
    doc = report.to_json_dict()
    assert doc["conclusions_vacuous"] is True


def test_lemma_on_a_non_manifold_leaves_the_second_hypothesis_unevaluated():
    bowtie = build_complex([[0, 1, 2], [0, 3, 4]])  # two triangles sharing vertex 0
    report = check_lemma_hh(bowtie)
    assert report.overall == "hypotheses-not-met"
    manifold, alternative = report.hypotheses
    assert manifold.status is False
    assert (alternative.status, alternative.witness) == (None, "not evaluated: not a homology manifold")


def test_lemma_dimension_guards():
    with pytest.raises(ValueError):
        check_lemma_hh(CORPUS["boundary-simplex-4"])  # odd dimension
    with pytest.raises(ValueError, match="need an even dimension 2k with k >= 1"):
        check_lemma_hh(boundary_simplex(1))  # dimension 0: k = 0


def test_sphere_ubc():
    report = check_sphere_ubc(CORPUS["boundary-simplex-3"])
    assert report.overall == "pass"
    assert all(c.left == c.right for c in report.conclusions)
    report = check_sphere_ubc(CORPUS["octahedron"])
    assert report.overall == "pass"
    assert all(c.left == c.right for c in report.conclusions)


def test_sphere_ubc_icosahedron_h_values():
    # h = (1, 9, 9, 1) both for the icosahedron and for the cyclic C_3(12)
    from ubckit import FVector, cyclic_h

    h = h_from_f(FVector((1, 12, 30, 20)))
    assert h == (1, 9, 9, 1)
    assert [cyclic_h(3, 12, i) for i in range(3)] == [1, 9, 9]


def test_sphere_ubc_torus_not_met():
    report = check_sphere_ubc(CORPUS["torus-7"])
    assert report.overall == "hypotheses-not-met"


def test_dehn_sommerville():
    report = check_dehn_sommerville(CORPUS["boundary-simplex-4"])
    assert report.overall == "pass"
    report = check_dehn_sommerville(CORPUS["octahedron"])
    assert report.overall == "pass"
    report = check_dehn_sommerville(CORPUS["bowtie"])
    assert report.overall == "hypotheses-not-met"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_eulerian_implies_palindromic_h(name):
    sc = CORPUS[name]
    if is_eulerian(sc)[0] is True:
        h = h_from_f(sc.f_vector())
        d = sc.dim + 1
        assert all(h[i] == h[d - i] for i in range(d + 1)), name
        assert check_dehn_sommerville(sc).overall == "pass"


def test_lower_bounds_examples():
    report = check_lower_bounds(EXTRAS["point"])
    assert report.overall == "pass"
    assert [(c.left) for c in report.conclusions] == [1]
    report = check_lower_bounds(CORPUS["boundary-simplex-3"])
    assert [(c.left) for c in report.conclusions] == [4, 2]
    report = check_lower_bounds(CORPUS["torus-7"])
    assert report.overall == "pass"
    assert [(c.left) for c in report.conclusions] == [7, 14]


def test_lower_bounds_impure_rejected():
    with pytest.raises(ValueError):
        check_lower_bounds(EXTRAS["impure"])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lower_bounds_sweep_over_buchsbaum_corpus(name):
    sc = CORPUS[name]
    if is_buchsbaum(sc)[0]:
        assert check_lower_bounds(sc).overall == "pass", name


def test_report_json_shape():
    report = verify_ubc(CORPUS["boundary-simplex-4"])
    doc = report.to_json_dict()
    assert doc["statement"] == "ubc"
    assert doc["overall"] == "pass"
    assert doc["exit_code"] == 0
    assert isinstance(doc["hypotheses"], list)
    assert isinstance(doc["conclusions"], list)
    informational = [c for c in doc["conclusions"] if c.get("informational")]
    assert informational, "open-question h comparison should be reported"
    assert report.to_json() == report.to_json()  # deterministic rendering


def test_suspended_torus_open_question_rows_are_informational():
    report = verify_ubc(CORPUS["suspension-torus-7"])
    rows = [c for c in report.conclusions if not c.binding]
    assert len(rows) == 3  # h_0..h_{k+1}
    # informational rows never drive the outcome
    assert report.overall == "hypotheses-not-met"
