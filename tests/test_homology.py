"""Betti numbers against an independent rational-elimination oracle, plus
the link-based classifiers."""

import gc
import random

import pytest

from corpus_data import CORPUS, EXTRAS
from oracles import brute_force_betti, dense_to_columns
from ubckit import (
    SimplicialComplex,
    betti_numbers,
    boundary_matrix,
    build_complex,
    classify,
    cone,
    connected_components,
    disjoint_union,
    boundary_simplex,
    gale_facets,
    is_buchsbaum,
    is_cohen_macaulay,
    is_eulerian,
    is_homology_manifold,
    is_homology_sphere,
    is_pseudomanifold,
    is_semi_eulerian,
    matrix_rank,
    satisfies_betti_bound,
    torus_7,
    verify_ubc,
)
from ubckit import _chains, cli, homology, verify


def test_matrix_rank_basics():
    assert matrix_rank([]) == 0
    assert matrix_rank(dense_to_columns([[0, 0], [0, 0]])) == 0
    assert matrix_rank(dense_to_columns([[1, 2], [2, 4]])) == 1
    assert matrix_rank(dense_to_columns([[2, 0, 1], [0, 3, 0]])) == 2
    assert matrix_rank(dense_to_columns([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_boundary_matrix_columns():
    sc = build_complex([[0, 1, 2]])
    assert boundary_matrix(sc, 0) == [{0: 1}, {0: 1}, {0: 1}]
    # edges (0,1), (0,2), (1,2) over vertices 0, 1, 2
    assert boundary_matrix(sc, 1) == [{1: 1, 0: -1}, {2: 1, 0: -1}, {2: 1, 1: -1}]
    assert boundary_matrix(sc, 2) == [{2: 1, 1: -1, 0: 1}]
    assert boundary_matrix(sc, 3) == []


def test_boundary_squares_to_zero():
    sc = CORPUS["torus-7"]
    for i in range(0, sc.dim):
        low = boundary_matrix(sc, i)
        for column in boundary_matrix(sc, i + 1):
            total: dict[int, int] = {}
            for k, v in column.items():
                for r, w in low[k].items():
                    total[r] = total.get(r, 0) + v * w
            assert not any(total.values())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_betti_cone_is_acyclic(name):
    capped = cone(CORPUS[name])
    assert all(b == 0 for b in betti_numbers(capped).entries)


def test_betti_known_values():
    assert betti_numbers(CORPUS["solid-triangle"]).entries == (0, 0, 0, 0)
    assert betti_numbers(CORPUS["boundary-simplex-3"]).entries == (0, 0, 0, 1)
    assert betti_numbers(CORPUS["torus-7"]).entries == (0, 0, 2, 1)
    assert betti_numbers(CORPUS["rp2-6"]).entries == (0, 0, 0, 0)
    assert betti_numbers(CORPUS["join-triangles"]).entries == (0, 0, 0, 0, 1)
    assert betti_numbers(EXTRAS["empty"]).entries == (1,)


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(CORPUS) if len(CORPUS[n].faces(CORPUS[n].dim)) <= 20],
)
def test_betti_matches_independent_oracle(name):
    sc = CORPUS[name]
    assert betti_numbers(sc).entries == brute_force_betti(sc.facets)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_betti_invariant_under_relabeling(name):
    sc = CORPUS[name]
    rng = random.Random(20240811 + len(name))
    images = list(range(100, 100 + sc.n_vertices))
    rng.shuffle(images)
    moved = sc.relabeled(dict(zip(sc.vertices, images)))
    assert betti_numbers(moved).entries == betti_numbers(sc).entries


def test_betti_numbers_computed_once_per_complex(monkeypatch):
    calls = []
    pivot_lows = _chains._pivot_lows

    def counting_reducer(columns):
        calls.append(1)
        return pivot_lows(columns)

    monkeypatch.setattr(_chains, "_pivot_lows", counting_reducer)
    sc = cone(boundary_simplex(3))
    first = betti_numbers(sc)
    assert calls
    calls.clear()
    assert betti_numbers(sc) is first
    assert calls == []


def test_homology_binds_the_chain_level_objects():
    for name in ("betti_numbers", "matrix_rank", "boundary_matrix", "BettiVector"):
        assert getattr(homology, name) is getattr(_chains, name)


def test_betti_memo_is_filled_once_through_every_binding(monkeypatch):
    # homology, verify and cli bind the one betti_numbers, which reads and
    # fills the complex's memo slot: its operators are built once
    built = []
    boundary_columns = _chains._boundary_columns

    def recording(sc, i, skip):
        built.append(sc)
        return boundary_columns(sc, i, skip)

    monkeypatch.setattr(_chains, "_boundary_columns", recording)
    sc = build_complex(torus_7().facets)
    first = homology.betti_numbers(sc)
    assert sc._betti is first
    assert verify.betti_numbers(sc) is cli.betti_numbers(sc) is first
    assert cli._invariants_dict("t", sc)["betti"] == [0, 0, 2, 1]
    assert "beta_1 = 2 vs bound 0" in verify.check_lemma_hh(sc).hypotheses[1].witness
    assert classify(sc).orientable is True
    assert sum(x is sc for x in built) == 1  # one operator: boundary_2


def _live_complexes() -> int:
    return sum(isinstance(o, SimplicialComplex) for o in gc.get_objects())


def test_links_and_betti_numbers_die_with_their_complex():
    gc.collect()
    before = _live_complexes()
    sc = gale_facets(4, 10)
    assert verify_ubc(sc).overall == "pass"
    del sc
    gc.collect()
    assert _live_complexes() == before


def test_connected_components():
    assert connected_components(CORPUS["two-edges"]) == 2
    assert connected_components(CORPUS["two-spheres"]) == 2
    assert connected_components(CORPUS["torus-7"]) == 1
    assert connected_components(EXTRAS["empty"]) == 0
    assert connected_components(build_complex([[0], [5]])) == 2


def test_eulerian_spheres():
    assert is_eulerian(CORPUS["boundary-simplex-3"]) == (True, None)
    assert is_eulerian(CORPUS["boundary-simplex-4"]) == (True, None)
    assert is_eulerian(CORPUS["octahedron"]) == (True, None)


def test_eulerian_torus_fails_at_empty_face():
    flag, witness = is_eulerian(CORPUS["torus-7"])
    assert flag is False
    assert witness.face == ()


def test_eulerian_impure_not_applicable():
    flag, witness = is_eulerian(EXTRAS["impure"])
    assert flag is None
    assert "pure" in witness.reason


def test_semi_eulerian():
    assert is_semi_eulerian(CORPUS["torus-7"])[0] is True
    assert is_semi_eulerian(CORPUS["boundary-simplex-3"])[0] is True
    flag, witness = is_semi_eulerian(CORPUS["solid-triangle"])
    assert flag is False
    assert len(witness.face) == 2  # a boundary edge, found before any vertex


def test_homology_sphere():
    assert is_homology_sphere(CORPUS["boundary-simplex-3"])
    assert is_homology_sphere(CORPUS["octahedron"])
    assert is_homology_sphere(CORPUS["join-triangles"])
    assert not is_homology_sphere(CORPUS["torus-7"])
    assert not is_homology_sphere(CORPUS["rp2-6"])  # manifold, but chi = 1
    assert not is_homology_sphere(EXTRAS["impure"])


def test_homology_manifold():
    flag, orientable, witness = is_homology_manifold(CORPUS["torus-7"])
    assert (flag, orientable, witness) == (True, True, None)
    flag, orientable, witness = is_homology_manifold(CORPUS["boundary-simplex-4"])
    assert (flag, orientable) == (True, True)
    flag, orientable, witness = is_homology_manifold(CORPUS["rp2-6"])
    assert (flag, orientable) == (True, False)


def test_homology_manifold_wedge_fails_at_wedge_vertex():
    flag, orientable, witness = is_homology_manifold(CORPUS["wedge-spheres-2"])
    assert flag is False
    assert witness.face == (0,)  # the identified vertex


def test_pseudomanifold():
    assert is_pseudomanifold(CORPUS["torus-7"])[:2] == (True, True)
    assert is_pseudomanifold(CORPUS["boundary-simplex-3"])[:2] == (True, True)
    assert is_pseudomanifold(CORPUS["rp2-6"])[:2] == (True, False)
    flag, orientable, witness = is_pseudomanifold(CORPUS["wedge-spheres-2"])
    assert flag is False
    flag, orientable, witness = is_pseudomanifold(CORPUS["solid-triangle"])
    assert flag is False  # boundary edges lie in one facet
    assert is_pseudomanifold(CORPUS["two-spheres"])[0] is True  # per component


def test_betti_bound_condition():
    assert satisfies_betti_bound(CORPUS["octahedron"], 1)  # 0 <= 0
    assert satisfies_betti_bound(CORPUS["two-spheres"], 1)  # 0 <= 2
    assert not satisfies_betti_bound(CORPUS["torus-7"], 1)  # 2 > 0
    with pytest.raises(ValueError):
        satisfies_betti_bound(CORPUS["octahedron"], 2)
    with pytest.raises(ValueError):
        satisfies_betti_bound(build_complex([[0]]), 0)


def test_cohen_macaulay():
    assert is_cohen_macaulay(CORPUS["solid-triangle"])[0]
    assert is_cohen_macaulay(CORPUS["boundary-simplex-4"])[0]
    assert is_cohen_macaulay(CORPUS["rp2-6"])[0]
    flag, witness = is_cohen_macaulay(CORPUS["two-edges"])
    assert flag is False
    assert witness.face == ()
    flag, witness = is_cohen_macaulay(CORPUS["torus-7"])
    assert flag is False
    assert witness.face == ()


def test_buchsbaum():
    assert is_buchsbaum(CORPUS["torus-7"])[0]  # circles are Cohen-Macaulay
    assert is_buchsbaum(CORPUS["boundary-simplex-3"])[0]
    assert is_buchsbaum(CORPUS["two-edges"])[0]
    flag, witness = is_buchsbaum(CORPUS["wedge-spheres-2"])
    assert flag is False
    assert witness.face == (0,)
    flag, witness = is_buchsbaum(EXTRAS["impure"])
    assert flag is False


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_odd_dim_manifolds_are_eulerian(name):
    sc = CORPUS[name]
    if sc.dim % 2 == 1 and is_homology_manifold(sc)[0]:
        assert is_eulerian(sc)[0] is True


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_odd_dim_semi_eulerian_is_eulerian(name):
    sc = CORPUS[name]
    if sc.dim % 2 == 1 and is_semi_eulerian(sc)[0]:
        assert is_eulerian(sc)[0] is True


def test_classification_report_torus():
    report = classify(CORPUS["torus-7"])
    assert report.pure
    assert report.eulerian is False
    assert report.semi_eulerian is True
    assert report.homology_manifold is True
    assert report.orientable is True
    assert report.pseudomanifold is True
    assert report.cohen_macaulay is False
    assert report.buchsbaum is True
    assert report.homology_sphere is False
    assert set(report.witnesses) == {"eulerian", "cohen_macaulay", "homology_sphere"}


def test_classification_report_false_flags_have_witnesses():
    for name in ("torus-7", "bowtie", "solid-triangle", "wedge-spheres-3"):
        report = classify(CORPUS[name])
        doc = report.to_json_dict()
        for flag in (
            "eulerian",
            "semi_eulerian",
            "homology_sphere",
            "homology_manifold",
            "orientable",
            "pseudomanifold",
            "cohen_macaulay",
            "buchsbaum",
        ):
            if doc[flag] is False:
                assert flag in doc["witnesses"]


@pytest.mark.parametrize("name", sorted(CORPUS) + sorted(EXTRAS))
def test_classification_sphere_flag_matches_is_homology_sphere(name):
    sc = {**CORPUS, **EXTRAS}[name]
    report = classify(sc)
    assert report.homology_sphere == is_homology_sphere(sc)
    assert ("homology_sphere" in report.witnesses) == (report.homology_sphere is False)


def test_classification_impure_not_applicable():
    report = classify(EXTRAS["impure"])
    assert report.pure is False
    assert report.eulerian is None
    assert report.homology_manifold is None
    assert report.to_json_dict()["eulerian"] == "not-applicable"


def test_sphere_of_dimension_zero():
    s0 = boundary_simplex(1)
    assert is_homology_sphere(s0)
    assert is_pseudomanifold(s0)[0] is True
    assert is_eulerian(s0)[0] is True


@pytest.mark.parametrize("n", [1, 2, 3], ids=["point", "s0", "three-points"])
def test_zero_dimensional_complexes_are_orientable(n):
    # orientability compares the unreduced top Betti number, b_0 = n points
    points = build_complex([[v] for v in range(n)])
    assert is_homology_manifold(points) == (True, True, None)
    pm, orientable, _ = is_pseudomanifold(points)
    assert orientable is (True if n == 2 else None)
    assert pm is (n == 2)
    report = classify(points)
    assert report.orientable is True and "orientable" not in report.witnesses


def test_disjoint_spheres_manifold_orientable():
    two = disjoint_union(boundary_simplex(3), boundary_simplex(3))
    flag, orientable, _ = is_homology_manifold(two)
    assert flag is True
    assert orientable is True  # top Betti equals component count
