"""The strong core against brute-force Betti numbers, the sphere test's
collapse route on homology manifolds of dimension >= 3, and counters that
show a sphere costs no Betti vector, no link complex and no lattice beyond
the walk's own levels."""

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_data import relabelled, staircase_product
from oracles import brute_force_betti, brute_force_faces
from ubckit import (
    boundary_simplex,
    build_complex,
    classify,
    complexes,
    cone,
    cross_polytope,
    disjoint_union,
    gale_facets,
    join,
    projective_plane_6,
    suspension,
    torus_7,
    verify,
    verify_ubc,
    wedge,
)
from ubckit import homology
from ubckit.complexes import _strong_core

BALL_3 = build_complex(gale_facets(4, 7).facets[1:])  # a 3-sphere minus a facet
BASES = [
    build_complex([[0]]),
    build_complex([[0], [1], [2]]),
    build_complex([[0, 1], [1, 2]]),
    boundary_simplex(2),
    boundary_simplex(3),
    cross_polytope(3),
    torus_7(),
    projective_plane_6(),
    build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3]]),  # a disc
    build_complex([[0, 1, 2], [2, 3]]),  # impure
    BALL_3,
]


@st.composite
def collapsible_or_not(draw):
    """Cones, balls, wedges, joins with an edge and impure complexes, with
    a pendant edge perhaps, and the vertex ids permuted."""
    sc = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(0, 2))):
        step = draw(st.sampled_from(["cone", "wedge", "union", "join-edge"]))
        if step == "cone":
            sc = cone(sc)
        elif step == "join-edge" and sc.n_vertices < 7:
            sc = join(sc, build_complex([[0, 1]]))
        elif sc.n_vertices < 10:
            other = draw(st.sampled_from(BASES))
            sc = wedge(sc, other) if step == "wedge" else disjoint_union(sc, other)
    facets = list(sc.facets)
    if draw(st.booleans()):
        facets.append((draw(st.sampled_from(sc.vertices)), sc.vertices[-1] + 1))
    return relabelled(draw, facets)


def _dominated(facets, v):
    at_v = [set(f) for f in facets if v in f]
    return bool(set.intersection(*at_v) - {v})


@settings(max_examples=50, deadline=None)
@given(collapsible_or_not())
@example(cone(torus_7()))
@example(BALL_3)
@example(wedge(torus_7(), cone(cross_polytope(3))))
@example(build_complex(cone(cross_polytope(3)).facets + ((0, 7),)))
def test_strong_core_keeps_the_betti_numbers(sc):
    # the core is a subcomplex, an antichain in canonical order, with no
    # dominated vertex left, and with the Betti numbers of the complex
    core = _strong_core(list(sc.facets))
    assert core == sorted(set(core)) and all(list(f) == sorted(f) for f in core)
    assert all(any(set(f) <= set(g) for g in sc.facets) for f in core)
    assert not any(set(f) < set(g) for f in core for g in core)
    if len(core) > 1:
        assert not any(_dominated(core, v) for v in {v for f in core for v in f})
    betti = brute_force_betti(sc.facets)
    core_betti = brute_force_betti(core)
    assert core_betti + (0,) * (len(betti) - len(core_betti)) == betti


@pytest.mark.parametrize(
    "sc",
    [cone(torus_7()), build_complex([range(7)]), cone(cross_polytope(4)),
     join(boundary_simplex(2), build_complex([[0, 1]])), wedge(cone(torus_7()), cone(BALL_3))],
    ids=["cone-torus", "simplex", "cone-cross-polytope", "join-edge", "wedge-of-cones"],
)
def test_the_core_of_a_collapsible_complex_is_a_point(sc):
    core = _strong_core(list(sc.facets))
    assert len(core) == 1 and len(core[0]) == 1 and core[0][0] in sc.vertices


def test_a_neighbourly_ball_is_its_own_core():
    # every vertex of a cyclic 3-sphere minus a facet sees every other
    # vertex outside its star, so none is dominated: the ball is its core
    assert _strong_core(list(BALL_3.facets)) == list(BALL_3.facets)


SPHERES = [
    boundary_simplex(1),
    boundary_simplex(2),
    boundary_simplex(3),
    cross_polytope(2),
    cross_polytope(3),
    gale_facets(4, 6),
    gale_facets(3, 6),
]
NON_SPHERES = [
    disjoint_union(boundary_simplex(4), gale_facets(4, 6)),
    staircase_product(boundary_simplex(2), boundary_simplex(3)),  # S^1 x S^2
    disjoint_union(cross_polytope(4), staircase_product(boundary_simplex(2), boundary_simplex(3))),
]


@st.composite
def manifolds(draw):
    """Homology manifolds of dimension 3..5, with their facets before the
    vertex ids were permuted: spheres from small spheres by suspensions and
    joins, and cross-polytopes and cyclic polytopes, or the non-spheres
    above."""
    if draw(st.integers(0, 3)) == 0:
        sc = draw(st.sampled_from(NON_SPHERES))
    elif draw(st.booleans()):
        sc = draw(st.sampled_from([cross_polytope(4), gale_facets(4, 8), gale_facets(5, 8),
                                   gale_facets(6, 8), boundary_simplex(5)]))
    else:
        sc = draw(st.sampled_from(SPHERES))
        while sc.dim < 3:
            if draw(st.booleans()):
                sc = suspension(sc)
            else:
                sc = join(sc, draw(st.sampled_from(SPHERES[:4])))
    return sc.facets, relabelled(draw, list(sc.facets))


@lru_cache(maxsize=None)
def _brute_force_betti(facets):
    """brute_force_betti, once per facet tuple: relabelling keeps it."""
    return brute_force_betti(facets)


def _spied(run, *modules):
    """run(), and the complexes whose Betti numbers it computed through the
    betti_numbers name of these modules."""
    computed = []
    betti = homology.betti_numbers
    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            mp.setattr(module, "betti_numbers", lambda c: computed.append(c) or betti(c))
        result = run()
    return result, computed


def _sphere_decision(sc):
    """_is_sphere on the complex, and whether the Betti fallback ran."""
    sphere, computed = _spied(lambda: homology._is_sphere(sc.facets, sc.dim), homology)
    return sphere, bool(computed)


@settings(max_examples=30, deadline=None)
@given(manifolds())
def test_the_collapse_route_agrees_with_brute_force(manifold):
    # a point core (no fallback) means a sphere; any other core's Betti
    # numbers decide
    unlabelled, sc = manifold
    sphere, fallback = _sphere_decision(sc)
    assert sphere is (_brute_force_betti(unlabelled) == (0,) * (sc.dim + 1) + (1,))
    assert fallback or sphere


@pytest.mark.parametrize(
    "sc",
    [cross_polytope(6), gale_facets(6, 10), gale_facets(8, 12),
     join(boundary_simplex(3), cross_polytope(3))],
    ids=["cross-polytope-6", "cyclic-6-10", "cyclic-8-12", "join"],
)
def test_a_sphere_takes_the_point_core(sc):
    assert _sphere_decision(sc) == (True, False)


@pytest.mark.parametrize("sc", NON_SPHERES, ids=["two-3-spheres", "s1xs2", "s3+s1xs2"])
def test_a_manifold_that_is_no_sphere_takes_the_betti_fallback(sc):
    # the deletion of one vertex is not acyclic, so its core is more than a
    # point, and its own Betti numbers say so
    assert _sphere_decision(sc) == (False, True)


def test_classify_on_a_sphere_computes_no_betti_vector():
    # every link of the 7-dimensional cross-polytope, and the complex, is
    # decided by a point core: no Betti vector of a link or of the complex,
    # and no link complex interned
    sc = cross_polytope(8)
    report, computed = _spied(lambda: classify(sc), homology)
    assert report.first_failure is None and report.orientable is True
    assert computed == [] and sc._links is None


def test_verify_ubc_on_a_sphere_computes_no_betti_vector_and_no_lattice():
    # the edge links of a cyclic 5-sphere are 3-spheres decided by a point
    # core, its vertex links have chi = 2, and the f-vector and the chi
    # count read the levels the walk stored: no combinations are enumerated
    sc = gale_facets(6, 12)
    enumerated = []
    real = complexes.combinations
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "combinations", lambda *a: enumerated.append(a) or real(*a))
        report, computed = _spied(lambda: verify_ubc(sc), homology, verify)
    assert report.overall == "pass"
    assert computed == [] and enumerated == [] and sc._links is None
    assert all(sc.faces(i) == brute_force_faces(sc.facets, i) for i in range(-1, 6))


def test_faces_are_enumerated_per_level():
    sc = gale_facets(4, 9)
    assert sc.faces(1) == brute_force_faces(sc.facets, 1)
    assert set(sc._by_dim) == {-1, 0, 1, 3}
    assert sc.faces(2) == tuple(sorted({f for g in sc.facets for f in combinations(g, 3)}))
    assert sc.faces(4) == sc.faces(-2) == ()
