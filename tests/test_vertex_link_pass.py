"""The one-pass vertex-link check of the UBC hypotheses against the
per-vertex oracle, and the rank-free sphere test and Euler characteristic
against brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_betti, brute_force_f_vector, per_vertex_ubc_hypotheses
from ubckit import (
    boundary_simplex,
    build_complex,
    check_ubc_hypotheses,
    classify,
    cone,
    cross_polytope,
    disjoint_union,
    gale_facets,
    is_homology_manifold,
    join,
    projective_plane_6,
    suspension,
    torus_7,
    wedge,
)
from ubckit import homology

SPHERES_3 = [boundary_simplex(4), cross_polytope(4), gale_facets(4, 6), gale_facets(4, 8)]
GLUABLE = [sc for sc in SPHERES_3 if sc.has_face((0, 1, 2))]
DISC = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3]])
SURFACES = [
    boundary_simplex(3),
    cross_polytope(3),
    torus_7(),
    projective_plane_6(),
    wedge(boundary_simplex(3), boundary_simplex(3)),
    disjoint_union(boundary_simplex(3), boundary_simplex(3)),
    DISC,
]
S0 = build_complex([[0], [1]])


@st.composite
def odd_complexes(draw):
    """Pure 3-dimensional complexes, and one 5-dimensional one, built so
    that vertex links fail in every way: cones, discs and deleted facets
    leave boundary, a shared triangle lies in four facets, wedges and
    suspensions of singular surfaces pinch a vertex or an edge, suspensions
    of tori and wedges at their apexes give manifold links with chi != 2.
    The 5-dimensional join has 3- and 4-dimensional links, which take the
    Betti route.  Vertex ids are permuted, since the witnesses depend on
    their order."""
    kind = draw(
        st.sampled_from(
            ["sphere", "cone", "join-s0", "suspension", "wedge", "apex-wedge", "ridge-glue", "dim-5"]
        )
    )
    surface = draw(st.sampled_from(SURFACES))
    if kind == "sphere":
        sc = draw(st.sampled_from(SPHERES_3))
    elif kind == "cone":
        sc = cone(surface)
    elif kind == "join-s0":
        sc = join(S0, surface)
    elif kind == "suspension":
        sc = suspension(surface)
    elif kind == "wedge":
        sc = wedge(draw(st.sampled_from(SPHERES_3)), suspension(surface))
    elif kind == "apex-wedge":
        # the apex link is a disjoint union of two surfaces
        a, b = suspension(surface), suspension(draw(st.sampled_from(SURFACES)))
        sc = wedge(a, b, a.vertices[-1], b.vertices[-1])
    elif kind == "ridge-glue":
        # two spheres sharing the triangle (0, 1, 2), which lies in four facets
        a, b = draw(st.sampled_from(GLUABLE)), draw(st.sampled_from(GLUABLE))
        shift = {v: v if v < 3 else v + len(a.vertices) for v in b.vertices}
        sc = build_complex(list(a.facets) + [[shift[v] for v in f] for f in b.facets])
    else:
        sc = join(boundary_simplex(3), DISC)
    facets = list(sc.facets)
    for _ in range(draw(st.integers(0, 2))):
        if len(facets) > 1:
            facets.pop(draw(st.integers(0, len(facets) - 1)))
    order = draw(st.permutations(sorted({v for f in facets for v in f})))
    mapping = dict(zip(sorted(order), order))
    return build_complex([[mapping[v] for v in f] for f in facets])


@settings(max_examples=40, deadline=None)
@given(odd_complexes(), st.sampled_from(["theorem", "corollary"]))
def test_one_pass_matches_per_vertex_oracle(sc, mode):
    assert check_ubc_hypotheses(sc, mode) == per_vertex_ubc_hypotheses(sc, mode)


FACETS = st.integers(1, 4).flatmap(
    lambda size: st.lists(
        st.sets(st.integers(0, 7), min_size=size, max_size=size).map(sorted),
        min_size=1,
        max_size=10,
    )
)


def _reached_links(run):
    """The links the rank-free sphere test is asked about while run() walks."""
    reached = []
    test = homology._is_sphere_manifold

    def record(link):
        result = test(link)
        reached.append((link, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_is_sphere_manifold", record)
        run()
    return reached


def _assert_agrees_with_brute_force(reached):
    assert reached
    for link, result in reached:
        sphere = (0,) * (link.dim + 1) + (1,)
        assert result == (brute_force_betti(link.facets) == sphere), link.facets
        if link.dim == 2:
            f = brute_force_f_vector(link.facets)
            assert homology._manifold_chi(link) == f[1] - f[2] + f[3], link.facets


@settings(max_examples=150, deadline=None)
@given(st.one_of(FACETS.map(build_complex), odd_complexes()))
def test_sphere_test_agrees_with_brute_force_in_a_manifold_walk(sc):
    # every link is_homology_manifold and classify reach, on random pure
    # complexes of dimension 0..3 and on the complexes above, whose vertex
    # links include 2-dimensional manifolds that are not spheres (suspended
    # tori)
    _assert_agrees_with_brute_force(_reached_links(lambda: is_homology_manifold(sc)))
    _assert_agrees_with_brute_force(_reached_links(lambda: classify(build_complex(sc.facets))))


@settings(max_examples=25, deadline=None)
@given(odd_complexes())
def test_sphere_test_agrees_with_brute_force_in_the_vertex_link_pass(sc):
    _assert_agrees_with_brute_force(_reached_links(lambda: check_ubc_hypotheses(sc)))


@pytest.mark.parametrize("surface", SURFACES[:4], ids=["tetrahedron", "octahedron", "torus", "rp2"])
def test_two_dimensional_manifold_links_build_no_face_lattice(surface):
    apex_link = suspension(surface)._face_link((surface.n_vertices,))
    assert apex_link == surface
    assert homology._is_sphere_manifold(apex_link) is (surface.euler_characteristic() == 2)
    assert apex_link._by_dim is None


def test_vertex_link_pass_builds_no_vertex_link_lattice():
    # the vertex links of a cyclic 3-sphere are 2-spheres: admissible in
    # both modes from their facets alone
    sc = gale_facets(4, 8)
    for mode in ("theorem", "corollary"):
        assert all(h.status for h in check_ubc_hypotheses(sc, mode))
    assert all(sc._face_link((v,))._by_dim is None for v in sc.vertices)
