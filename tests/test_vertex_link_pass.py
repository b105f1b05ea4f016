"""The one-pass vertex-link check of the UBC hypotheses against the
per-vertex oracle, the facet grouping against the scanned links, and the
rank-free sphere test and Euler characteristic against brute force."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_data import staircase_product
from oracles import (
    brute_force_betti,
    brute_force_f_vector,
    brute_force_faces,
    per_vertex_ubc_hypotheses,
    scan_link,
)
from ubckit import (
    boundary_simplex,
    build_complex,
    check_dehn_sommerville,
    check_lower_bounds,
    check_ubc_hypotheses,
    classify,
    cone,
    cross_polytope,
    disjoint_union,
    gale_facets,
    is_homology_manifold,
    is_homology_sphere,
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
# every vertex link of these 5-dimensional joins fails, so the walk stops
# once all vertices have failed; the reason is computed only for a failing
# face with a vertex not yet failed.  The second has its vertex ids
# permuted (v -> 5v + 3 mod 13).
@example(join(torus_7(), torus_7()), "theorem")
@example(
    join(projective_plane_6(), torus_7()).relabeled({v: (5 * v + 3) % 13 for v in range(13)}),
    "corollary",
)
# every branch of the chi test: the apex links of a suspended torus fail
# the middle Betti bound and the corollary's test; those of a suspended
# RP^2 are not orientable, and pass the corollary with b_1 = 0
@example(suspension(torus_7()), "theorem")
@example(suspension(torus_7()), "corollary")
@example(suspension(projective_plane_6()), "theorem")
@example(suspension(projective_plane_6()), "corollary")
def test_one_pass_matches_per_vertex_oracle(sc, mode):
    assert check_ubc_hypotheses(sc, mode) == per_vertex_ubc_hypotheses(sc, mode)


FACETS = st.integers(1, 4).flatmap(
    lambda size: st.lists(
        st.sets(st.integers(0, 7), min_size=size, max_size=size).map(sorted),
        min_size=1,
        max_size=10,
    )
)

# impure complexes too
ANY_FACETS = st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=4).map(sorted), min_size=1, max_size=10
)


def _reached_links(run):
    """The (facets, m) decisions the sphere test makes while run() walks:
    on facet lists grouped from the complex, rank-free up to m = 2 and by
    the strong core of a vertex deletion from m = 3 on, and on the whole
    complex's facets."""
    reached = []
    test = homology._is_sphere

    def record(facets, m):
        result = test(facets, m)
        reached.append((tuple(facets), m, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_is_sphere", record)
        run()
    return reached


def _assert_agrees_with_brute_force(sc, reached):
    for facets, m, result in reached:
        assert {len(f) for f in facets} == {m + 1}, facets
        sphere = (0,) * (m + 1) + (1,)
        assert result == (brute_force_betti(facets) == sphere), facets
        if m == 2:
            # each edge in two triangles: chi = f_0 - f_2 / 2
            f = brute_force_f_vector(facets)
            assert f[1] - len(facets) // 2 == f[1] - f[2] + f[3], facets
    # the walk reads the links of the ridges, 0-dimensional, off the number
    # of facets at each; once every ridge lies in two, it tests the level
    # below, whose links are 1-dimensional
    ridge_links = homology._link_facets(sc, sc.dim - 1).values() if sc.dim >= 1 else ()
    if sc.dim >= 2 and all(len(facets) == 2 for facets in ridge_links):
        assert any(m == 1 for _, m, _ in reached)


@settings(max_examples=150, deadline=None)
@given(st.one_of(FACETS.map(build_complex), odd_complexes()))
def test_sphere_test_agrees_with_brute_force_in_a_manifold_walk(sc):
    # every link is_homology_manifold and classify reach, on random pure
    # complexes of dimension 0..3 and on the complexes above, whose vertex
    # links include 2-dimensional manifolds that are not spheres (suspended
    # tori).  The manifold walk does not test facets, whose link is the
    # (-1)-sphere, and counts the facets at each ridge, so on a complex of
    # dimension <= 1 it makes no sphere test.
    reached = _reached_links(lambda: is_homology_manifold(sc))
    if sc.dim <= 1:
        assert reached == []
    _assert_agrees_with_brute_force(sc, reached)
    fresh = build_complex(sc.facets)
    _assert_agrees_with_brute_force(sc, _reached_links(lambda: classify(fresh)))


@settings(max_examples=25, deadline=None)
@given(odd_complexes())
def test_sphere_test_agrees_with_brute_force_in_the_vertex_link_pass(sc):
    _assert_agrees_with_brute_force(sc, _reached_links(lambda: check_ubc_hypotheses(sc)))


@st.composite
def cycle_unions(draw):
    """The edges, in any order, of a disjoint union of 1-3 cycles of length
    >= 3 on scattered vertex ids, and the number of cycles."""
    lengths = draw(st.lists(st.integers(3, 7), min_size=1, max_size=3))
    total = sum(lengths)
    labels = draw(st.lists(st.integers(0, 99), unique=True, min_size=total, max_size=total))
    edges = []
    for n in lengths:
        ring, labels = labels[:n], labels[n:]
        edges += [tuple(sorted((ring[j], ring[j - 1]))) for j in range(n)]
    return draw(st.permutations(edges)), len(lengths)


@settings(max_examples=200, deadline=None)
@given(cycle_unions())
def test_cycle_walk_agrees_with_the_component_count(union):
    edges, cycles = union
    vertices = {v for e in edges for v in e}
    connected = homology._count_classes(vertices, edges) == 1
    assert homology._is_sphere(edges, 1) is connected is (cycles == 1)


@pytest.mark.parametrize("surface", SURFACES[:4], ids=["tetrahedron", "octahedron", "torus", "rp2"])
def test_two_dimensional_manifold_links_build_no_face_lattice(surface):
    apex_link = suspension(surface)._face_link((surface.n_vertices,))
    assert apex_link == surface
    sphere = homology._is_sphere(apex_link.facets, 2)
    assert sphere is (surface.euler_characteristic() == 2)
    assert apex_link._by_dim is None


def test_vertex_link_pass_builds_no_vertex_link_lattice():
    # the links of a cyclic 3-sphere have dimension 0..2 and pass: the pass
    # decides them, and the vertex links' chi, from grouped facet lists, so
    # no link complex is built
    sc = gale_facets(4, 8)
    for mode in ("theorem", "corollary"):
        assert all(h.status for h in check_ubc_hypotheses(sc, mode))
    assert sc._links is None


def test_classify_and_dehn_sommerville_build_no_link():
    # a 3-sphere's links have dimension <= 2 and pass, so classify decides
    # them from grouped facet lists; the Eulerian check counts every link's
    # chi off the faces
    sc = gale_facets(4, 20)
    assert classify(sc).first_failure is None
    assert sc._links is None
    sc = gale_facets(4, 30)
    assert check_dehn_sommerville(sc).overall == "pass"
    assert sc._links is None


def test_ubc_hypotheses_build_no_vertex_link_lattice():
    # every vertex link of a cyclic 5-sphere passes, and its chi is counted
    # off the faces: the 3-dimensional edge links are decided by the strong
    # core of a deletion, straight from the grouped facets, so no link at
    # all is built, and the walk leaves every level it grouped, each one
    # enumerated once, in the complex's lattice
    sc = gale_facets(6, 12)
    assert all(h.status for h in check_ubc_hypotheses(sc))
    assert sc._links is None
    assert all(sc._by_dim[i] == brute_force_faces(sc.facets, i) for i in range(1, 5))


def test_lower_bounds_build_no_link():
    # is_buchsbaum reads Reisner's condition off the complex's own walk, in
    # which every link of a sphere passes: no link is built and no Betti
    # vector is computed
    sc = gale_facets(4, 30)
    computed, real = [], homology.betti_numbers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "betti_numbers", lambda c: computed.append(c) or real(c))
        assert check_lower_bounds(sc).overall == "pass"
    assert computed == []
    assert sc._links is None


def test_link_table_has_one_key_per_link():
    # only failing links are interned: none on a sphere; on the join of two
    # tori every link with a torus in it fails, and each link keeps its own
    # links in a table of its own, never the complex's
    sphere = cross_polytope(5)
    classify(sphere)
    assert sphere._links is None
    sc = join(torus_7(), torus_7())
    classify(sc)
    sc.link((0,))
    assert len(sc._links) > 1
    assert all(key == lk.facets for key, lk in sc._links.items())
    assert sc.facets not in sc._links  # the table holds no complex of its own
    assert all(lk._links is not sc._links for lk in sc._links.values())


def test_a_connected_three_dimensional_link_takes_the_betti_route():
    # a circle joined with S^2 x S^1: each circle edge has the connected
    # 3-manifold S^2 x S^1 as its link, not a sphere, and all its cofaces
    # pass, so its link is tested.  The strong core of its vertex deletion
    # is more than a point, and only that core's Betti numbers can reject
    # it; the reason still comes from the link's own Betti numbers
    s2s1 = staircase_product(boundary_simplex(2), boundary_simplex(3))
    assert brute_force_betti(s2s1.facets) == (0, 0, 1, 1, 1)
    sc = join(boundary_simplex(2), s2s1)
    cores, computed = [], []
    core, betti = homology._strong_core, homology.betti_numbers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_strong_core", lambda facets: cores.append(core(facets)) or cores[-1])
        mp.setattr(homology, "betti_numbers", lambda c: computed.append(c.facets) or betti(c))
        flag, _, wit = is_homology_manifold(sc)
    assert (flag, wit.face) == (False, (0, 1))
    first_core = tuple(cores[-1])
    assert len(first_core) > 1 and brute_force_betti(first_core) != (0,) * 5
    assert computed == [first_core, s2s1.relabeled({v: v + 3 for v in s2s1.vertices}).facets]
    reason = (
        "link is not a homology manifold: link has reduced Betti numbers "
        "[0, 0, 1, 1, 1] (indices -1..3), not those of a 3-sphere"
    )
    assert [h.witness for h in check_ubc_hypotheses(sc)] == [reason] * 3 + [None] * 12


@st.composite
def pure_complexes(draw):
    """Random pure complexes of dimension 0..4 on vertex ids drawn from
    0..19 in a random order, and cones and suspensions of them."""
    size = draw(st.integers(1, 5))
    facets = draw(
        st.lists(st.sets(st.integers(0, 8), min_size=size, max_size=size), min_size=1, max_size=8)
    )
    ids = draw(st.permutations(range(20)))
    sc = build_complex([[ids[v] for v in f] for f in facets])
    return draw(st.sampled_from([sc, cone(sc), suspension(sc)]))


@settings(max_examples=100, deadline=None)
@given(st.one_of(pure_complexes(), ANY_FACETS.map(build_complex)))
def test_link_facets_are_the_links_in_order(sc):
    for i in range(-1, sc.dim + 1):
        groups = homology._link_facets(sc, i)
        assert sorted(groups) == list(sc.faces(i))
        for face, facets in groups.items():
            assert tuple(facets) == scan_link(sc, face).facets


@settings(max_examples=100, deadline=None)
@given(st.one_of(ANY_FACETS.map(build_complex), odd_complexes(), pure_complexes(), st.sampled_from(SURFACES)))
def test_is_homology_sphere_agrees_with_brute_force(sc):
    sphere = (0,) * (sc.dim + 1) + (1,)
    expected = bool(is_homology_manifold(sc)[0]) and brute_force_betti(sc.facets) == sphere
    fresh = build_complex(sc.facets)
    assert is_homology_sphere(fresh) is expected
    if sc.dim <= 2:
        assert fresh._betti is None
