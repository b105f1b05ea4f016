"""classify, is_cohen_macaulay and is_buchsbaum, which read one top-down
link record, and is_eulerian / is_semi_eulerian, which count every link's
chi off the faces, against the classifiers one condition at a time."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _euler_failure,
    brute_force_betti,
    classify_by_definition,
    reisner_cohen_macaulay,
    scan_link,
    vertex_link_buchsbaum,
)
from ubckit import homology
from ubckit import (
    boundary_simplex,
    build_complex,
    classify,
    cone,
    cross_polytope,
    disjoint_union,
    gale_facets,
    is_buchsbaum,
    is_cohen_macaulay,
    is_eulerian,
    is_semi_eulerian,
    join,
    projective_plane_6,
    suspension,
    torus_7,
    wedge,
)

S0 = build_complex([[0], [1]])
BASES = [
    S0,
    build_complex([[0]]),
    build_complex([[0], [1], [2]]),
    boundary_simplex(2),
    build_complex([[0, 1], [1, 2]]),
    boundary_simplex(3),
    cross_polytope(3),
    torus_7(),
    projective_plane_6(),
    build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3]]),  # a disc
    build_complex([[0, 1, 2], [0, 3, 4]]),  # two triangles at a vertex
    build_complex([[0, 1, 2], [2, 3]]),  # impure
]
UNARY = {"cone": cone, "suspension": suspension, "join-s0": lambda sc: join(S0, sc)}
BINARY = {"wedge": wedge, "disjoint-union": disjoint_union}


@st.composite
def complexes(draw):
    """Pure and impure complexes of dimension 0..4: a small base, then up to
    three steps, each a cone, suspension or join with S^0, or a wedge or
    disjoint union with a second base.  Up to two facets are deleted and the
    vertex ids permuted, since the witnesses depend on their order."""
    sc = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(0, 3))):
        if sc.dim < 4 and draw(st.booleans()):
            sc = UNARY[draw(st.sampled_from(sorted(UNARY)))](sc)
        elif sc.n_vertices < 12:
            other = draw(st.sampled_from(BASES))
            sc = BINARY[draw(st.sampled_from(sorted(BINARY)))](sc, other)
    facets = list(sc.facets)
    for _ in range(draw(st.integers(0, 2))):
        if len(facets) > 1:
            facets.pop(draw(st.integers(0, len(facets) - 1)))
    return _relabelled(draw, facets)


def _relabelled(draw, facets):
    order = draw(st.permutations(sorted({v for f in facets for v in f})))
    mapping = dict(zip(sorted(order), order))
    return build_complex([[mapping[v] for v in f] for f in facets])


# a cyclic 3-sphere minus a facet: a ball, whose interior faces have sphere
# links and whose boundary faces have cone links
BALL_3 = build_complex(gale_facets(4, 7).facets[1:])


@st.composite
def cone_links(draw):
    """Complexes most of whose links are cones: a base (as in complexes(),
    or BALL_3) coned or joined with an edge, perhaps with a pendant edge at
    one vertex, which makes it impure; the vertex ids permuted.  Only bases
    under 7 vertices are joined: the oracles' Betti numbers grow fast."""
    sc = draw(st.sampled_from(BASES + [BALL_3]))
    step = draw(st.sampled_from(["cone", "join-edge", "as-is"]))
    if step == "cone":
        sc = cone(sc)
    elif step == "join-edge" and sc.n_vertices < 7:
        sc = join(sc, build_complex([[0, 1]]))
    facets = list(sc.facets)
    if draw(st.booleans()):
        facets.append((draw(st.sampled_from(sc.vertices)), sc.n_vertices))
    return _relabelled(draw, facets)


RANDOM = st.integers(1, 4).flatmap(
    lambda size: st.lists(
        st.sets(st.integers(0, 6), min_size=1, max_size=size).map(sorted),
        min_size=1,
        max_size=8,
    )
).map(build_complex)


# the edge joining the inner apexes has two disjoint triangles as link: it
# fails Reisner with the right chi, so the first chi failure, at the apex
# of the suspended torus, comes after the first Reisner failure
CYCLES_2 = disjoint_union(boundary_simplex(2), boundary_simplex(2))


@settings(max_examples=60, deadline=None)
@given(st.one_of(complexes(), RANDOM))
@example(disjoint_union(suspension(suspension(CYCLES_2)), suspension(torus_7())))
def test_classifiers_match_the_definitions(sc):
    assert classify(sc) == classify_by_definition(sc)
    assert is_cohen_macaulay(sc) == reisner_cohen_macaulay(sc)
    assert is_buchsbaum(sc) == vertex_link_buchsbaum(sc)


@settings(max_examples=40, deadline=None)
@given(cone_links())
@example(build_complex([range(6)]))
@example(BALL_3)
@example(join(cross_polytope(3), build_complex([[0, 1]])))
@example(build_complex(cone(cross_polytope(3)).facets + ((0, 7),)))
def test_cone_links_match_the_definitions(sc):
    # a link whose facets share a vertex passes Reisner with no Betti vector
    assert is_cohen_macaulay(sc) == reisner_cohen_macaulay(sc)
    assert classify(sc) == classify_by_definition(sc)


def test_classify_on_a_solid_simplex_computes_two_betti_vectors(monkeypatch):
    # every link is a cone: only the first link (the homology-manifold
    # witness) and the complex itself (the homology-sphere witness) get one
    real, computed = homology.betti_numbers, []
    monkeypatch.setattr(homology, "betti_numbers", lambda sc: computed.append(sc) or real(sc))
    report = classify(build_complex([range(9)]))
    assert report.cohen_macaulay and report.buchsbaum and not report.homology_manifold
    assert [sc.facets for sc in computed] == [((8,),), (tuple(range(9)),)]
    computed.clear()
    assert is_cohen_macaulay(build_complex([range(9)])) == (True, None)
    assert computed == []


@settings(max_examples=80, deadline=None)
@given(st.one_of(complexes(), RANDOM))
# many failing ridges, the witness the first of them: a cone's base, and
# the ridges of a deleted facet
@example(cone(suspension(torus_7())))
@example(build_complex(suspension(torus_7()).facets[1:]))
# deep first failures, after levels that sum faces of two and more levels
# above: an edge whose link is a torus, and the empty face alone
@example(suspension(suspension(torus_7())))
@example(torus_7())
def test_chi_count_matches_the_links(sc):
    for check, include_empty in ((is_eulerian, True), (is_semi_eulerian, False)):
        if sc.is_pure:
            wit = _euler_failure(sc, include_empty)
            assert check(build_complex(sc.facets)) == (wit is None, wit)
        else:
            assert check(sc) == (None, (None, "complex is not pure"))


@settings(max_examples=60, deadline=None)
@given(st.one_of(complexes(), RANDOM))
@example(cross_polytope(4))
@example(torus_7())
@example(suspension(torus_7()))
def test_link_records_start_below_the_facets(sc):
    # a facet's link is the (-1)-sphere, so the walk starts one level down
    # and ends at lowest.  It yields, top-down and sorted within a level,
    # every face of an impure complex, and the faces of a pure one with a
    # coface or itself (dimension < dim) whose link is not a sphere, with
    # those links' facets; it leaves each level it reads in the lattice
    if sc.is_pure:
        assert not set(sc.facets) & {face for face, _ in homology._link_records(sc)}
    below = [face for i in range(sc.dim - 1, -1, -1) for face in sc.faces(i)]
    bad = set()
    for face in below:  # cofaces first
        link = scan_link(sc, face)
        sphere = (0,) * (link.dim + 1) + (1,)
        if brute_force_betti(link.facets) != sphere or any(
            len(g) == len(face) + 1 and set(face) < set(g) for g in bad
        ):
            bad.add(face)
    for lowest in range(0, sc.dim + 1):
        fresh = build_complex(sc.facets)
        records = list(homology._link_records(fresh, lowest))
        assert [face for face, _ in records] == [
            face for face in below if len(face) > lowest and (not sc.is_pure or face in bad)
        ]
        assert all(tuple(facets) == scan_link(sc, face).facets for face, facets in records)
        assert all(fresh._by_dim[i] == sc.faces(i) for i in range(lowest, sc.dim))
