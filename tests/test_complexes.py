"""Core complex construction, face enumeration, links and skeletons."""

import re
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_data import CORPUS
from oracles import (
    brute_force_f_vector,
    brute_force_faces,
    brute_force_maximal_faces,
    brute_force_neighborliness,
    scan_link,
)
from ubckit import SimplicialComplex, build_complex, cross_polytope, neighborliness, normalize_face


def test_build_triangle_graph():
    sc = build_complex([[0, 1], [1, 2], [2, 0]])
    assert sc.dim == 1
    assert sc.is_pure
    assert sc.n_vertices == 3


def test_build_mixed_dimensions_not_pure():
    sc = build_complex([[0, 1, 2], [2, 3]])
    assert sc.dim == 2
    assert not sc.is_pure


def test_build_boundary_simplex_from_subsets():
    sc = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert sc.dim == 2
    assert sc.is_pure
    assert sc.f_vector() == (1, 4, 6, 4)


def test_non_maximal_faces_absorbed():
    sc = build_complex([[0, 1], [0], [1], [0, 1]])
    assert sc.facets == ((0, 1),)


@st.composite
def face_lists(draw):
    """Faces of mixed sizes in any order and vertex order, with duplicates
    and faces nested in other faces of the list."""
    base = draw(st.lists(st.sets(st.integers(0, 9), max_size=6), min_size=1, max_size=10))
    faces = list(base)
    for face in draw(st.lists(st.sampled_from(base), max_size=6)):
        keep = draw(st.lists(st.booleans(), min_size=len(face), max_size=len(face)))
        faces.append({v for v, k in zip(sorted(face), keep) if k})
    faces += draw(st.lists(st.sampled_from(base), max_size=4))
    return [draw(st.permutations(sorted(face))) for face in draw(st.permutations(faces))]


@settings(max_examples=300, deadline=None)
@given(face_lists())
def test_absorption_keeps_the_maximal_faces(faces):
    assert SimplicialComplex(faces).facets == brute_force_maximal_faces(faces)


PURE_FACE_LISTS = st.integers(0, 6).flatmap(
    lambda size: st.lists(
        st.sets(st.integers(0, 9), min_size=size, max_size=size), min_size=1, max_size=10
    )
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(face_lists(), PURE_FACE_LISTS))
@example([[]])
@example([[0, 1, 2], [3]])
def test_faces_match_the_brute_force_closure(faces):
    sc = SimplicialComplex(faces)
    for i in range(-2, sc.dim + 2):
        assert sc.faces(i) == brute_force_faces(sc.facets, i)


def test_duplicate_vertex_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_complex([[0, 0, 1]])


def test_void_complex_rejected_empty_complex_allowed():
    with pytest.raises(ValueError, match="void"):
        build_complex([])
    empty = build_complex([[]])
    assert empty.dim == -1
    assert empty.facets == ((),)
    assert empty.f_vector() == (1,)


def test_negative_and_non_integer_vertices_rejected():
    with pytest.raises(ValueError):
        normalize_face([-1, 2])
    with pytest.raises(ValueError):
        normalize_face([0, "a"])


def test_equality_is_facet_set_equality():
    a = build_complex([[0, 1], [1, 2]])
    b = build_complex([[1, 2], [0, 1], [1]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_complex([[0, 1]])
    # another type is left to compare itself, and equals no complex
    assert a.__eq__(((0, 1), (1, 2))) is NotImplemented
    assert a != ((0, 1), (1, 2)) and a != "a"


def test_f_vector_single_vertex():
    assert build_complex([[0]]).f_vector() == (1, 1)


def test_f_vector_octahedron():
    from ubckit import cross_polytope

    assert cross_polytope(3).f_vector() == (1, 6, 12, 8)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_f_vector_matches_brute_force_enumeration(name):
    sc = CORPUS[name]
    assert sc.face_counts() == brute_force_f_vector(sc.facets)


def test_link_of_empty_face_is_whole_complex():
    for sc in list(CORPUS.values())[:6]:
        assert sc.link(()) == sc


def test_link_of_vertex_in_boundary_simplex():
    sc = CORPUS["boundary-simplex-3"]
    link = sc.link((0,))
    assert link.f_vector() == (1, 3, 3)
    assert link.facets == ((1, 2), (1, 3), (2, 3))


def test_link_of_edge_in_boundary_simplex():
    sc = CORPUS["boundary-simplex-3"]
    link = sc.link((0, 1))
    assert link.facets == ((2,), (3,))


def test_link_requires_a_face():
    sc = CORPUS["boundary-simplex-3"]
    with pytest.raises(ValueError, match="not a face"):
        sc.link((0, 4))


def test_link_membership_characterization():
    # G in lk F exactly when F and G are disjoint and F union G is a face
    sc = CORPUS["torus-7"]
    face = (0, 1)
    link = sc.link(face)
    for i in range(-1, sc.dim + 1):
        for g in sc.faces(i):
            in_link = link.has_face(g)
            disjoint = not (set(g) & set(face))
            expected = disjoint and sc.has_face(tuple(sorted(set(g) | set(face))))
            assert in_link == expected


ANY_COMPLEXES = st.lists(
    st.sets(st.integers(0, 7), max_size=5).map(sorted), min_size=1, max_size=8
).map(SimplicialComplex)


def _not_a_face(face):
    """The whole message link() raises for a non-face, as a pattern."""
    return f"^{re.escape(str(list(face)))} is not a face of this complex$"


@settings(max_examples=150, deadline=None)
@given(ANY_COMPLEXES, st.lists(st.sets(st.integers(0, 9), max_size=6), max_size=6))
@example(SimplicialComplex([[]]), [set(), {0}])
def test_has_face_matches_brute_force(sc, candidates):
    # candidates reach vertex ids 8 and 9, which no complex here has
    faces = {f for i in range(-1, sc.dim + 1) for f in brute_force_faces(sc.facets, i)}
    for face in faces:
        assert sc.has_face(face) and sc.has_face(face[::-1])
    for cand in candidates:
        face = tuple(sorted(cand))
        assert sc.has_face(cand) == (face in faces)
        if face not in faces:
            with pytest.raises(ValueError, match=_not_a_face(face)):
                sc.link(cand)


@settings(max_examples=150, deadline=None)
@given(ANY_COMPLEXES)
@example(SimplicialComplex([[]]))
def test_neighborliness_matches_brute_force(sc):
    assert neighborliness(sc) == brute_force_neighborliness(sc.facets)


def test_link_builds_no_face_lattice():
    sc = cross_polytope(9)  # vertices 2i and 2i + 1 are antipodal
    link = sc.link((0,))
    assert sc._by_dim is None and link._by_dim is None
    assert sc.link(()) is sc
    assert sc._by_dim is None
    for non_face in ((0, 1), (18,), (2, 0, 1)):
        with pytest.raises(ValueError, match=_not_a_face(sorted(non_face))):
            sc.link(non_face)
        assert not sc.has_face(non_face)
    for malformed, message in (((0, 0), "duplicate"), ((-1,), "non-negative")):
        for query in (sc.link, sc.has_face):
            with pytest.raises(ValueError, match=message):
                query(malformed)


def _assert_same_complex(fast, reference):
    assert fast.facets == reference.facets
    assert fast.vertices == reference.vertices
    assert fast.dim == reference.dim
    assert fast.is_pure == reference.is_pure


@settings(max_examples=150, deadline=None)
@given(ANY_COMPLEXES)
def test_link_matches_scan_oracle(sc):
    for i in range(-1, sc.dim + 1):
        for face in sc.faces(i):
            link = sc.link(face)
            _assert_same_complex(link, scan_link(sc, face))
            assert sc.link(face[::-1]) == link
            assert sc._face_link(face) is link
            # links of a link come from the link's own table, equal to lk(F + G)
            for j in range(-1, link.dim + 1):
                for g in link.faces(j):
                    _assert_same_complex(link.link(g), scan_link(link, g))
                    assert link._face_link(g) is link.link(g)
                    assert link._face_link(g) == sc._face_link(tuple(sorted(face + g)))


def test_link_table_returns_one_object_per_face():
    sc = CORPUS["torus-7"]
    for i in range(-1, sc.dim + 1):
        for face in sc.faces(i):
            assert sc.link(face) is sc.link(face)
            assert sc.link(face) is sc.link(list(face)[::-1])


def test_link_of_link_is_link_of_union():
    sc = CORPUS["boundary-simplex-4"]
    for i in range(-1, sc.dim + 1):
        for face in sc.faces(i):
            link = sc.link(face)
            for j in range(-1, link.dim + 1):
                for g in link.faces(j):
                    assert link.link(g) == sc.link(face + g)
    with pytest.raises(ValueError, match="not a face"):
        sc.link((0,)).link((0,))


def test_equal_links_of_different_faces_are_one_object():
    from ubckit import cross_polytope

    sc = cross_polytope(3)  # antipodal vertices 2i, 2i+1 have equal links
    assert sc.link((0,)) is sc.link((1,))
    assert sc.link((0, 2)) is sc.link((1, 3))
    assert sc.link((0,)).link((2,)) == sc.link((1, 3))
    assert sc.link((0,)) is not sc.link((2,))


def test_skeleton_dimensions_and_counts():
    sc = CORPUS["boundary-simplex-3"]
    s0 = sc.skeleton(0)
    assert s0.facets == ((0,), (1,), (2,), (3,))
    s1 = sc.skeleton(1)
    assert s1.f_vector() == (1, 4, 6)
    assert len(s1.faces(1)) == 6  # complete graph on 4 vertices
    assert sc.skeleton(sc.dim) == sc
    assert sc.skeleton(-1).facets == ((),)
    with pytest.raises(ValueError):
        sc.skeleton(3)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_skeleton_preserves_low_faces(name):
    sc = CORPUS[name]
    for j in range(-1, sc.dim + 1):
        skel = sc.skeleton(j)
        assert skel.dim == j
        for i in range(-1, j + 1):
            assert skel.faces(i) == sc.faces(i)
        assert skel.faces(j + 1) == ()


def test_chi_partial_point():
    assert build_complex([[0]]).chi_partial(0) == 1


def test_chi_partial_values():
    sc = CORPUS["boundary-simplex-3"]
    assert [sc.chi_partial(i) for i in range(3)] == [4, -2, 2]
    oct_ = CORPUS["octahedron"]
    assert [oct_.chi_partial(i) for i in range(3)] == [6, -6, 2]
    with pytest.raises(ValueError):
        sc.chi_partial(3)
    with pytest.raises(ValueError):
        sc.chi_partial(-1)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_chi_partial_top_is_euler_characteristic(name):
    sc = CORPUS[name]
    assert sc.chi_partial(sc.dim) == sc.euler_characteristic()


def test_relabeled_preserves_structure():
    sc = CORPUS["octahedron"]
    mapping = {v: 10 * v + 3 for v in sc.vertices}
    moved = sc.relabeled(mapping)
    assert moved.f_vector() == sc.f_vector()
    assert moved != sc


def test_relabeled_rejects_a_non_injective_mapping():
    from ubckit import cross_polytope

    with pytest.raises(ValueError, match="vertices 0 and 1 both map to 0"):
        cross_polytope(2).relabeled({0: 0, 1: 0, 2: 2, 3: 3})
    # only the restriction to the complex's vertices has to be injective
    moved = cross_polytope(2).relabeled({0: 4, 1: 5, 2: 6, 3: 7, 9: 4})
    assert moved.vertices == (4, 5, 6, 7)


def test_relabeled_rejects_a_mapping_missing_a_vertex():
    from ubckit import cross_polytope

    with pytest.raises(ValueError) as err:
        cross_polytope(2).relabeled({0: 5, 2: 6})
    assert str(err.value) == "mapping is missing vertices [1, 3]"


def test_concurrent_first_lattice_access():
    sc = SimplicialComplex([[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 3, 4]])
    results = []

    def job():
        results.append(sc.face_counts())

    threads = [threading.Thread(target=job) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
