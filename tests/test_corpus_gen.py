"""Named generators, combinators, and the generator-spec parser."""

import pytest

from ubckit import (
    betti_numbers,
    boundary_simplex,
    build_complex,
    cone,
    cross_polytope,
    disjoint_union,
    generate,
    is_cohen_macaulay,
    join,
    parse_spec,
    projective_plane_6,
    suspension,
    torus_7,
    wedge,
)
from ubckit.corpus import MAX_SPEC_DEPTH, _build
from ubckit.facetfile import MAX_FACES


def test_boundary_simplex():
    sc = boundary_simplex(3)
    assert sc.f_vector() == (1, 4, 6, 4)
    assert sc.is_pure
    with pytest.raises(ValueError):
        boundary_simplex(0)


def test_cross_polytope():
    sc = cross_polytope(3)
    assert sc.f_vector() == (1, 6, 12, 8)
    assert cross_polytope(4).f_vector() == (1, 8, 24, 32, 16)


def test_torus_embedded_data():
    sc = torus_7()
    assert sc.n_vertices == 7
    assert len(sc.facets) == 14
    assert len(sc.faces(1)) == 21  # 2-neighborly: every pair is an edge
    assert betti_numbers(sc).entries == (0, 0, 2, 1)


def test_projective_plane_embedded_data():
    sc = projective_plane_6()
    assert sc.n_vertices == 6
    assert len(sc.facets) == 10
    assert sc.euler_characteristic() == 1
    assert all(b == 0 for b in betti_numbers(sc).entries)
    assert is_cohen_macaulay(sc)[0]


def test_cone_and_suspension():
    triangle = boundary_simplex(2)
    assert cone(triangle).f_vector() == (1, 4, 6, 3)
    assert suspension(triangle).f_vector() == (1, 5, 9, 6)
    # suspending the empty complex gives two isolated points
    assert suspension(build_complex([[]])).f_vector() == (1, 2)


def test_join_of_triangles_is_a_three_sphere():
    sc = join(boundary_simplex(2), boundary_simplex(2))
    assert sc.f_vector() == (1, 6, 15, 18, 9)
    assert betti_numbers(sc).entries == (0, 0, 0, 0, 1)


def test_wedge_counts():
    sc = wedge(boundary_simplex(4), boundary_simplex(4))
    assert sc.n_vertices == 9
    assert len(sc.facets) == 10
    with pytest.raises(ValueError, match="not present"):
        wedge(boundary_simplex(2), boundary_simplex(2), 0, 99)


def test_wedge_at_chosen_vertices():
    a = boundary_simplex(2)
    b = boundary_simplex(2)
    sc = wedge(a, b, 2, 1)
    assert sc.n_vertices == 5
    assert (2,) in sc.faces(0)


def test_disjoint_union():
    sc = disjoint_union(boundary_simplex(2), boundary_simplex(2))
    assert sc.n_vertices == 6
    assert betti_numbers(sc)[0] == 1


def test_parse_spec_flat_and_nested():
    assert parse_spec("cyclic 4 9") == ("cyclic", 4, 9)
    assert parse_spec("cyclic(4, 9)") == ("cyclic", 4, 9)
    assert parse_spec("torus-7") == ("torus-7",)
    assert parse_spec("suspension(torus-7)") == ("suspension", ("torus-7",))
    assert parse_spec("wedge(boundary-simplex(4), boundary-simplex(4), 0, 0)") == (
        "wedge",
        ("boundary-simplex", 4),
        ("boundary-simplex", 4),
        0,
        0,
    )


def test_parse_spec_errors():
    with pytest.raises(ValueError):
        parse_spec("")
    with pytest.raises(ValueError):
        parse_spec("cyclic(4,")
    with pytest.raises(ValueError):
        parse_spec("cyclic 4 x")
    with pytest.raises(ValueError):
        parse_spec("7")


def test_parse_spec_depth_limit():
    def nested(depth):
        return "cone(" * depth + "torus-7" + ")" * depth

    node = parse_spec(nested(MAX_SPEC_DEPTH))
    for _ in range(MAX_SPEC_DEPTH):
        assert node[0] == "cone"
        node = node[1]
    assert node == ("torus-7",)
    with pytest.raises(ValueError, match="nested more than"):
        parse_spec(nested(MAX_SPEC_DEPTH + 1))


def test_generate_names_and_complexes():
    name, sc = generate("cyclic 4 9")
    assert name == "cyclic-4-9"
    assert sc.f_vector() == (1, 9, 36, 54, 27)
    name, sc = generate("suspension(torus-7)")
    assert name == "suspension(torus-7)"
    assert sc.n_vertices == 9
    name, sc = generate("wedge(boundary-simplex(4),boundary-simplex(4))")
    assert name == "wedge(boundary-simplex-4,boundary-simplex-4)"
    assert len(sc.facets) == 10


def test_generate_unknown_or_bad_arity():
    with pytest.raises(ValueError, match="unknown generator"):
        generate("dodecahedron 1")
    with pytest.raises(ValueError):
        generate("cyclic 4")
    with pytest.raises(ValueError):
        generate("torus-7 3")
    with pytest.raises(ValueError):
        generate("suspension(3)")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("boundary-simplex", "boundary-simplex takes exactly 1 integer parameter(s)"),
        ("boundary-simplex 3 4", "boundary-simplex takes exactly 1 integer parameter(s)"),
        ("cross-polytope(torus-7)", "cross-polytope takes exactly 1 integer parameter(s)"),
        ("cyclic 4", "cyclic takes exactly 2 integer parameter(s)"),
        ("cyclic(4, torus-7)", "cyclic takes exactly 2 integer parameter(s)"),
        ("torus-7 3", "torus-7 takes exactly 0 integer parameter(s)"),
        ("rp2-6(rp2-6)", "rp2-6 takes exactly 0 integer parameter(s)"),
        ("cone", "cone takes exactly one complex-valued argument"),
        ("cone(torus-7, torus-7)", "cone takes exactly one complex-valued argument"),
        ("cone(3)", "integer given where a complex-valued spec was expected"),
        ("suspension", "suspension takes exactly one complex-valued argument"),
        ("suspension(3)", "integer given where a complex-valued spec was expected"),
        ("join(torus-7)", "join takes exactly two complex-valued arguments"),
        ("join(torus-7, 3)", "integer given where a complex-valued spec was expected"),
        ("disjoint-union 1 2 3", "disjoint-union takes exactly two complex-valued arguments"),
        ("disjoint-union(3, torus-7)", "integer given where a complex-valued spec was expected"),
        (
            "wedge(torus-7)",
            "wedge takes two complex-valued arguments, optionally followed by "
            "the two vertices to identify",
        ),
        (
            "wedge(torus-7, torus-7, 0)",
            "wedge takes two complex-valued arguments, optionally followed by "
            "the two vertices to identify",
        ),
        ("wedge(torus-7, torus-7, torus-7, 0)", "wedge vertices must be integers"),
        ("wedge(torus-7, torus-7, 0, rp2-6)", "wedge vertices must be integers"),
        ("wedge(3, torus-7, 0, 0)", "integer given where a complex-valued spec was expected"),
        ("wedge(torus-7, torus-7, 0, 99)", "vertex 99 not present in the second complex"),
        ("cone(cyclic(4))", "cyclic takes exactly 2 integer parameter(s)"),
    ],
)
def test_generator_argument_errors_are_pinned(spec, message):
    with pytest.raises(ValueError) as err:
        generate(spec)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "spec, message",
    [
        ("boundary-simplex 0", "simplex dimension must be >= 1, got 0"),
        ("cross-polytope 0", "cross-polytope dimension must be >= 1, got 0"),
        ("cyclic 1 5", "cyclic polytope dimension must be >= 2, got 1"),
        ("cyclic 1 0", "cyclic polytope dimension must be >= 2, got 1"),
        ("cyclic 4 4", "need more vertices than the dimension, got n=4, d=4"),
        ("cyclic 30 20", "need more vertices than the dimension, got n=20, d=30"),
        ("wedge(torus-7, rp2-6, 7, 0)", "vertex 7 not present in the first complex"),
        ("cone(suspension(cross-polytope(0)))", "cross-polytope dimension must be >= 1, got 0"),
        # the first failing argument, in build order, names the error
        ("join(boundary-simplex(0), cyclic(4))", "simplex dimension must be >= 1, got 0"),
        ("join(cyclic(4), boundary-simplex(0))", "cyclic takes exactly 2 integer parameter(s)"),
        (
            "disjoint-union(cyclic(3, 3), cross-polytope(0))",
            "need more vertices than the dimension, got n=3, d=3",
        ),
        (
            "join(wedge(torus-7, torus-7, 0, 99), boundary-simplex(0))",
            "vertex 99 not present in the second complex",
        ),
        ("wedge(cone(cyclic(2, 2)), torus-7, 0, 99)", "need more vertices than the dimension, got n=2, d=2"),
    ],
)
def test_generator_value_errors_are_pinned(spec, message):
    with pytest.raises(ValueError) as err:
        generate(spec)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "spec",
    [
        "boundary-simplex 1",
        "boundary-simplex 15",
        "cross-polytope 3",
        "cyclic 2 7",
        "cyclic 5 9",
        "cyclic 6 8",
        "torus-7",
        "rp2-6",
        "cone(cyclic(3, 6))",
        "suspension(cone(rp2-6))",
        "join(rp2-6, boundary-simplex(2))",
        "disjoint-union(torus-7, cross-polytope(3))",
        "wedge(torus-7, rp2-6)",
        "wedge(cross-polytope(2), boundary-simplex(3), 3, 2)",
    ],
)
def test_spec_span_is_the_facet_file_bound(spec):
    size, sc = _build(parse_spec(spec))
    assert size == sum(2 ** len(f) for f in sc.facets)


def test_wedge_span_bounds_an_absorbed_vertex():
    # boundary-simplex 1 is two points; one of them is identified with a
    # vertex of the torus and absorbed
    size, sc = _build(parse_spec("wedge(torus-7, boundary-simplex(1))"))
    assert size == 112 + 4 > sum(2 ** len(f) for f in sc.facets) == 112 + 2


def test_spec_at_the_face_limit_is_built():
    size, sc = _build(parse_spec("cross-polytope 10"))
    assert size == MAX_FACES == sum(2 ** len(f) for f in sc.facets)


@pytest.mark.parametrize(
    "spec, node",
    [
        ("boundary-simplex 25", "boundary-simplex-25"),
        ("boundary-simplex 16", "boundary-simplex-16"),
        ("boundary-simplex 1234567890123456789", "boundary-simplex-1234567890123456789"),
        ("cross-polytope 11", "cross-polytope-11"),
        ("cross-polytope 30", "cross-polytope-30"),
        ("cyclic 4 1000000000", "cyclic-4-1000000000"),
        ("cyclic 40 100", "cyclic-40-100"),
        ("cyclic 2 262145", "cyclic-2-262145"),
        ("cone(cross-polytope(10))", "cone(cross-polytope-10)"),
        ("suspension(boundary-simplex(15))", "suspension(boundary-simplex-15)"),
        ("join(cross-polytope(10), boundary-simplex(1))", "join(cross-polytope-10,boundary-simplex-1)"),
        ("join(cross-polytope(30), cyclic(4, 4))", "cross-polytope-30"),
        ("disjoint-union(cross-polytope(10), torus-7)", "disjoint-union(cross-polytope-10,torus-7)"),
        ("wedge(torus-7, cross-polytope(10), 0, 99)", "wedge(torus-7,cross-polytope-10,0,99)"),
    ],
)
def test_spec_over_the_face_limit_is_rejected_before_it_is_built(spec, node):
    # the first node over the limit, in build order, is named; nothing
    # above the limit is built, so even 2^30 facets are rejected at once
    with pytest.raises(ValueError) as err:
        generate(spec)
    assert str(err.value) == f"{node} would span more than the limit of {MAX_FACES} faces"


def test_generate_is_deterministic():
    a = generate("join(boundary-simplex(2),boundary-simplex(2))")
    b = generate("join(boundary-simplex(2),boundary-simplex(2))")
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[1].facets == b[1].facets
