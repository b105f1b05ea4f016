"""Gale evenness facets, the cyclic h-vector formula, and neighborliness,
cross-checked against the exact moment-curve hull oracle."""

import pytest

from corpus_data import CORPUS
from oracles import brute_force_gale_facets, moment_curve_hull_facets
from ubckit import (
    HVector,
    SimplicialComplex,
    boundary_simplex,
    cyclic_h,
    f_from_h,
    gale_facets,
    h_from_f,
    is_eulerian,
    is_homology_sphere,
    neighborliness,
    short_h_from_f,
)


def test_gale_square():
    assert gale_facets(2, 4).facets == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_gale_simplex_boundary_when_n_is_d_plus_1():
    for d in range(2, 6):
        assert gale_facets(d, d + 1) == boundary_simplex(d)


def test_gale_facet_counts():
    assert len(gale_facets(3, 5).facets) == 6
    assert len(gale_facets(4, 6).facets) == 9


@pytest.mark.parametrize("d,n", [(3, 5), (4, 6)])
def test_gale_matches_hull_oracle(d, n):
    assert set(gale_facets(d, n).facets) == moment_curve_hull_facets(d, n)


@pytest.mark.parametrize("d", range(2, 9))
def test_gale_matches_brute_force(d):
    for n in range(d + 1, d + 12):
        sc = gale_facets(d, n)
        assert sc.facets == brute_force_gale_facets(d, n)
        reference = SimplicialComplex(sc.facets)
        assert (sc.vertices, sc.dim, sc.is_pure) == (
            reference.vertices, reference.dim, reference.is_pure
        )


def test_gale_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gale_facets(1, 5)
    with pytest.raises(ValueError):
        gale_facets(3, 3)


def test_cyclic_h_values():
    assert cyclic_h(4, 8, 0) == 1
    assert cyclic_h(4, 8, 2) == 10
    assert cyclic_h(4, 8, 3) == 4  # palindromic: equals h_1
    assert cyclic_h(3, 7, 2) == 4
    with pytest.raises(ValueError):
        cyclic_h(4, 8, 5)


def test_cyclic_h_palindromic():
    for d in range(2, 7):
        for n in range(d + 1, 11):
            for i in range(d + 1):
                assert cyclic_h(d, n, i) == cyclic_h(d, n, d - i)


@pytest.mark.parametrize("d", range(2, 9))
def test_h_vector_benchmark(d):
    # both directions: verify_ubc takes the cyclic f-vector from f_from_h
    larger = {4: [40], 6: [20], 8: [18]}.get(d, [])
    for n in [*range(d + 1, d + 12), *larger]:
        f = gale_facets(d, n).f_vector()
        h = HVector(cyclic_h(d, n, i) for i in range(d + 1))
        assert h_from_f(f) == h
        assert f_from_h(h) == f


def test_neighborliness_values():
    assert neighborliness(boundary_simplex(3)) == 3
    assert neighborliness(CORPUS["octahedron"]) == 1
    assert neighborliness(gale_facets(4, 7)) == 2


def test_neighborliness_of_cyclic_is_half_dimension():
    for d in range(2, 7):
        for n in range(d + 2, 10):
            assert neighborliness(gale_facets(d, n)) == d // 2


@pytest.mark.parametrize("d,n", [(2, 5), (3, 6), (4, 7), (5, 8)])
def test_cyclic_complexes_are_spheres(d, n):
    sc = gale_facets(d, n)
    assert is_homology_sphere(sc)
    assert is_eulerian(sc)[0] is True


def test_short_h_of_cyclic_from_vertex_links():
    # each vertex link of the cyclic (2k+2)-polytope boundary contributes the
    # cyclic (2k+1)-polytope h-vector up to the middle, so sh_i = n * h_i
    for k, n in [(1, 7), (1, 9), (2, 9)]:
        d = 2 * k + 2
        sh = short_h_from_f(gale_facets(d, n).f_vector())
        for i in range(k + 2):
            assert sh[i] == n * cyclic_h(d - 1, n - 1, i)
