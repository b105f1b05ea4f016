"""Transforms between f-, h- and short h-vectors, and the exact coefficient
machinery for rewriting h-entries and skeleton Euler characteristics."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_data import CORPUS
from ubckit import (
    FVector,
    HVector,
    ShortHVector,
    SimplicialComplex,
    beta_integral,
    binomial,
    f_from_h,
    f_from_short_h,
    h_from_f,
    h_from_short_h,
    lower_bound_coeff,
    short_h_coefficient,
    short_h_from_f,
    short_h_from_links,
)


def test_binomial_outside_range_is_zero():
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(5, 2) == 10


def test_vector_validation():
    with pytest.raises(ValueError):
        FVector((2, 3))
    with pytest.raises(ValueError):
        FVector((1, -1))
    with pytest.raises(ValueError):
        HVector((0, 1))
    with pytest.raises(ValueError):
        ShortHVector((-2, 0))


def test_mathematical_indexing():
    f = FVector((1, 4, 6, 4))
    assert f[-1] == 1 and f[0] == 4 and f[2] == 4
    with pytest.raises(IndexError):
        f[3]
    h = HVector((1, 3, 3, 1))
    assert h[0] == 1 and h[3] == 1


def test_h_from_f_point():
    assert h_from_f(FVector((1, 1))) == (1, 0)


def test_h_from_f_known_values():
    assert h_from_f(FVector((1, 4, 6, 4))) == (1, 1, 1, 1)
    assert h_from_f(FVector((1, 6, 12, 8))) == (1, 3, 3, 1)


def test_f_from_h_simplex_pattern():
    for d in range(1, 6):
        f = f_from_h(HVector((1,) + (0,) * d))
        assert f == tuple(binomial(d, j + 1) if j >= 0 else 1 for j in range(-1, d))


def test_f_from_h_known_values():
    assert f_from_h(HVector((1, 1, 1, 1))) == (1, 4, 6, 4)


def test_short_h_first_entry_is_vertex_count():
    sc = CORPUS["boundary-simplex-3"]
    assert short_h_from_f(sc.f_vector())[0] == sc.n_vertices == 4


def test_short_h_from_f_known_values():
    assert short_h_from_f(FVector((1, 4, 6, 4))) == (4, 4, 4)
    assert short_h_from_f(FVector((1, 6, 12, 8))) == (6, 12, 6)


def test_short_h_from_links_known_values():
    assert short_h_from_links(CORPUS["boundary-simplex-2"]) == (3, 3)
    assert short_h_from_links(CORPUS["boundary-simplex-3"]) == (4, 4, 4)
    assert short_h_from_links(CORPUS["octahedron"]) == (6, 12, 6)


def test_short_h_from_links_rejects_impure():
    impure = SimplicialComplex([[0, 1, 2], [2, 3]])
    with pytest.raises(ValueError, match="pure"):
        short_h_from_links(impure)


def test_f_from_short_h_known_values():
    assert f_from_short_h(ShortHVector((4, 4, 4)))[1] == 6
    assert f_from_short_h(ShortHVector((6, 12, 6)))[2] == 8


def test_f_from_short_h_rejects_non_integral():
    # one isolated vertex cannot be the short h-vector of a 1-dim complex
    with pytest.raises(ValueError, match="divisible"):
        f_from_short_h(ShortHVector((1, 0)))


def test_f_from_short_h_first_entry():
    for sh in (ShortHVector((4, 4, 4)), ShortHVector((6, 12, 6))):
        assert f_from_short_h(sh)[0] == sh[0]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_round_trips_on_corpus(name):
    f = CORPUS[name].f_vector()
    assert f_from_h(h_from_f(f)) == f
    assert f_from_short_h(short_h_from_f(f)) == f


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_links_definition_matches_arithmetic_form(name):
    sc = CORPUS[name]
    if sc.is_pure:
        assert short_h_from_links(sc) == short_h_from_f(sc.f_vector())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_vertex_link_face_count_identity(name):
    # sum over vertices of f_{j-1}(link) equals (j+1) f_j
    sc = CORPUS[name]
    if not sc.is_pure:
        return
    links = [sc.link((v,)) for v in sc.vertices]
    for j in range(0, sc.dim + 1):
        total = sum(len(link.faces(j - 1)) for link in links)
        assert total == (j + 1) * len(sc.faces(j))


def test_beta_integral_small_values():
    assert beta_integral(0, 2) == Fraction(-1, 2)
    assert beta_integral(1, 2) == Fraction(1, 2)
    assert beta_integral(0, 1) == 1


def test_beta_integral_matches_closed_form():
    for r in range(1, 11):
        for i in range(r):
            finite = sum(
                Fraction((-1) ** (r - j) * binomial(r - i - 1, r - j), j)
                for j in range(i + 1, r + 1)
            )
            closed = Fraction(
                (-1) ** (r - i - 1) * factorial(i) * factorial(r - i - 1), factorial(r)
            )
            assert beta_integral(i, r) == finite == closed


def test_beta_integral_range_check():
    with pytest.raises(ValueError):
        beta_integral(2, 2)
    with pytest.raises(ValueError):
        beta_integral(-1, 2)


def test_short_h_coefficient_signs_alternate():
    for k in range(0, 4):
        for r in range(0, 2 * k + 3):
            for i in range(r):
                coeff = short_h_coefficient(k, r, i)
                if coeff != 0:
                    expected_sign = (-1) ** (r - i - 1)
                    assert (1 if coeff > 0 else -1) == expected_sign


def test_h_from_short_h_boundary_simplex_4():
    sh = ShortHVector((5, 5, 5, 5))
    assert h_from_short_h(sh, 1, 1) == 1
    assert h_from_short_h(sh, 1, 2) == 1


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(CORPUS) if CORPUS[n].is_pure and CORPUS[n].dim % 2 == 1],
)
def test_h_from_short_h_matches_direct_transform(name):
    sc = CORPUS[name]
    k = (sc.dim - 1) // 2
    h = h_from_f(sc.f_vector())
    sh = short_h_from_links(sc)
    for r in range(0, 2 * k + 3):
        value = h_from_short_h(sh, k, r)
        assert value.denominator == 1
        assert value == h[r]


def test_h_from_short_h_validates_length():
    with pytest.raises(ValueError):
        h_from_short_h(ShortHVector((3, 3)), 1, 0)
    with pytest.raises(ValueError):
        h_from_short_h(ShortHVector((5, 5, 5, 5)), 1, 5)


def test_lower_bound_coeff_diagonal():
    for d in range(1, 10):
        for i in range(d):
            assert lower_bound_coeff(d, i, i) == Fraction(1, i + 1)


def test_lower_bound_coeff_known_values():
    assert lower_bound_coeff(4, 1, 0) == Fraction(1, 2)
    assert lower_bound_coeff(5, 2, 0) == 1


def test_lower_bound_coeff_non_negative_in_stable_range():
    for d in range(1, 13):
        for i in range((d - 1) // 2 + 1):
            for l in range(i + 1):
                assert lower_bound_coeff(d, i, l) >= 0


def test_lower_bound_terms_chain_monotone():
    # (1/(j+1)) C(d-1-l, d-1-j) grows with j on l..i in the stable range
    for d in range(1, 13):
        for i in range((d - 1) // 2 + 1):
            for l in range(i + 1):
                terms = [
                    Fraction(binomial(d - 1 - l, d - 1 - j), j + 1)
                    for j in range(l, i + 1)
                ]
                assert all(a <= b for a, b in zip(terms, terms[1:]))


def test_f_reconstruction_coefficients_non_negative():
    for d in range(1, 13):
        for j in range(d):
            for i in range(j + 1):
                assert Fraction(binomial(d - 1 - i, d - 1 - j), j + 1) >= 0


def _facets(draw_sets):
    return [sorted(s) for s in draw_sets]


pure_complexes = st.integers(min_value=1, max_value=4).flatmap(
    lambda size: st.lists(
        st.sets(st.integers(0, 6), min_size=size, max_size=size),
        min_size=1,
        max_size=8,
    ).map(lambda facets: SimplicialComplex(_facets(facets)))
)

any_complexes = st.lists(
    st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=8
).map(lambda facets: SimplicialComplex(_facets(facets)))


@settings(max_examples=60, deadline=None)
@given(any_complexes)
def test_round_trips_random(sc):
    f = sc.f_vector()
    assert f_from_h(h_from_f(f)) == f
    assert f_from_short_h(short_h_from_f(f)) == f


@settings(max_examples=60, deadline=None)
@given(pure_complexes)
def test_link_sum_identity_random(sc):
    assert short_h_from_links(sc) == short_h_from_f(sc.f_vector())


@settings(max_examples=60, deadline=None)
@given(pure_complexes)
def test_vertex_link_face_count_identity_random(sc):
    for j in range(0, sc.dim + 1):
        total = sum(len(sc.link((v,)).faces(j - 1)) for v in sc.vertices)
        assert total == (j + 1) * len(sc.faces(j))
