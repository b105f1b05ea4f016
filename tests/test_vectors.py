"""Transforms between f-, h- and short h-vectors, and the exact coefficient
machinery for rewriting h-entries and skeleton Euler characteristics."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_data import CORPUS
from ubckit import (
    BettiVector,
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
from ubckit import complexes, vectors


def test_vectors_binds_the_exact_types_of_complexes():
    for name in ("FVector", "HVector", "ShortHVector", "binomial"):
        assert getattr(vectors, name) is getattr(complexes, name)


def test_binomial_outside_range_is_zero():
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(5, 2) == 10


def test_vector_validation():
    for cls, entries, message in [
        (FVector, (), "an f-vector has at least the f_-1 entry"),
        (FVector, (2, 3), "f_-1 must be 1, got 2"),
        (FVector, (1, -1), "face counts must be non-negative: (1, -1)"),
        (HVector, (), "an h-vector has at least the h_0 entry"),
        (HVector, (0, 1), "h_0 must be 1, got 0"),
        (ShortHVector, (-2, 0), "sh_0 counts vertices and must be >= 0: (-2, 0)"),
        (BettiVector, (), "a Betti vector has at least the b_-1 entry"),
        (BettiVector, (0, 1, -1), "Betti numbers must be non-negative: (0, 1, -1)"),
    ]:
        with pytest.raises(ValueError) as err:
            cls(entries)
        assert str(err.value) == message


@pytest.mark.parametrize("cls", [FVector, HVector, ShortHVector, BettiVector])
def test_vector_entries_are_exact_integers(cls):
    # an integral Fraction (what h_from_short_h returns) is kept as an int
    vec = cls([1, Fraction(4, 1), 6])
    assert vec.entries == (1, 4, 6) and type(vec.entries[1]) is int
    for bad in (4.2, 4.0, True, "4", Fraction(9, 2)):
        with pytest.raises(ValueError) as err:
            cls([1, bad, 6])
        assert str(err.value) == f"{cls.__name__} entries must be integers, got {bad!r}"


def test_vectors_iterate_measure_and_hash_their_entries():
    f = FVector((1, 4, 6, 4))
    assert list(f) == [1, 4, 6, 4] and len(f) == 4 and f.d == 3
    assert HVector((1, 1, 1, 1)).d == 3 and ShortHVector((4, 4, 4)).d == 3
    assert BettiVector((0, 0, 2, 1)).dim == 2
    assert hash(f) == hash(FVector([1, 4, 6, 4])) and {f: "f"}[FVector([1, 4, 6, 4])] == "f"
    # equal to the tuple of its entries, so it hashes like it too
    assert f == (1, 4, 6, 4) and hash(f) == hash((1, 4, 6, 4)) and f in {(1, 4, 6, 4)}
    # another type is left to compare itself: an f-vector equals no h-vector
    assert f.__eq__(4) is NotImplemented and f != 4
    assert FVector((1, 1)) != HVector((1, 1))


def test_beta_integral_cross_check_raises_on_a_mismatch(monkeypatch):
    # the self-check raises rather than asserts, so it runs under python -O
    monkeypatch.setattr(vectors, "factorial", lambda n: 2)
    with pytest.raises(ArithmeticError) as err:
        beta_integral(0, 1)
    assert str(err.value) == "beta_integral(0, 1): 1 != 2"


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


@pytest.mark.parametrize(
    "transform, expected",
    [(h_from_f, "FVector"), (f_from_h, "HVector"), (short_h_from_f, "FVector"),
     (f_from_short_h, "ShortHVector"), (lambda v: h_from_short_h(v, 1, 2), "ShortHVector")],
)
def test_transform_rejects_another_vector_type(transform, expected):
    # each of these has entries that another transform would accept
    for wrong in (FVector((1, 1, 1, 1)), HVector((1, 1, 1, 1)), ShortHVector((1, 1, 1)), (1, 1, 1)):
        if type(wrong).__name__ == expected:
            continue
        with pytest.raises(TypeError) as err:
            transform(wrong)
        assert str(err.value) == f"expected {expected}, got {type(wrong).__name__}"


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


@pytest.mark.parametrize(
    "function, args, message",
    [
        (short_h_coefficient, (-1, 0, 0), "indices out of range: k=-1, r=0, i=0"),
        (short_h_coefficient, (1, 5, 0), "indices out of range: k=1, r=5, i=0"),
        (short_h_coefficient, (1, 2, 2), "indices out of range: k=1, r=2, i=2"),
        (short_h_coefficient, (1, 2, -1), "indices out of range: k=1, r=2, i=-1"),
        (lower_bound_coeff, (4, 1, 2), "need 0 <= l <= i <= d-1, got d=4, i=1, l=2"),
        (lower_bound_coeff, (4, 4, 0), "need 0 <= l <= i <= d-1, got d=4, i=4, l=0"),
        (lower_bound_coeff, (4, 1, -1), "need 0 <= l <= i <= d-1, got d=4, i=1, l=-1"),
    ],
)
def test_coefficient_indices_are_range_checked(function, args, message):
    with pytest.raises(ValueError) as err:
        function(*args)
    assert str(err.value) == message


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
