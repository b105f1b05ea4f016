"""The sparse rank kernel against independent oracles and closed forms, and
the arithmetic self-checks under ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ubckit
from oracles import brute_force_betti, dense_to_columns, rank_fraction
from ubckit import _chains
from ubckit import (
    betti_numbers,
    boundary_matrix,
    build_complex,
    cone,
    connected_components,
    cross_polytope,
    gale_facets,
    join,
    matrix_rank,
    projective_plane_6,
    suspension,
    torus_7,
)

ENTRIES = st.integers(-6, 6)


@st.composite
def integer_matrices(draw):
    """Shapes 0..12 x 0..12 with entries -6..6, some rows and columns forced
    to zero."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    mat = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    for r in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows)):
        mat[r] = [0] * cols
    for c in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols)):
        for row in mat:
            row[c] = 0
    return mat


@st.composite
def low_rank_products(draw):
    """A (rows x k) times B (k x cols), so the rank is at most k."""
    rows, k, cols = draw(st.integers(0, 12)), draw(st.integers(0, 4)), draw(st.integers(0, 12))
    a = [[draw(ENTRIES) for _ in range(k)] for _ in range(rows)]
    b = [[draw(ENTRIES) for _ in range(cols)] for _ in range(k)]
    return [[sum(a[r][i] * b[i][c] for i in range(k)) for c in range(cols)] for r in range(rows)]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_rank_matches_fraction_oracle(mat):
    assert matrix_rank(dense_to_columns(mat)) == rank_fraction(mat)


@settings(max_examples=300, deadline=None)
@given(low_rank_products())
def test_rank_of_low_rank_products(mat):
    assert matrix_rank(dense_to_columns(mat)) == rank_fraction(mat)


def test_rank_leaves_input_unchanged():
    # the second column reduces in place (pivot entry 1), the fourth after
    # scaling (pivot entry 6)
    columns = dense_to_columns([[2, 4, 0, 1], [1, 2, 5, 3], [0, 0, 6, 2]])
    copy = [dict(column) for column in columns]
    assert matrix_rank(columns) == 3
    assert columns == copy


def test_rank_ignores_zero_entries():
    assert matrix_rank([{0: 0, 1: 2}, {0: 0}, {1: 4, 2: 0}]) == 1


def _sphere_betti(d):
    return (0,) * (d + 1) + (1,)


FACETS = st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=5).map(sorted), min_size=1, max_size=8
)


@settings(max_examples=150, deadline=None)
@given(FACETS)
def test_betti_matches_brute_force(facets):
    sc = build_complex(facets)
    assert betti_numbers(sc).entries == brute_force_betti(sc.facets)


SMALL_FACETS = st.lists(
    st.sets(st.integers(0, 4), min_size=1, max_size=3).map(sorted), min_size=1, max_size=4
)

# impure and disconnected complexes, their cones and suspensions, and joins
COMPLEXES = st.one_of(
    FACETS.map(build_complex),
    FACETS.map(build_complex).map(cone),
    FACETS.map(build_complex).map(suspension),
    st.builds(join, SMALL_FACETS.map(build_complex), SMALL_FACETS.map(build_complex)),
)


def _reductions(sc):
    """betti_numbers(sc), and (columns built, pivots) of each elimination
    in the order betti_numbers runs them."""
    pivot_lows = _chains._pivot_lows
    seen = []

    def recording(columns):
        lows = pivot_lows(columns)
        seen.append((len(columns), len(lows)))
        return lows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_chains, "_pivot_lows", recording)
        betti = betti_numbers(sc)
    return betti, seen


def _dense(columns, rows):
    return [[column.get(r, 0) for column in columns] for r in range(rows)]


# fewer examples than the plain-facet tests: the dense Fraction oracles on a
# suspension's operators take up to about a second
@settings(max_examples=60, deadline=None)
@given(COMPLEXES)
def test_cleared_ranks_match_fraction_oracle(sc):
    # the pass reduces boundary_dim .. boundary_2 top-down; each rank equals
    # the dense rank of the whole operator, though cleared columns are never
    # built, and the columns built at level i that reduce to zero number b_i
    betti, seen = _reductions(sc)
    levels = range(sc.dim, 1, -1)
    assert len(seen) == len(levels)
    for i, (built, pivots) in zip(levels, seen):
        full = boundary_matrix(sc, i)
        assert pivots == rank_fraction(_dense(full, len(sc.faces(i - 1))))
        assert built - pivots == betti[i]
    assert betti.entries == brute_force_betti(sc.facets)


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: cross_polytope(8), _sphere_betti(7)),
        (lambda: gale_facets(8, 14), _sphere_betti(7)),
        (lambda: build_complex([range(12)]), (0,) * 13),
    ],
    ids=["cross-polytope-8", "cyclic-8-14", "solid-12-simplex"],
)
def test_cleared_betti_closed_forms(build, expected):
    # spheres and a contractible simplex: the columns built at level i that
    # reduce to zero number b_i, which is 0 below the top, so every column
    # built there is a pivot
    betti, seen = _reductions(build())
    assert betti.entries == expected
    assert all(built == pivots for built, pivots in seen[1:])


@settings(max_examples=150, deadline=None)
@given(FACETS)
def test_low_boundary_ranks_have_closed_forms(facets):
    # betti_numbers takes these two ranks without elimination
    sc = build_complex(facets)
    assert matrix_rank(boundary_matrix(sc, 0)) == 1
    assert matrix_rank(boundary_matrix(sc, 1)) == sc.n_vertices - connected_components(sc)


@pytest.mark.parametrize("build", [cone, suspension], ids=["cone", "suspension"])
def test_betti_with_z2_torsion(build):
    # H_1(RP^2; Z) = Z/2: the boundary matrices have elementary divisor 2,
    # which vanishes over Q.
    sc = build(projective_plane_6())
    assert betti_numbers(sc).entries == brute_force_betti(sc.facets)
    assert all(b == 0 for b in betti_numbers(sc).entries)


@pytest.mark.parametrize(
    "sc",
    [cross_polytope(7), gale_facets(6, 14)],
    ids=["cross-polytope-7", "cyclic-6-14"],
)
def test_large_spheres(sc):
    assert betti_numbers(sc).entries == _sphere_betti(sc.dim)


def test_join_of_tori():
    # Reduced Kunneth for joins: H_{n+1}(A*B) = sum_{i+j=n} H_i(A) (x) H_j(B).
    # The torus has b_1 = 2, b_2 = 1, so b_3 = 2*2, b_4 = 2*1 + 1*2, b_5 = 1.
    sc = join(torus_7(), torus_7())
    assert betti_numbers(sc).entries == (0, 0, 0, 0, 4, 4, 1)


_SELF_CHECKS = """
from math import factorial
import ubckit.vectors
from ubckit import SimplicialComplex, beta_integral, betti_numbers, boundary_simplex

def expect_arithmetic_error(call):
    try:
        call()
    except ArithmeticError as exc:
        print("raised:", exc)
    else:
        raise SystemExit("no ArithmeticError")

chi = SimplicialComplex.euler_characteristic
SimplicialComplex.euler_characteristic = lambda self: chi(self) + 1
expect_arithmetic_error(lambda: betti_numbers(boundary_simplex(3)))
ubckit.vectors.factorial = lambda n: factorial(n) + 1
expect_arithmetic_error(lambda: beta_integral(1, 4))
"""


def test_self_checks_survive_optimize():
    src = str(Path(ubckit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", _SELF_CHECKS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.count("raised:") == 2
