"""Boundary complexes of cyclic polytopes and their combinatorial data.

The facets of the d-dimensional cyclic polytope on vertices 0..n-1 are read
off Gale's evenness condition; no coordinates are involved.  These complexes
are the comparison benchmark for all upper-bound checks.
"""

from __future__ import annotations

from .complexes import SimplicialComplex
from .vectors import binomial


def _check_spec(d: int, n: int) -> None:
    if d < 2:
        raise ValueError(f"cyclic polytope dimension must be >= 2, got {d}")
    if n <= d:
        raise ValueError(f"need more vertices than the dimension, got n={n}, d={d}")


def gale_facets(d: int, n: int) -> SimplicialComplex:
    """Boundary complex of the cyclic d-polytope on vertices 0..n-1.

    A d-subset S is a facet exactly when for every pair i < j of vertices
    outside S, the number of elements of S strictly between i and j is even
    (Gale's evenness condition).  Equivalently, every maximal block of
    consecutive elements of S is of even length unless it contains 0 or
    n-1 (Ziegler, Lectures on Polytopes, Thm 0.7).  The facets are
    enumerated directly in that form, by depth-first search over the
    blocks, in lexicographic order.  n = d+1 is allowed and yields the
    boundary of a simplex.
    """
    _check_spec(d, n)
    facets: list[tuple[int, ...]] = []

    def place(start: int, r: int, prefix: tuple[int, ...]) -> None:
        # vertex start-1 is outside S; r elements remain for start..n-1.
        # For each first element x, a longer block is lexicographically
        # smaller; an interior block must leave room for an outside vertex
        # and the remaining elements, so every branch yields a facet.
        if r == 0:
            facets.append(prefix)
            return
        for x in range(start, n - r):
            for length in range(r - r % 2, 0, -2):
                place(x + length + 1, r - length, prefix + tuple(range(x, x + length)))
        facets.append(prefix + tuple(range(n - r, n)))

    for first in range(d, 0, -1):  # the block containing vertex 0
        place(first + 1, d - first, tuple(range(first)))
    place(1, d, ())
    return SimplicialComplex._trusted(tuple(facets))


def cyclic_h(d: int, n: int, i: int) -> int:
    """h_i of the cyclic d-polytope boundary on n vertices.

    h_i = C(n-d+i-1, i) for i <= floor(d/2), extended palindromically by
    h_i = h_{d-i} above the middle.
    """
    _check_spec(d, n)
    if not 0 <= i <= d:
        raise ValueError(f"h-index {i} out of range 0..{d}")
    if i > d // 2:
        i = d - i
    return binomial(n - d + i - 1, i)


def neighborliness(sc: SimplicialComplex) -> int:
    """Largest l such that every l-subset of the vertices is a face.

    An l-subset of the n vertices is a face exactly when it is an
    (l-1)-face, so every l-subset is one exactly when f_(l-1) = C(n, l);
    the face counts are read from the lattice, no subset is tested.
    0 for the empty complex; cyclic d-polytope boundaries achieve floor(d/2)
    once they have at least d+2 vertices.
    """
    n, l = sc.n_vertices, 0
    while l < n and len(sc.faces(l)) == binomial(n, l + 1):
        l += 1
    return l
