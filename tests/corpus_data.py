"""The shared complex corpus: pure complexes spanning dimensions 1 to 4.

Acceptance identities run over CORPUS; degenerate and impure inputs used by
individual unit tests live in EXTRAS.  staircase_product triangulates the
product of two complexes, for manifolds that are not spheres.
"""

from __future__ import annotations

from itertools import combinations

from ubckit import (
    SimplicialComplex,
    boundary_simplex,
    build_complex,
    cross_polytope,
    disjoint_union,
    gale_facets,
    join,
    projective_plane_6,
    suspension,
    torus_7,
    wedge,
)


def staircase_product(a, b):
    """Staircase triangulation of |a| x |b|: each pair of facets gives one
    simplex per monotone lattice path through their vertex pairs; (u, v) is
    vertex u * |b.vertices| + v."""
    width = b.n_vertices
    facets = []
    for s in a.facets:
        for t in b.facets:
            steps = len(s) + len(t) - 2
            for ups in combinations(range(steps), len(t) - 1):
                i = j = 0
                path = [s[0] * width + t[0]]
                for step in range(steps):
                    if step in ups:
                        j += 1
                    else:
                        i += 1
                    path.append(s[i] * width + t[j])
                facets.append(path)
    return build_complex(facets)


def _corpus() -> dict[str, SimplicialComplex]:
    return {
        # dimension 1
        "boundary-simplex-2": boundary_simplex(2),
        "cyclic-2-4": gale_facets(2, 4),
        "cyclic-2-6": gale_facets(2, 6),
        "path-3": build_complex([[0, 1], [1, 2]]),
        "two-edges": build_complex([[0, 1], [2, 3]]),
        # dimension 2
        "boundary-simplex-3": boundary_simplex(3),
        "octahedron": cross_polytope(3),
        "torus-7": torus_7(),
        "rp2-6": projective_plane_6(),
        "solid-triangle": build_complex([[0, 1, 2]]),
        "bowtie": build_complex([[0, 1, 2], [0, 3, 4]]),
        "two-spheres": disjoint_union(boundary_simplex(3), boundary_simplex(3)),
        "wedge-spheres-2": wedge(boundary_simplex(3), boundary_simplex(3)),
        "bipyramid": suspension(boundary_simplex(2)),
        # dimension 3
        "boundary-simplex-4": boundary_simplex(4),
        "cross-polytope-4": cross_polytope(4),
        "cyclic-4-7": gale_facets(4, 7),
        "cyclic-4-9": gale_facets(4, 9),
        "suspension-torus-7": suspension(torus_7()),
        "wedge-spheres-3": wedge(boundary_simplex(4), boundary_simplex(4)),
        "join-triangles": join(boundary_simplex(2), boundary_simplex(2)),
        # dimension 4
        "boundary-simplex-5": boundary_simplex(5),
        "cross-polytope-5": cross_polytope(5),
        "cyclic-5-8": gale_facets(5, 8),
    }


CORPUS = _corpus()

EXTRAS = {
    "point": build_complex([[0]]),
    "empty": build_complex([[]]),
    "impure": build_complex([[0, 1, 2], [2, 3]]),
}
