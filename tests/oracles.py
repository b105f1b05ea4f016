"""Independent oracles used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: hull
facets come from exact orientation determinants over moment-curve points,
f-vectors from brute-force subset enumeration, and Betti numbers from a
plain rational Gaussian elimination.  The reference link and Gale
enumeration are the straightforward versions of the library's fast paths:
a scan over every facet rebuilt through the full constructor, and a test of
Gale's evenness condition on every d-subset.  The maximal faces of a face
list come from comparing every pair, and neighborliness from testing every
vertex subset.  ``dense_to_columns`` turns a dense matrix into the sparse
column input of ``matrix_rank``; ``rank_fraction`` itself stays dense.
``per_vertex_ubc_hypotheses`` is the UBC hypothesis check done one vertex
link at a time, every face link rebuilt by ``scan_link`` and its homology
taken from ``brute_force_betti``.
``classify_by_definition``, ``reisner_cohen_macaulay`` and
``vertex_link_buchsbaum`` are the classifiers one condition at a time, in
the same way: every link rebuilt by ``scan_link``, its face counts from
``brute_force_f_vector`` and its homology from ``brute_force_betti``.
``pseudomanifold_by_definition`` counts the ridges of every facet and
groups facets and vertices by comparing every pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def det_fraction(rows) -> Fraction:
    """Determinant by rational Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def moment_curve_hull_facets(d: int, n: int) -> set[tuple[int, ...]]:
    """Facets of the convex hull of n moment-curve points (t, t^2, ..., t^d),
    t = 1..n, found by exhaustive exact side checks."""
    points = [tuple(t**e for e in range(1, d + 1)) for t in range(1, n + 1)]
    facets = set()
    for subset in combinations(range(n), d):
        signs = set()
        for other in range(n):
            if other in subset:
                continue
            rows = [list(points[i]) + [1] for i in subset]
            rows.append(list(points[other]) + [1])
            value = det_fraction(rows)
            signs.add(0 if value == 0 else (1 if value > 0 else -1))
        if len(signs) == 1 and 0 not in signs:
            facets.add(subset)
    return facets


def brute_force_f_vector(facets) -> tuple[int, ...]:
    """(f_-1, f_0, ...) by enumerating every subset of the vertex set and
    testing containment in some facet."""
    facet_sets = [frozenset(f) for f in facets]
    vertices = sorted({v for f in facet_sets for v in f})
    counts: dict[int, int] = {-1: 1}
    for size in range(1, len(vertices) + 1):
        total = 0
        for cand in combinations(vertices, size):
            cs = frozenset(cand)
            if any(cs <= f for f in facet_sets):
                total += 1
        if total == 0:
            break
        counts[size - 1] = total
    top = max(counts)
    return tuple(counts[i] for i in range(-1, top + 1))


def brute_force_faces(facets, i: int) -> tuple[tuple[int, ...], ...]:
    """The i-faces, sorted, by testing every (i+1)-subset of the vertex set
    for containment in some facet."""
    if i < -1:
        return ()
    facet_sets = [frozenset(f) for f in facets]
    vertices = sorted({v for f in facet_sets for v in f})
    return tuple(c for c in combinations(vertices, i + 1) if any(set(c) <= f for f in facet_sets))


def brute_force_neighborliness(facets) -> int:
    """Largest l such that every l-subset of the vertex set lies in some
    facet, by testing every subset of every size."""
    facet_sets = [frozenset(f) for f in facets]
    vertices = sorted({v for f in facet_sets for v in f})
    best = 0
    for size in range(1, len(vertices) + 1):
        if not all(any(set(c) <= f for f in facet_sets) for c in combinations(vertices, size)):
            break
        best = size
    return best


def rank_fraction(mat) -> int:
    """Matrix rank over the rationals by plain Gaussian elimination."""
    if not mat or not mat[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in mat]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, nrows):
            factor = m[r][col] / m[row][col]
            for c in range(col, ncols):
                m[r][c] -= factor * m[row][c]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def dense_to_columns(mat) -> list[dict[int, int]]:
    """The columns {row: entry} of a dense matrix given as a list of rows,
    zero entries left out."""
    ncols = len(mat[0]) if mat else 0
    return [{r: row[c] for r, row in enumerate(mat) if row[c]} for c in range(ncols)]


def brute_force_maximal_faces(faces) -> tuple[tuple[int, ...], ...]:
    """The distinct faces of a list that lie in no other face of it, sorted;
    every pair of faces is compared."""
    distinct = {tuple(sorted(f)) for f in faces}
    return tuple(sorted(f for f in distinct if not any(set(f) < set(g) for g in distinct)))


def brute_force_betti(facets) -> tuple[int, ...]:
    """Reduced rational Betti numbers (b_-1, b_0, ...) straight from the
    definition, with its own face enumeration and rank routine."""
    facet_sets = [frozenset(f) for f in facets]
    vertices = sorted({v for f in facet_sets for v in f})
    by_dim: dict[int, list[tuple[int, ...]]] = {-1: [()]}
    for size in range(1, len(vertices) + 1):
        level = [
            cand
            for cand in combinations(vertices, size)
            if any(frozenset(cand) <= f for f in facet_sets)
        ]
        if not level:
            break
        by_dim[size - 1] = level
    top = max(by_dim)

    def boundary(i: int):
        rows = by_dim.get(i - 1, [])
        cols = by_dim.get(i, [])
        index = {f: r for r, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for c, face in enumerate(cols):
            for m_pos in range(len(face)):
                sub = face[:m_pos] + face[m_pos + 1 :]
                mat[index[sub]][c] = -1 if m_pos % 2 else 1
        return mat

    ranks = [rank_fraction(boundary(i)) for i in range(0, top + 1)]
    ranks.append(0)
    betti = [1 - (ranks[0] if top >= 0 else 0)]
    for i in range(0, top + 1):
        betti.append(len(by_dim[i]) - ranks[i] - ranks[i + 1])
    return tuple(betti)


def scan_link(sc, face):
    """Link of a face by scanning every facet that contains it; the result
    goes through the full constructor (normalization and absorption)."""
    from ubckit import SimplicialComplex

    fs = set(face)
    return SimplicialComplex(
        tuple(v for v in facet if v not in fs) for facet in sc.facets if fs.issubset(facet)
    )


def brute_force_gale_facets(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Every d-subset of 0..n-1, in lexicographic order, that satisfies
    Gale's evenness condition: between any two outside vertices lies an
    even number of elements of the subset."""
    facets = []
    for subset in combinations(range(n), d):
        inside = set(subset)
        outside = [v for v in range(n) if v not in inside]
        if all(
            sum(1 for s in subset if i < s < j) % 2 == 0
            for a, i in enumerate(outside)
            for j in outside[a + 1 :]
        ):
            facets.append(subset)
    return tuple(facets)


def _faces_top_down(sc, include_empty: bool):
    """Every face of sc by (-dim, face), found by testing each vertex subset
    against the facets; the empty face last when asked for."""
    for size in range(sc.dim + 1, 0, -1):
        for face in combinations(sc.vertices, size):
            if any(set(face) <= set(f) for f in sc.facets):
                yield face
    if include_empty:
        yield ()


def _sphere_failure(sc):
    """The (face, reason) is_homology_manifold gives for a pure complex: the
    first nonempty face, by (-dim, face), whose link does not have the
    reduced Betti numbers of a sphere of complementary dimension; None if
    none."""
    for face in _faces_top_down(sc, include_empty=False):
        link = scan_link(sc, face)
        m = sc.dim - len(face)
        b = brute_force_betti(link.facets)
        if link.dim != m or b != (0,) * (m + 1) + (1,):
            return face, (
                f"link has reduced Betti numbers {list(b)} "
                f"(indices -1..{link.dim}), not those of a {m}-sphere"
            )
    return None


def _admissible(link, k: int, mode: str):
    failure = _sphere_failure(link)
    if failure is not None:
        return False, f"link is not a homology manifold: {failure[1]}"
    f = brute_force_f_vector(link.facets)
    chi = sum((-1) ** i * f[i + 1] for i in range(len(f) - 1))
    b = brute_force_betti(link.facets)  # b[i + 1] is the reduced b_i

    if mode == "corollary":
        middle = b[k + 1]
        if middle == 0 or (-1) ** k * (chi - 2) <= 0:
            return True, None
        return False, (
            f"beta_{k}(link) = {middle} != 0 and (-1)^{k}*(chi-2) = "
            f"{(-1) ** k * (chi - 2)} > 0"
        )
    orientable = b[-1] == b[1] + 1  # top Betti number = number of components
    bound = 2 * b[k] + 2 * sum(b[i + 1] for i in range(0, k - 2))
    if chi == 2 or (orientable and b[k + 1] <= bound):
        return True, None
    if not orientable:
        return False, f"chi(link) = {chi} != 2 and the link is not orientable"
    return False, (
        f"chi(link) = {chi} != 2 and the middle Betti bound fails: "
        f"beta_{k} = {b[k + 1]} > {bound}"
    )


def per_vertex_ubc_hypotheses(sc, mode: str = "theorem"):
    """check_ubc_hypotheses for a pure (2k+1)-dimensional complex with one
    homology-manifold test per vertex link: the faces of lk(v) are scanned
    top-down on their own, so each face G of the complex is visited once per
    vertex of G."""
    from ubckit import Hypothesis, is_pseudomanifold

    k = (sc.dim - 1) // 2
    items = []
    if mode == "corollary":
        pm, orientable, wit = is_pseudomanifold(sc)
        reason = None
        if not pm:
            reason = wit.reason
        elif not orientable:
            reason = "pseudomanifold is not orientable"
        items.append(
            Hypothesis("complex is an oriented pseudomanifold", bool(pm) and bool(orientable), reason)
        )
    for v in sc.vertices:
        ok, reason = _admissible(scan_link(sc, (v,)), k, mode)
        items.append(Hypothesis(f"link of vertex {v} is admissible", ok, reason))
    return tuple(items)


def _chi(facets) -> int:
    f = brute_force_f_vector(facets)
    return sum((-1) ** i * f[i + 1] for i in range(len(f) - 1))


def _euler_failure(sc, include_empty: bool):
    """is_eulerian (include_empty) or is_semi_eulerian of a pure complex:
    the first face whose link's Euler characteristic is not the sphere's of
    its dimension, as a Witness; None if none."""
    from ubckit import Witness

    for face in _faces_top_down(sc, include_empty):
        link = scan_link(sc, face)
        chi, expected = _chi(link.facets), 0 if link.dim % 2 else 2
        if chi != expected:
            return Witness(
                face, f"chi(link) = {chi}, expected {expected} for dimension {link.dim}"
            )
    return None


def reisner_cohen_macaulay(sc):
    """is_cohen_macaulay by Reisner's criterion on every face, the empty
    face included: the first link with nonvanishing reduced homology below
    its dimension is the witness."""
    from ubckit import Witness

    for face in _faces_top_down(sc, include_empty=True):
        link = scan_link(sc, face)
        b = brute_force_betti(link.facets)  # b[i + 1] is the reduced b_i
        for i in range(-1, link.dim):
            if b[i + 1] != 0:
                return False, Witness(
                    face,
                    f"link has reduced Betti number {b[i + 1]} in dimension {i} "
                    f"below its dimension {link.dim}",
                )
    return True, None


def vertex_link_buchsbaum(sc, cohen_macaulay=reisner_cohen_macaulay):
    """is_buchsbaum as its definition: pure, and Reisner's criterion on each
    vertex link, checked in turn by cohen_macaulay."""
    from ubckit import Witness

    if not sc.is_pure:
        return False, Witness(None, "complex is not pure")
    for v in sc.vertices:
        flag, inner = cohen_macaulay(scan_link(sc, (v,)))
        if not flag:
            return False, Witness(
                (v,), f"link of vertex {v} is not Cohen-Macaulay: {inner.reason}"
            )
    return True, None


def _count_groups(items, adjacent) -> int:
    """Classes of items under the transitive closure of adjacent, found by
    a search that tests every pair."""
    unseen, groups = list(items), 0
    while unseen:
        groups += 1
        stack = [unseen.pop()]
        while stack:
            item = stack.pop()
            near = [other for other in unseen if adjacent(item, other)]
            unseen = [other for other in unseen if other not in near]
            stack.extend(near)
    return groups


def pseudomanifold_by_definition(sc):
    """is_pseudomanifold's flag and witness: None for an impure complex;
    in dimension 0, exactly two vertices; otherwise the first sorted
    (d-1)-subset of a facet that does not lie in exactly two facets, then
    the groups of facets linked through shared ridges against the
    components of the vertex graph."""
    from ubckit import Witness

    if not sc.is_pure:
        return None, Witness(None, "complex is not pure")
    d, n = sc.dim, len(sc.vertices)
    if d == 0 and n != 2:
        return False, Witness(None, f"a 0-pseudomanifold has exactly 2 vertices, found {n}")
    if d <= 0:
        return True, None
    owners: dict[tuple[int, ...], int] = {}
    for facet in sc.facets:
        for ridge in combinations(facet, d):
            owners[ridge] = owners.get(ridge, 0) + 1
    for ridge in sorted(owners):
        if owners[ridge] != 2:
            return False, Witness(ridge, f"ridge lies in {owners[ridge]} facets, expected exactly 2")
    facet_groups = _count_groups(sc.facets, lambda f, g: len(set(f) & set(g)) == d)
    components = _count_groups(sc.vertices, lambda u, v: any({u, v} <= set(f) for f in sc.facets))
    if facet_groups != components:
        return False, Witness(
            None,
            "facets are not ridge-connected within each component "
            f"({facet_groups} facet groups vs {components} components)",
        )
    return True, None


def classify_by_definition(sc):
    """classify as six separate classifiers, each walking every link it
    needs: Euler characteristics for (semi-)Eulerian, a sphere test per face
    for homology manifold, Reisner for Cohen-Macaulay and per vertex link
    for Buchsbaum, and ridge counts for pseudomanifold
    (:func:`pseudomanifold_by_definition`).  Orientable means the unreduced
    top Betti number equals the number of components."""
    from ubckit import ClassificationReport, Witness

    pure, d = sc.is_pure, sc.dim
    b = brute_force_betti(sc.facets)  # b[i + 1] is the reduced b_i
    witnesses = {}
    if pure:
        flags = {}
        for flag, include_empty in (("eulerian", True), ("semi_eulerian", False)):
            wit = _euler_failure(sc, include_empty)
            flags[flag] = wit is None
            if wit is not None:
                witnesses[flag] = wit
        failure = _sphere_failure(sc)
        hm = failure is None
        if failure is not None:
            witnesses["homology_manifold"] = Witness(*failure)
        eul, semi = flags["eulerian"], flags["semi_eulerian"]
    else:
        eul = semi = hm = None
    pm, pm_w = pseudomanifold_by_definition(sc)
    if pm is False:
        witnesses["pseudomanifold"] = pm_w
    components = b[1] + 1 if d >= 0 else 0
    orientable = None
    if (hm or pm) and d >= 0:
        orientable = b[d + 1] + (d == 0) == components
    sphere = bool(hm) and b == (0,) * (d + 1) + (1,)
    cm, cm_w = reisner_cohen_macaulay(sc)
    bb, bb_w = vertex_link_buchsbaum(sc)
    if not cm:
        witnesses["cohen_macaulay"] = cm_w
    if not bb:
        witnesses["buchsbaum"] = bb_w
    if not sphere:
        witnesses["homology_sphere"] = Witness(
            None,
            f"reduced Betti numbers {list(b)} (indices -1..{d}) "
            f"are not those of a {d}-sphere, or the link criterion fails",
        )
    if orientable is False:
        witnesses["orientable"] = Witness(
            None,
            f"top Betti number {b[d + 1]} differs from the "
            f"{components} connected component(s)",
        )
    return ClassificationReport(
        pure=pure,
        eulerian=eul,
        semi_eulerian=semi,
        homology_sphere=sphere,
        homology_manifold=hm,
        orientable=orientable,
        pseudomanifold=pm,
        cohen_macaulay=cm,
        buchsbaum=bb,
        witnesses=witnesses,
    )
