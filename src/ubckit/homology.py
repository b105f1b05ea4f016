"""Link-based classifiers, and the public home of the homology names.

The chain-level half (boundary operators, exact rank, Betti numbers) lives
in :mod:`ubckit._chains`; its public names are bound here too.

The classifiers scan faces from the top dimension downwards, so a reported
witness is always the highest-dimensional offending face (lexicographically
first within its dimension).  They share the complex's link table and the
Betti numbers memoized on every link, and build a link only for a face
whose link fails.

Every link sphere test is one lazy top-down walk, :func:`_link_records`, which
the manifold, sphere, Cohen-Macaulay and UBC vertex-link checks and
:func:`classify` all read; it yields only the faces whose link is not a
sphere.  It reads every link of a level off one pass over the facets
(:func:`_link_facets`; the ridges' by a count), whose keys are that level
of the face lattice.  A face is tested only after all its cofaces passed,
and the cofaces of F are the faces of lk(F), so lk(F) is then a homology
manifold.  One test, :func:`_is_sphere`, decides whether such a link, or a
complex whose links all passed, is a sphere: up to dimension 2 by counting
on its facets alone, from dimension 3 on by the strong core of one vertex
deletion, with no matrix unless that core is more than a point.  No link
is built to be decided; only a failing link is, for its reason text.  The
Euler characteristic of every link of one level is a signed count of faces
(:func:`_link_chi`).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from typing import NamedTuple

from ._chains import (
    BettiVector,
    _count_classes,
    _strong_core,
    betti_numbers,
    boundary_matrix,
    matrix_rank,
)
from .complexes import Face, SimplicialComplex


class Witness(NamedTuple):
    """A face (None when the whole complex is at fault) plus the reason a
    check failed on it."""

    face: Face | None
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "face": list(self.face) if self.face is not None else None,
            "reason": self.reason,
        }


def is_eulerian(sc: SimplicialComplex):
    """Every face link, the empty face included, has the Euler characteristic
    of the sphere of its dimension.  Returns (flag, witness); the flag is
    None (not applicable) for impure complexes."""
    return _eulerian_condition(sc, include_empty=True)


def is_semi_eulerian(sc: SimplicialComplex):
    """Same as :func:`is_eulerian` but the empty face is exempt."""
    return _eulerian_condition(sc, include_empty=False)


def _eulerian_condition(sc: SimplicialComplex, include_empty: bool):
    """The first face, top-down, whose link has the wrong chi, with no link
    built (:func:`_link_chi`)."""
    if not sc.is_pure:
        return None, Witness(None, "complex is not pure")
    d = sc.dim
    for i in range(d - 1, -1, -1):  # a facet's link is the (-1)-sphere
        chi = _link_chi(sc, i)
        for face in sc.faces(i):
            wit = _euler_failure(face, chi[face], d - i - 1)
            if wit:
                return False, wit
    wit = include_empty and _euler_failure((), sc.euler_characteristic(), d)
    return (False, wit) if wit else (True, None)


def _link_chi(sc: SimplicialComplex, i: int) -> Counter:
    """{F: chi(lk F)} over the i-faces F of a pure complex, with no link
    built: the faces of lk(F) are the H - F over the faces H strictly
    containing F, so chi(lk F) = sum_H (-1)^(dim H - i - 1), and each face
    above level i adds its sign to each of its (i+1)-subsets.  For i = 0
    that is a flat count of the vertices over those levels."""
    d = sc.dim
    odd, even = (
        chain.from_iterable(sc.faces(j) for j in js)
        for js in (range(i + 1, d + 1, 2), range(i + 2, d + 1, 2))
    )
    if i == 0:
        chi = Counter(chain.from_iterable(odd))
        chi.subtract(Counter(chain.from_iterable(even)))
        return Counter({(v,): c for v, c in chi.items()})
    chi = Counter(chain.from_iterable(combinations(h, i + 1) for h in odd))
    chi.subtract(Counter(chain.from_iterable(combinations(h, i + 1) for h in even)))
    return chi


def _euler_failure(face: Face, chi: int, m: int) -> Witness | None:
    expected = 0 if m % 2 else 2
    if chi != expected:
        return Witness(face, f"chi(link) = {chi}, expected {expected} for dimension {m}")
    return None


def _is_sphere(facets, m: int) -> bool:
    """Whether the complex with these facets (pure, of dimension m, a list
    or tuple of canonical faces; a complex's own or one of its links') has
    the reduced homology of the m-sphere.

    Precondition: the link of each of its nonempty faces has the reduced
    homology of a sphere of complementary dimension.  Then up to m = 2 the
    facets decide, with no face lattice and no rank:

    - m = -1: the empty complex {()} is the (-1)-sphere.
    - m = 0: b_0 = f_0 - 1, so it is the 0-sphere exactly with 2 vertices.
    - m = 1: every vertex has two neighbours, so each component is a cycle;
      it is the 1-sphere when the walk round the first edge's cycle takes
      as many steps as there are vertices, that is, when it is connected.
    - m = 2: every edge lies in exactly two triangles and every vertex link
      is a connected cycle, so a connected such complex is a strongly
      connected pseudomanifold, whose 2-cycles over Q are multiples of one
      cycle: b_2 <= 1.  Connected means b_0 = 0, so chi = 1 - b_1 + b_2, and
      chi = 2 holds exactly when b_1 = 0 and b_2 = 1.  As 2 f_1 = 3 f_2,
      chi = f_0 - f_2 / 2; connectivity needs only the edges from the first
      vertex of each facet to its other vertices.

    From m = 3 on, M (the complex) is a sphere exactly when the deletion
    dl(v) of its vertex v in most facets is acyclic, and a strong core of
    dl(v) (:func:`_strong_core`) has dl(v)'s Betti numbers: a point means a
    sphere, and any other core is decided by its own Betti numbers.  The
    proof: each ridge lies in exactly two facets, its link being the
    0-sphere, so each F - v, F a facet at v, lies in a facet avoiding v, and
    the facets avoiding v generate dl(v), all the faces avoiding v.  M is
    the union of the star st(v), a cone, and dl(v), which meet in lk(v), a
    homology (m-1)-sphere.  Mayer-Vietoris in reduced homology over Q, with
    st(v) acyclic, gives the exact sequence
    ... -> H_i(lk v) -> H_i(dl v) -> H_i(M) -> H_{i-1}(lk v) -> H_{i-1}(dl v) -> ...
    If dl(v) is acyclic, H_i(M) = H_{i-1}(lk v) for every i, which is Q for
    i = m and 0 otherwise.  Conversely, let M be a sphere.  For i < m - 1,
    H_i(dl v) sits between H_i(lk v) = 0 and H_i(M) = 0.  M is connected and
    its vertex links are connected, so its facets are ridge-connected and a
    top cycle z != 0 is nonzero on every facet.  The connecting map sends z
    to the boundary of z restricted to st(v), an (m-1)-cycle of lk(v) that
    is nonzero on each F - v, hence a nonzero class, as lk(v) has no
    m-faces.  So H_m(M) -> H_{m-1}(lk v) is an isomorphism: H_m(dl v), its
    kernel, is 0, and the next map H_{m-1}(lk v) -> H_{m-1}(dl v) is zero;
    as H_{m-1}(M) = 0, that map is onto, so H_{m-1}(dl v) = 0 too.  No link
    complex is made.
    """
    if m <= 0:
        return m == -1 or len(facets) == 2
    if m == 1:
        adjacent: dict[int, list[int]] = {}
        for a, b in facets:
            adjacent.setdefault(a, []).append(b)
            adjacent.setdefault(b, []).append(a)
        start, v = facets[0]
        previous, steps = start, 1
        while v != start:
            a, b = adjacent[v]
            previous, v = v, b if a == previous else a
            steps += 1
        return steps == len(adjacent)
    if m == 2:
        vertices = {v for f in facets for v in f}
        if len(vertices) - len(facets) // 2 != 2:
            return False
        return _count_classes(vertices, [(f[0], v) for f in facets for v in f[1:]]) == 1
    counts = Counter(chain.from_iterable(facets))
    v = max(counts, key=counts.__getitem__)
    core = _strong_core([f for f in facets if v not in f])
    return len(core) == 1 or not any(betti_numbers(SimplicialComplex._trusted(core)).entries)


def _link_records(sc: SimplicialComplex, lowest: int = 0):
    """Yield (F, facets) lazily, top-down over the faces F of dimension
    dim - 1 .. lowest (lowest >= 0) whose link is not a sphere, sorted
    within each level, facets being lk(F).facets from one
    :func:`_link_facets` grouping per level.  The keys of that grouping are
    the level's faces, so the walk stores them in the face lattice
    (:meth:`SimplicialComplex._level`).  Faces of dimension dim are facets,
    whose link is the (-1)-sphere, and are left out.

    In a pure complex, F is tested by :func:`_is_sphere` when every face
    F + v one dimension up was a sphere, for then by induction all cofaces
    of F passed and lk F is a homology manifold; otherwise it is yielded
    untested.  So the first face yielded was tested.  Each level is one pass
    over its faces in order, which yields only the failures; a sphere face
    costs its test and no generator step.  The top level, the ridges, is a
    count: a ridge's link is the 0-sphere exactly when two facets hold it,
    so the ridges are counted in one pass over the facets, and grouped
    only when one fails.  In an impure complex every face is yielded.
    """
    pure, d = sc.is_pure, sc.dim
    failed: set[Face] = set()  # faces with a coface one dimension up not a sphere
    for i in range(d - 1, lowest - 1, -1):
        m = d - i - 1
        if pure and m == 0:
            counts = Counter(chain.from_iterable(combinations(f, d) for f in sc.facets))
            faces = sc._level(i, counts)
            bad = [face for face in faces if counts[face] != 2]
            groups = _link_facets(sc, i) if bad else {}
        else:
            groups = _link_facets(sc, i)
            faces = sc._level(i, groups)
            bad = faces if not pure else (
                face for face in faces if face in failed or not _is_sphere(groups[face], m)
            )
        for face in bad:
            if pure:
                failed.update(face[:j] + face[j + 1 :] for j in range(len(face)))
            yield face, groups[face]


def _link_facets(sc: SimplicialComplex, i: int) -> dict[Face, list[Face]]:
    """{G: lk(G).facets} over the i-faces G of any complex, in one pass over
    its facets: a facet F with more than i vertices gives each of its
    (i + 1)-subsets G the link facet F - G (() when F = G).  combinations
    lists them as the complements of the (|F| - i - 1)-subsets in reverse.
    The F - G are an antichain as the F are, and in their order: of two
    sorted tuples neither containing the other, the one holding the least
    element of their symmetric difference F ^ F' = (F - G) ^ (F' - G) is first."""
    groups: dict[Face, list[Face]] = {}
    for facet in sc.facets:
        if len(facet) > i:
            rests = list(combinations(facet, len(facet) - i - 1))
            for face, rest in zip(combinations(facet, i + 1), reversed(rests)):
                groups.setdefault(face, []).append(rest)
    return groups


def _not_a_sphere(link: SimplicialComplex) -> str:
    b = betti_numbers(link)
    return (
        f"link has reduced Betti numbers {list(b.entries)} "
        f"(indices -1..{link.dim}), not those of a {link.dim}-sphere"
    )


def connected_components(sc: SimplicialComplex) -> int:
    """Components of the underlying vertex graph (0 for the empty complex)."""
    return _count_classes(sc.vertices, sc.faces(1))


def is_homology_manifold(sc: SimplicialComplex):
    """Closed-case link criterion over the rationals: the link of every
    nonempty face has the reduced homology of a sphere of complementary
    dimension.

    Returns (flag, orientable, witness).  Orientability is reported only
    when the flag holds and means b_dim equals the number of connected
    components.
    """
    if not sc.is_pure:
        return None, None, Witness(None, "complex is not pure")
    for face, facets in _link_records(sc):
        return False, None, Witness(face, _not_a_sphere(sc._interned(facets)))
    return True, _is_orientable(sc) if sc.dim >= 0 else None, None


def _is_orientable(sc: SimplicialComplex) -> bool:
    # unreduced top Betti number = components; reduced b_0 is one less
    return betti_numbers(sc)[sc.dim] + (sc.dim == 0) == connected_components(sc)


def is_homology_sphere(sc: SimplicialComplex) -> bool:
    """Homology manifold whose global reduced homology is a sphere's.  Once
    the manifold walk passes, the complex meets the precondition of
    :func:`_is_sphere`: up to dimension 2 no Betti number is computed."""
    if not sc.is_pure or next(_link_records(sc), None):
        return False
    return _is_sphere(sc.facets, sc.dim)


def is_pseudomanifold(sc: SimplicialComplex):
    """Pure, every ridge in exactly two facets, and the facet graph
    (adjacency through shared ridges) connected within every connected
    component of the complex.

    Returns (flag, orientable, witness); orientable is None unless the flag
    holds.
    """
    if not sc.is_pure:
        return None, None, Witness(None, "complex is not pure")
    wit = _pseudomanifold_failure(sc)
    if wit:
        return False, None, wit
    return True, _is_orientable(sc) if sc.dim >= 0 else None, None


def _pseudomanifold_failure(sc: SimplicialComplex) -> Witness | None:
    """Why a pure complex is not a pseudomanifold, or None when it is."""
    d = sc.dim
    if d < 0:
        return None
    if d == 0:
        if sc.n_vertices != 2:
            n = sc.n_vertices
            return Witness(None, f"a 0-pseudomanifold has exactly 2 vertices, found {n}")
        return None

    ridge_count: dict[Face, list[int]] = {}
    for idx, facet in enumerate(sc.facets):
        for m in range(len(facet)):
            ridge = facet[:m] + facet[m + 1 :]
            ridge_count.setdefault(ridge, []).append(idx)
    for ridge in sorted(ridge_count):
        owners = ridge_count[ridge]
        if len(owners) != 2:
            return Witness(ridge, f"ridge lies in {len(owners)} facets, expected exactly 2")

    facet_groups = _count_classes(range(len(sc.facets)), ridge_count.values())
    if facet_groups != connected_components(sc):
        return Witness(
            None,
            "facets are not ridge-connected within each component "
            f"({facet_groups} facet groups vs {connected_components(sc)} components)",
        )
    return None


def _middle_betti_bound(b: BettiVector, k: int) -> int:
    """2 b_{k-1} + 2 sum_{i=0..k-3} b_i, the middle Betti bound on b_k."""
    return 2 * b[k - 1] + 2 * sum(b[i] for i in range(0, k - 2))


def satisfies_betti_bound(sc: SimplicialComplex, k: int) -> bool:
    """For a 2k-dimensional complex, check
    b_k <= 2 b_{k-1} + 2 sum_{i=0..k-3} b_i  (reduced Betti numbers).

    k = 0 is rejected: the index ranges degenerate and no convention is
    adopted for them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if sc.dim != 2 * k:
        raise ValueError(f"complex has dimension {sc.dim}, expected {2 * k}")
    b = betti_numbers(sc)
    return b[k] <= _middle_betti_bound(b, k)


def _reisner_failure(face: Face, link: SimplicialComplex) -> Witness | None:
    if set(link.facets[0]).intersection(*link.facets[1:]):
        return None  # facets sharing a vertex: a cone, which is acyclic
    b = betti_numbers(link)
    for i in range(-1, link.dim):
        if b[i] != 0:
            return Witness(
                face,
                f"link has reduced Betti number {b[i]} in dimension {i} "
                f"below its dimension {link.dim}",
            )
    return None


def is_cohen_macaulay(sc: SimplicialComplex):
    """Reisner's criterion over the rationals: for every face, the empty
    face included, the link has vanishing reduced homology below its
    dimension.  Returns (flag, witness).  A sphere link in
    :func:`_link_records` passes unbuilt, and so does the empty face of a
    homology manifold that is a sphere; only the other links are built.
    """
    manifold = True
    for face, facets in _link_records(sc):
        manifold = False
        wit = _reisner_failure(face, sc._interned(facets))
        if wit:
            return False, wit
    if manifold and _is_sphere(sc.facets, sc.dim):
        return True, None
    wit = _reisner_failure((), sc)
    return (False, wit) if wit else (True, None)


def is_buchsbaum(sc: SimplicialComplex):
    """Pure with every vertex link Cohen-Macaulay.  Returns (flag, witness).
    As lk_{lk v}(G) = lk(G + v), this is Reisner's condition on the nonempty
    faces (Schenzel 1981); the first failing vertex link stops the check."""
    if not sc.is_pure:
        return False, Witness(None, "complex is not pure")
    for v in sc.vertices:
        flag, inner = is_cohen_macaulay(sc._face_link((v,)))
        if not flag:
            return False, Witness(
                (v,), f"link of vertex {v} is not Cohen-Macaulay: {inner.reason}"
            )
    return True, None


_TRISTATE = {True: True, False: False, None: "not-applicable"}

_FLAG_ORDER = (
    "eulerian",
    "semi_eulerian",
    "homology_sphere",
    "homology_manifold",
    "orientable",
    "pseudomanifold",
    "cohen_macaulay",
    "buchsbaum",
)


class ClassificationReport(NamedTuple):
    """Tri-state classifier flags for one complex.

    Every False flag carries a witness in ``witnesses``; None means the
    classifier does not apply (impure input, or orientability without an
    underlying pseudomanifold).
    """

    pure: bool
    eulerian: bool | None
    semi_eulerian: bool | None
    homology_sphere: bool
    homology_manifold: bool | None
    orientable: bool | None
    pseudomanifold: bool | None
    cohen_macaulay: bool
    buchsbaum: bool
    witnesses: dict[str, Witness]

    @property
    def first_failure(self) -> Witness | None:
        for flag in _FLAG_ORDER:
            if getattr(self, flag) is False:
                return self.witnesses[flag]
        return None

    def to_json_dict(self) -> dict:
        out = {"pure": self.pure}
        for flag in _FLAG_ORDER:
            out[flag] = _TRISTATE[getattr(self, flag)]
        out["witnesses"] = {
            flag: self.witnesses[flag].to_json_dict()
            for flag in _FLAG_ORDER
            if flag in self.witnesses
        }
        return out


def classify(sc: SimplicialComplex) -> ClassificationReport:
    """Run every classifier and assemble the report.

    One walk of :func:`_link_records` finds the first face failing each of
    the manifold, semi-Eulerian and Reisner conditions, and stops once all
    three are found.  A sphere link has the sphere's chi and passes Reisner,
    so chi and Betti numbers are computed only off the spheres.  Buchsbaum
    is Reisner on the nonempty faces (:func:`is_buchsbaum`): it holds when
    none failed, and otherwise is_buchsbaum runs for its witness.  A
    homology sphere is orientable with no Betti vector, and the
    pseudomanifold check computes no orientation.
    """
    pure = sc.is_pure
    hm_w = semi_w = eul_w = cm_w = None
    for face, facets in _link_records(sc):
        link = sc._interned(facets)
        if pure:
            hm_w = hm_w or Witness(face, _not_a_sphere(link))
            semi_w = semi_w or _euler_failure(face, link.euler_characteristic(), link.dim)
        cm_w = cm_w or _reisner_failure(face, link)
        if cm_w and (not pure or hm_w and semi_w):
            break
    hm = semi = eul = None
    if pure:
        eul_w = semi_w or _euler_failure((), sc.euler_characteristic(), sc.dim)
        hm, semi, eul = hm_w is None, semi_w is None, eul_w is None
    sphere = bool(hm) and _is_sphere(sc.facets, sc.dim)
    bb, bb_w = is_buchsbaum(sc) if cm_w or not pure else (True, None)
    if not (cm_w or sphere):
        cm_w = _reisner_failure((), sc)
    pm_w = _pseudomanifold_failure(sc) if pure else None
    pm = (pm_w is None) if pure else None
    # a homology sphere is connected, or two points, with b_dim = 1
    orientable = (sphere or _is_orientable(sc)) if (hm or pm) and sc.dim >= 0 else None

    flags = ("eulerian", "semi_eulerian", "homology_manifold", "pseudomanifold",
             "cohen_macaulay", "buchsbaum")
    wits = (eul_w, semi_w, hm_w, pm_w, cm_w, bb_w)
    witnesses = {flag: wit for flag, wit in zip(flags, wits) if wit}
    if sphere is False:
        b = betti_numbers(sc)
        witnesses["homology_sphere"] = Witness(
            None,
            f"reduced Betti numbers {list(b.entries)} (indices -1..{sc.dim}) "
            f"are not those of a {sc.dim}-sphere, or the link criterion fails",
        )
    if orientable is False:
        witnesses["orientable"] = Witness(
            None,
            f"top Betti number {betti_numbers(sc)[sc.dim]} differs from the "
            f"{connected_components(sc)} connected component(s)",
        )

    return ClassificationReport(
        pure=sc.is_pure,
        eulerian=eul,
        semi_eulerian=semi,
        homology_sphere=sphere,
        homology_manifold=hm,
        orientable=orientable,
        pseudomanifold=pm,
        cohen_macaulay=cm_w is None,
        buchsbaum=bb,
        witnesses=witnesses,
    )
