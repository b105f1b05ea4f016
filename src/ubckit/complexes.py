"""Finite simplicial complexes stored by their facets.

A complex is built from a list of faces; non-maximal entries are absorbed.
Faces are sorted duplicate-free tuples of non-negative integer vertex ids,
and the empty face () is a face of every complex.  The empty complex {()}
is representable; the void complex (no faces at all) is rejected.

Instances are immutable.  The face lattice is enumerated on first use and
cached; the cached value is a pure function of the facets, so the
single-assignment write is idempotent and safe under concurrent first access.
The link table (see :meth:`link`) and the Betti numbers memoized by
:func:`ubckit.homology.betti_numbers` live exactly as long as the complex
does; nothing is cached across complexes.
"""

from __future__ import annotations

from itertools import combinations, groupby
from typing import Iterable

from .vectors import FVector

Face = tuple[int, ...]


def normalize_face(vertices: Iterable[int]) -> Face:
    """Canonical face: sorted tuple of distinct non-negative integer ids."""
    vs = tuple(vertices)
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"vertex ids must be integers, got {v!r}")
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
    face = tuple(sorted(vs))
    if len(set(face)) != len(face):
        raise ValueError(f"face {list(vs)} contains a duplicate vertex")
    return face


class SimplicialComplex:
    """A finite simplicial complex determined by its facet set.

    Two complexes are equal exactly when their facet sets are equal.
    """

    __slots__ = ("_facets", "_vertices", "_dim", "_pure", "_by_dim", "_face_set",
                 "_links", "_root", "_face", "_betti")

    def __init__(self, faces: Iterable[Iterable[int]]) -> None:
        normalized = sorted({normalize_face(f) for f in faces}, key=lambda f: (-len(f), f))
        if not normalized:
            raise ValueError(
                "no faces given: the void complex is not representable "
                "(use [[]] for the empty complex)"
            )
        # faces come longest first, and distinct faces of one size never
        # contain each other: test each only against longer kept faces
        kept: list[Face] = []
        longer: list[frozenset[int]] = []
        for _, same_size in groupby(normalized, key=len):
            block = []
            for face in same_size:
                fs = frozenset(face)
                if not any(fs <= other for other in longer):
                    kept.append(face)
                    block.append(fs)
            longer += block
        self._set_facets(tuple(sorted(kept)))

    @classmethod
    def _trusted(cls, facets: tuple[Face, ...]) -> SimplicialComplex:
        """Complex from facets already in canonical form: a non-empty,
        sorted, duplicate-free antichain of normalized faces.  Skips
        normalization and the absorption pass."""
        sc = cls.__new__(cls)
        sc._set_facets(facets)
        return sc

    def _set_facets(self, facets: tuple[Face, ...]) -> None:
        self._facets = facets
        self._vertices = tuple(sorted({v for f in facets for v in f}))
        sizes = {len(f) for f in facets}
        self._dim = max(sizes) - 1
        self._pure = len(sizes) == 1
        self._by_dim: dict[int, tuple[Face, ...]] | None = None
        self._face_set: frozenset[Face] | None = None
        self._links: dict[tuple, SimplicialComplex] | None = None
        self._root: SimplicialComplex | None = None  # on a link lk(F): the complex; _face is F
        self._betti = None

    @property
    def facets(self) -> tuple[Face, ...]:
        return self._facets

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def dim(self) -> int:
        """Largest face dimension; -1 for the empty complex."""
        return self._dim

    @property
    def is_pure(self) -> bool:
        """True when all facets share one dimension."""
        return self._pure

    def _lattice(self) -> dict[int, tuple[Face, ...]]:
        by_dim = self._by_dim
        if by_dim is None:
            closure: set[Face] = {()}
            for facet in self._facets:
                for k in range(1, len(facet) + 1):
                    closure.update(combinations(facet, k))
            grouped: dict[int, list[Face]] = {}
            for face in closure:
                grouped.setdefault(len(face) - 1, []).append(face)
            by_dim = {i: tuple(sorted(grouped[i])) for i in sorted(grouped)}
            self._by_dim = by_dim  # idempotent write
        return by_dim

    def faces(self, i: int) -> tuple[Face, ...]:
        """All faces of dimension i, sorted; empty outside -1..dim."""
        return self._lattice().get(i, ())

    def _all_faces(self) -> frozenset[Face]:
        face_set = self._face_set
        if face_set is None:
            face_set = frozenset(f for fs in self._lattice().values() for f in fs)
            self._face_set = face_set
        return face_set

    def has_face(self, face: Iterable[int]) -> bool:
        return normalize_face(face) in self._all_faces()

    def face_counts(self) -> tuple[int, ...]:
        """Raw counts (f_-1, f_0, ..., f_dim) with f_-1 = 1."""
        return tuple(len(self.faces(i)) for i in range(-1, self.dim + 1))

    def f_vector(self) -> FVector:
        return FVector(self.face_counts())

    def euler_characteristic(self) -> int:
        """Non-reduced Euler characteristic, the empty face excluded."""
        return sum((-1) ** i * len(self.faces(i)) for i in range(0, self.dim + 1))

    def chi_partial(self, i: int) -> int:
        """Euler characteristic of the i-skeleton: sum_{j=0..i} (-1)^j f_j."""
        if not 0 <= i <= self.dim:
            raise ValueError(f"skeleton index {i} out of range 0..{self.dim}")
        return sum((-1) ** j * len(self.faces(j)) for j in range(i + 1))

    def link(self, face: Iterable[int]) -> SimplicialComplex:
        """The link of a face: all faces disjoint from it whose union with
        it is again a face.  The link of () is the complex itself.

        Links come from the complex's link table.  For F = G + (v,), v the
        last vertex of F, lk(F) has the facets {H - v : v in H, H a facet of
        lk(G)}, taken from lk(G) in the table; a sorted antichain stays one,
        so nothing is normalized or absorbed.  Equal links of different faces
        are one object.  On lk(F), link(G) is the table's lk(F + G) = lk_{lk F}(G).
        """
        face = normalize_face(face)
        if face not in self._all_faces():
            raise ValueError(f"{list(face)} is not a face of this complex")
        return self._face_link(face)

    def _face_link(self, face: Face) -> SimplicialComplex:
        """:meth:`link` of a face already normalized and known to be a face
        of this complex; nothing is checked."""
        if self._root is not None:
            return self._root._face_link(tuple(sorted(self._face + face)))
        # keys: faces (tuples of ints) and, to intern links, facet tuples
        table = self._links
        if table is None:
            table = self._links = {(): self}
        lk = table.get(face)
        if lk is None:
            v = face[-1]
            parent = self._face_link(face[:-1])
            facets = tuple([tuple([u for u in h if u != v]) for h in parent._facets if v in h])
            lk = table.get(facets)
            if lk is None:
                lk = table[facets] = SimplicialComplex._trusted(facets)
                lk._root, lk._face = self, face
            table[face] = lk
        return lk

    def skeleton(self, i: int) -> SimplicialComplex:
        """Subcomplex of all faces of dimension <= i."""
        if not -1 <= i <= self.dim:
            raise ValueError(f"skeleton dimension {i} out of range -1..{self.dim}")
        if i == -1:
            return SimplicialComplex([()])
        generators = list(self.faces(i))
        generators.extend(f for f in self._facets if len(f) - 1 < i)
        return SimplicialComplex(generators)

    def relabeled(self, mapping: dict[int, int]) -> SimplicialComplex:
        """Copy with vertex ids replaced through an injective mapping."""
        missing = [v for v in self._vertices if v not in mapping]
        if missing:
            raise ValueError(f"mapping is missing vertices {missing}")
        first: dict[int, int] = {}
        for v in self._vertices:
            u = first.setdefault(mapping[v], v)
            if u != v:
                raise ValueError(
                    f"mapping is not injective: vertices {u} and {v} both map to {mapping[v]}"
                )
        return SimplicialComplex(
            tuple(mapping[v] for v in facet) for facet in self._facets
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, SimplicialComplex):
            return self._facets == other._facets
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._facets)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(dim={self.dim}, vertices={self.n_vertices}, "
            f"facets={len(self._facets)})"
        )


def build_complex(facet_list: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build the complex generated by the given faces.

    Non-maximal entries are absorbed.  Rejects an empty input list (the void
    complex) and any face with a duplicate vertex.
    """
    return SimplicialComplex(facet_list)
