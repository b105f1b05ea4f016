"""Finite simplicial complexes stored by their facets.

A complex is built from a list of faces; non-maximal entries are absorbed.
Faces are sorted duplicate-free tuples of non-negative integer vertex ids,
and the empty face () is a face of every complex.  The empty complex {()}
is representable; the void complex (no faces at all) is rejected.

Instances are immutable; their only caches are the face lattice, the link
table and the Betti memo slot ``_betti`` (filled by
:func:`ubckit._chains.betti_numbers`).  The lattice is filled one level at a
time, each on first use, or by a link walk that groups the level anyway
(:func:`ubckit.homology._link_records`); a level is a pure function of the
facets, so each single-assignment write is idempotent and safe under
concurrent first access.  Links are read off the facets into the complex's
own link table, keyed by facet tuples (see :meth:`SimplicialComplex.link`); a
link keeps its own links in a table of its own, so no complex refers back to
itself, and a complex, its links and their Betti numbers are freed by
reference counting alone.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, combinations, groupby
from typing import Iterable

from ._exact import FVector

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

    __slots__ = ("_facets", "_vertices", "_dim", "_pure", "_by_dim", "_links", "_betti")

    def __init__(self, faces: Iterable[Iterable[int]]) -> None:
        self._absorb({normalize_face(f) for f in faces})

    @classmethod
    def _from_faces(cls, faces: Iterable[Face]) -> SimplicialComplex:
        """Complex generated by faces already normalized: skips
        normalization, keeps dedup and absorption."""
        sc = cls.__new__(cls)
        sc._absorb(set(faces))
        return sc

    def _absorb(self, distinct: set[Face]) -> None:
        if not distinct:
            raise ValueError(
                "no faces given: the void complex is not representable "
                "(use [[]] for the empty complex)"
            )
        # faces come longest first, and distinct faces of one size never
        # contain each other: test each only against longer kept faces, so
        # the first block is kept with no test
        sizes = groupby(sorted(distinct, key=len, reverse=True), key=len)
        block: list[Face] = list(next(sizes)[1])
        kept, longer = block[:], []
        for _, same_size in sizes:
            longer += map(frozenset, block)
            block = [face for face in same_size
                     if not any(other.issuperset(face) for other in longer)]
            kept += block
        self._set_facets(tuple(sorted(kept)))

    @classmethod
    def _trusted(cls, canonical: Iterable[Face]) -> SimplicialComplex:
        """Complex from facets already in canonical form: a non-empty,
        sorted, duplicate-free antichain of normalized faces, in a list or a
        tuple.  Skips normalization and the absorption pass."""
        sc = cls.__new__(cls)
        sc._set_facets(tuple(canonical))
        return sc

    def _set_facets(self, facets: tuple[Face, ...]) -> None:
        self._facets = facets
        self._vertices = tuple(sorted({v for f in facets for v in f}))
        sizes = {len(f) for f in facets}
        self._dim = max(sizes) - 1
        self._pure = len(sizes) == 1
        self._by_dim: dict[int, tuple[Face, ...]] | None = None
        self._links: dict[tuple[Face, ...], SimplicialComplex] | None = None
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
        """The levels enumerated so far, {i: the i-faces, sorted}; the empty
        face, the vertices and the top facets are read off the complex."""
        by_dim = self._by_dim
        if by_dim is None:
            d = self._dim
            by_dim = {-1: ((),), 0: tuple((v,) for v in self._vertices)}
            by_dim[d] = tuple(f for f in self._facets if len(f) == d + 1)  # sorted already
            self._by_dim = by_dim  # idempotent write
        return by_dim

    def faces(self, i: int) -> tuple[Face, ...]:
        """All faces of dimension i, sorted; empty outside -1..dim.  A level
        is enumerated on first use, as one set of the (i+1)-subsets of the
        facets, unless a link walk stored it first (:meth:`_level`)."""
        level = self._lattice().get(i)
        if level is None and 0 < i < self._dim:
            subsets = chain.from_iterable(combinations(f, i + 1) for f in self._facets)
            level = self._level(i, set(subsets))
        return level or ()

    def _level(self, i: int, faces: Iterable[Face]) -> tuple[Face, ...]:
        """faces(i), sorted from faces, which must be exactly the i-faces,
        unless the level is enumerated already."""
        by_dim = self._lattice()
        level = by_dim.get(i)
        if level is None:
            level = by_dim[i] = tuple(sorted(faces))  # idempotent write
        return level

    def has_face(self, face: Iterable[int]) -> bool:
        """True for a face of this complex: a face on k vertices is a
        (k-1)-face, so it is binary-searched in that sorted lattice level."""
        face = normalize_face(face)
        level = self.faces(len(face) - 1)
        i = bisect_left(level, face)
        return i < len(level) and level[i] == face

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

        G is a face exactly when some facet F contains it, so one filter of
        the facets checks G and finds the F, with no face lattice built.
        lk(G) has the facets F - G and is their one entry in this complex's
        link table (:meth:`_interned`): equal links of its faces are one
        object.  On lk(F), link(G) equals lk(F + G) = lk_{lk F}(G), and is
        the entry in lk(F)'s own table.
        """
        return self._face_link(normalize_face(face))

    def _face_link(self, face: Face) -> SimplicialComplex:
        """:meth:`link` of a normalized face; the F - G keep the facets'
        order (:func:`ubckit.homology._link_facets`)."""
        facets = self._facets
        for v in face:
            facets = [f for f in facets if v in f]
        if not facets:
            raise ValueError(f"{list(face)} is not a face of this complex")
        vs = set(face)
        return self._interned([tuple([v for v in f if v not in vs]) for f in facets])

    def _interned(self, link_facets: Iterable[Face]) -> SimplicialComplex:
        """This complex's one link with these facets (a list or a tuple),
        which must be the canonical facets of a link of one of its faces.
        The table is the complex's own, made on the first link; a new link
        starts with none.  For its own facets a complex is its own link, and
        no table is made."""
        key = tuple(link_facets)
        if key == self._facets:
            return self
        table = self._links
        if table is None:
            table = self._links = {}
        lk = table.get(key)
        if lk is None:
            lk = table[key] = SimplicialComplex._trusted(key)
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
