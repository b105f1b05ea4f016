"""Finite simplicial complexes stored by their facets, with their exact
vectors and reduced rational Betti numbers.

A complex is built from a list of faces; non-maximal entries are absorbed.
Faces are sorted duplicate-free tuples of non-negative integer vertex ids,
and the empty face () is a face of every complex.  The empty complex {()}
is representable; the void complex (no faces at all) is rejected.

Instances are immutable; their only caches are the face lattice, the link
table and the Betti memo slot ``_betti`` (filled by :func:`betti_numbers`).
The lattice is filled one level at a time, each on first use, or by a link
walk that groups the level anyway (:func:`ubckit.homology._link_records`); a
level is a pure function of the facets, so each single-assignment write is
idempotent and safe under concurrent first access.  Links are read off the
facets into the complex's own link table, keyed by facet tuples (see
:meth:`SimplicialComplex.link`); a link keeps its own links in a table of
its own, so no complex refers back to itself, and a complex, its links and
their Betti numbers are freed by reference counting alone.

The exact vector types and :func:`binomial` live here, so that a complex and
its Betti vector need no transform code: ``classify`` and ``gen`` load no
:mod:`ubckit.vectors`, which binds FVector, HVector, ShortHVector and
:func:`binomial` beside the transforms, their public home.

Betti numbers are computed over the rationals from augmented boundary
operators (the empty face sits at level -1), so every number reported here
is a reduced Betti number.  An operator is built from the faces as a list
of sparse columns {row: +-1}.  The ranks of boundary_0 and boundary_1 have
closed forms (1, and f_0 minus the number of components); higher ranks come
from sparse fraction-free column elimination, keeping the whole pipeline
exact.  They run top-down, and a column that a pivot of the operator above
clears is never built (:func:`betti_numbers` gives the span argument).
No link code lives here, so ``invariants`` and ``gen`` load no classifier;
:mod:`ubckit.homology` binds the public chain-level names too and is their
home.  :func:`_strong_core` shrinks a complex, with its Betti numbers kept,
by removing dominated vertices, with no matrix.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, combinations, groupby
from math import comb, gcd
from typing import Iterable

Face = tuple[int, ...]


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), defined as 0 when b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


class _ExactVector:
    """Immutable integer vector addressed by its mathematical index.

    Subclasses fix ``_first_index`` and define ``_check(entries)``, which
    rejects what their entries cannot be; ``vec[i]`` returns the entry with
    mathematical index i (so an FVector supports ``f[-1]``), which
    deliberately differs from Python's negative indexing.  Entries are
    integers; an integral Fraction is stored as an int, and a float, bool,
    string or non-integral rational is rejected rather than truncated.  A
    vector compares equal to, and hashes like, the tuple of its entries (it
    also equals the list of them), and never equals a vector of another type.
    """

    __slots__ = ("entries",)
    _first_index = 0

    def __init__(self, entries) -> None:
        entries = tuple(entries)
        for e in entries:
            if isinstance(e, bool) or getattr(e, "denominator", None) != 1:
                raise ValueError(f"{type(self).__name__} entries must be integers, got {e!r}")
        entries = tuple(map(int, entries))
        self._check(entries)
        self.entries = entries

    def __getitem__(self, i: int) -> int:
        pos = i - self._first_index
        if not 0 <= pos < len(self.entries):
            raise IndexError(f"index {i} out of range for {self!r}")
        return self.entries[pos]

    def items(self):
        """Pairs (mathematical index, entry)."""
        first = self._first_index
        return tuple((first + pos, e) for pos, e in enumerate(self.entries))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.entries == other.entries
        if isinstance(other, (tuple, list)):
            return self.entries == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.entries}"


class FVector(_ExactVector):
    """Face counts (f_-1, f_0, ..., f_{d-1}); f_-1 counts the empty face."""

    __slots__ = ()
    _first_index = -1

    def _check(self, entries):
        if not entries:
            raise ValueError("an f-vector has at least the f_-1 entry")
        if entries[0] != 1:
            raise ValueError(f"f_-1 must be 1, got {entries[0]}")
        if any(e < 0 for e in entries):
            raise ValueError(f"face counts must be non-negative: {entries}")

    @property
    def d(self) -> int:
        """Length parameter d; the underlying complex is (d-1)-dimensional."""
        return len(self.entries) - 1


class HVector(_ExactVector):
    """Binomial transform (h_0, ..., h_d) of an f-vector; h_0 = 1."""

    __slots__ = ()
    _first_index = 0

    def _check(self, entries):
        if not entries:
            raise ValueError("an h-vector has at least the h_0 entry")
        if entries[0] != 1:
            raise ValueError(f"h_0 must be 1, got {entries[0]}")

    @property
    def d(self) -> int:
        return len(self.entries) - 1


class ShortHVector(_ExactVector):
    """Vertexwise link h-vector sum (sh_0, ..., sh_{d-1}); sh_0 = f_0."""

    __slots__ = ()
    _first_index = 0

    def _check(self, entries):
        if entries and entries[0] < 0:
            raise ValueError(f"sh_0 counts vertices and must be >= 0: {entries}")

    @property
    def d(self) -> int:
        return len(self.entries)


class BettiVector(_ExactVector):
    """Reduced rational Betti numbers (b_-1, b_0, ..., b_dim)."""

    __slots__ = ()
    _first_index = -1

    def _check(self, entries):
        if not entries:
            raise ValueError("a Betti vector has at least the b_-1 entry")
        if any(e < 0 for e in entries):
            raise ValueError(f"Betti numbers must be non-negative: {entries}")

    @property
    def dim(self) -> int:
        return len(self.entries) - 2


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


def boundary_matrix(sc: SimplicialComplex, i: int) -> list[dict[int, int]]:
    """Augmented boundary operator sending i-faces to (i-1)-faces, as a
    list of sparse columns.

    Column c is {row: +-1} for the c-th i-face: rows index the (i-1)-faces,
    both in sorted order, and dropping the m-th vertex (in sorted order)
    gives the entry (-1)^m.  For i = 0 the single row is the empty face and
    every column is {0: 1}.  Only nonzero entries are stored.
    """
    return _boundary_columns(sc, i, ())


def _boundary_columns(sc: SimplicialComplex, i: int, skip) -> list[dict[int, int]]:
    """The columns of :func:`boundary_matrix` whose index is not in skip."""
    row_index = {f: r for r, f in enumerate(sc.faces(i - 1))}
    return [
        {row_index[face[:m] + face[m + 1 :]]: -1 if m % 2 else 1 for m in range(len(face))}
        for c, face in enumerate(sc.faces(i))
        if c not in skip
    ]


def matrix_rank(columns: list[dict[int, int]]) -> int:
    """Exact rank over Q of an integer matrix given as sparse columns
    {row: entry}, by fraction-free column elimination.  Zero entries may
    be present and are ignored; the input is not modified.

    Each column c is copied, then reduced against the pivot column p with
    the same largest row (low): with a = c[low], b = p[low], g = gcd(a, b),
    c becomes (b/g) c - (a/g) p, then is divided by its entries' gcd.  These
    are invertible rational column operations, and pivots with distinct lows
    are independent, so the rank is the number of pivots.
    """
    return len(_pivot_lows({r: v for r, v in c.items() if v} for c in columns))


def _pivot_lows(columns):
    """The lows (largest rows) of the nonzero reduced columns in the
    elimination of :func:`matrix_rank`, one per pivot.  The columns must
    hold no zero entry, and are consumed: they may be changed in place."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            p = pivots.get(low)
            if p is None:
                pivots[low] = col
                break
            a, b = col[low], p[low]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                col = {r: b * v for r, v in col.items()}
            for r, v in p.items():
                w = col.get(r, 0) - a * v
                if w:
                    col[r] = w
                else:
                    del col[r]
            g = gcd(*col.values())
            if g > 1:
                col = {r: v // g for r, v in col.items()}
    return pivots.keys()


def betti_numbers(sc: SimplicialComplex) -> BettiVector:
    """Reduced rational Betti numbers b_-1 .. b_dim.

    b_i = dim ker(boundary_i) - rank(boundary_{i+1}); b_-1 = 1 exactly for
    the empty complex.  The two lowest ranks have closed forms: rank
    boundary_0 = 1 (every vertex maps to the empty face) and rank
    boundary_1 = f_0 - #components (the vertex graph's incidence matrix).
    The others are eliminated top-down, boundary_dim first, with clearing
    (the twist of Chen-Kerber): each pivot low j of the reduced
    boundary_{i+1} names an i-face whose column of boundary_i is never
    built, and rank boundary_i is the number of pivots among the columns
    left.  This is exact over Q.  The reduced column with low j is a
    boundary, hence a cycle z with z_j != 0 and z_r = 0 for r > j, so
    boundary_i e_j = -(1/z_j) sum_{r<j} z_r boundary_i e_r lies in the span
    of the columns with smaller index.  By induction on j every cleared
    column lies in the span of the columns left, so dropping them leaves
    the rank unchanged.

    Memoized in a slot of the complex, not in a process-global cache.  The
    reduced Euler-Poincare identity sum (-1)^i b_i = chi - 1 is checked on
    every computation; it checks the face counts only, as a rank off by d
    shifts b_{i-1} and b_i alike.
    """
    if sc._betti is not None:
        return sc._betti
    d = sc.dim
    ranks = [0] * (d + 2)  # rank boundary_i for i = 0 .. d + 1
    cleared = ()
    for i in range(d, 1, -1):
        cleared = _pivot_lows(_boundary_columns(sc, i, cleared))
        ranks[i] = len(cleared)
    if d >= 1:
        ranks[1] = sc.n_vertices - _count_classes(sc.vertices, sc.faces(1))
    if d >= 0:
        ranks[0] = 1
    counts = sc.face_counts()
    entries = [1 - ranks[0]]
    for i in range(0, d + 1):
        entries.append(counts[i + 1] - ranks[i] - ranks[i + 1])
    bv = BettiVector(entries)
    chi = sc.euler_characteristic()
    if sum((-1) ** i * b for i, b in bv.items()) != chi - 1:
        raise ArithmeticError(f"Euler-Poincare identity failed on {sc!r}")
    sc._betti = bv
    return bv


def _count_classes(items, pairs) -> int:
    """Classes of the equivalence on items generated by pairs: the
    components of the graph they form, each found by one walk."""
    adjacent = {x: [] for x in items}
    for a, b in pairs:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = set()
    classes = 0
    for x in adjacent:
        if x not in seen:
            classes += 1
            seen.add(x)
            todo = [x]
            while todo:
                for y in adjacent[todo.pop()]:
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
    return classes


def _strong_core(facets) -> list[Face]:
    """The facets, sorted, of a strong core of the complex with these facets
    (canonical faces forming an antichain, in any order): dominated vertices
    are removed until none is left (Barmak-Minian, "Strong homotopy types,
    nerves and collapses", DCG 47, 2012).

    A vertex v is dominated by w != v when every facet at v contains w, that
    is, when lk(v) is a cone with apex w.  Then the deletion of v, all the
    faces avoiding v, is a strong deformation retract of the complex, so the
    reduced Betti numbers do not change.  Its facets are the facets avoiding
    v and each F - v, F a facet at v, that no facet avoiding v contains: an
    F - v lies in no other F' - v, as F does not lie in F'.  Only the
    vertices of a facet that shrank or went can become dominated, so a
    worklist checks again only those.  A cone, one facet included, has a
    vertex as its core: its first apex, or the first vertex of the one facet
    left.  Vertices are bits of an int, facets masks.
    """
    apexes = set(facets[0]).intersection(*facets[1:])
    if apexes:
        return [(min(apexes),)]
    vertices = sorted({v for f in facets for v in f})
    index = {v: k for k, v in enumerate(vertices)}
    alive: dict[int, int] = {}  # facet id -> mask of its vertex indices
    star: list[set[int]] = [set() for _ in vertices]  # vertex index -> ids of its facets
    for j, facet in enumerate(facets):
        alive[j] = sum(1 << index[v] for v in facet)
        for v in facet:
            star[index[v]].add(j)
    todo = set(range(len(vertices)))
    while todo and len(alive) > 1:
        k = todo.pop()
        ids, mine = star[k], 1 << k
        common = -1
        for j in ids:
            common &= alive[j]
            if common == mine:
                break
        if common == mine or not ids:
            continue  # not dominated, or removed already
        star[k] = set()
        for j in ids:
            rest = alive[j] ^ mine
            vs = _bits(rest)
            todo.update(vs)
            # a facet holding rest is in the star of each of its vertices
            others = min((star[u] for u in vs), key=len)
            if any(rest & ~alive[i] == 0 for i in others if i != j):
                del alive[j]
                for u in vs:
                    star[u].discard(j)
            else:
                alive[j] = rest
    core = sorted(tuple(vertices[k] for k in _bits(mask)) for mask in alive.values())
    return core if len(core) > 1 else [core[0][:1]]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
