"""Boundary operators, exact rank and reduced rational Betti numbers.

Betti numbers are computed over the rationals from augmented boundary
operators (the empty face sits at level -1), so every number reported here
is a reduced Betti number.  An operator is built from the faces as a list
of sparse columns {row: +-1}.  The ranks of boundary_0 and boundary_1 have
closed forms (1, and f_0 minus the number of components); higher ranks come
from sparse fraction-free column elimination, keeping the whole pipeline
exact.  They run top-down, and a column that a pivot of the operator above
clears is never built (:func:`betti_numbers` gives the span argument).
No link code lives here, so ``invariants`` and ``gen`` load no classifier;
:mod:`ubckit.homology` binds the public names too and is their home.
:func:`_strong_core` shrinks a complex, with its Betti numbers kept, by
removing dominated vertices, with no matrix.
"""

from __future__ import annotations

from math import gcd

from .complexes import Face, SimplicialComplex
from .vectors import _ExactVector


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
