"""Named generators for the test-complex corpus plus complex combinators.

The embedded triangulations (the 7-vertex torus and the 6-vertex projective
plane) are validated by the homology classifiers on first use rather than
trusted blindly.

Generator specs for the command line are parsed by :func:`parse_spec`; both
the flat form ``cyclic 4 9`` and the nested form
``wedge(boundary-simplex(4), boundary-simplex(4))`` are accepted.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations, product

from ._chains import betti_numbers
from .complexes import SimplicialComplex
from .cyclic import _check_spec, cyclic_h, gale_facets
from .facetfile import MAX_FACES


def boundary_simplex(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex: all d-subsets of d+1 vertices."""
    if d < 1:
        raise ValueError(f"simplex dimension must be >= 1, got {d}")
    return SimplicialComplex(combinations(range(d + 1), d))


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope: 2d vertices in
    antipodal pairs (2i, 2i+1), one vertex of each pair per facet."""
    if d < 1:
        raise ValueError(f"cross-polytope dimension must be >= 1, got {d}")
    return SimplicialComplex(product(*[(2 * i, 2 * i + 1) for i in range(d)]))


_TORUS_7_FACETS = (
    (0, 1, 3), (0, 1, 5), (0, 2, 3), (0, 2, 6), (0, 4, 5), (0, 4, 6),
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 5, 6), (2, 3, 5), (2, 4, 5),
    (3, 4, 6), (3, 5, 6),
)

_RP2_6_FACETS = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)


@lru_cache(maxsize=1)
def torus_7() -> SimplicialComplex:
    """Minimal 7-vertex torus triangulation (14 facets, all 21 edges)."""
    from .homology import is_homology_manifold  # loaded only to validate embedded data

    sc = SimplicialComplex(_TORUS_7_FACETS)
    flag, orientable, _ = is_homology_manifold(sc)
    b = betti_numbers(sc)
    if not (flag and orientable and b[1] == 2 and b[2] == 1 and sc.euler_characteristic() == 0):
        raise AssertionError("embedded 7-vertex torus data failed validation")
    return sc


@lru_cache(maxsize=1)
def projective_plane_6() -> SimplicialComplex:
    """Minimal 6-vertex projective plane (10 facets); over the rationals all
    reduced Betti numbers vanish and the complex is Cohen-Macaulay."""
    from .homology import is_cohen_macaulay, is_homology_manifold

    sc = SimplicialComplex(_RP2_6_FACETS)
    b = betti_numbers(sc)
    cm, _ = is_cohen_macaulay(sc)
    flag, orientable, _ = is_homology_manifold(sc)
    ok = (
        sc.euler_characteristic() == 1
        and all(entry == 0 for entry in b.entries)
        and cm
        and flag
        and orientable is False
    )
    if not ok:
        raise AssertionError("embedded 6-vertex projective plane data failed validation")
    return sc


def _shift(sc: SimplicialComplex, offset: int) -> SimplicialComplex:
    return sc.relabeled({v: v + offset for v in sc.vertices})


def _fresh_ids(sc: SimplicialComplex, count: int) -> list[int]:
    start = max(sc.vertices) + 1 if sc.vertices else 0
    return list(range(start, start + count))


def cone(sc: SimplicialComplex, apex: int | None = None) -> SimplicialComplex:
    """Join with one new apex vertex."""
    if apex is None:
        apex = _fresh_ids(sc, 1)[0]
    elif apex in sc.vertices:
        raise ValueError(f"apex {apex} already occurs in the complex")
    return SimplicialComplex(facet + (apex,) for facet in sc.facets)

def suspension(sc: SimplicialComplex) -> SimplicialComplex:
    """Join with two new apex vertices."""
    north, south = _fresh_ids(sc, 2)
    facets = [facet + (north,) for facet in sc.facets]
    facets += [facet + (south,) for facet in sc.facets]
    return SimplicialComplex(facets)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join on disjoint vertex sets; b is relabeled past a."""
    offset = max(a.vertices) + 1 if a.vertices else 0
    b2 = _shift(b, offset)
    return SimplicialComplex(fa + fb for fa in a.facets for fb in b2.facets)


def disjoint_union(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    offset = max(a.vertices) + 1 if a.vertices else 0
    b2 = _shift(b, offset)
    return SimplicialComplex(a.facets + b2.facets)


def wedge(
    a: SimplicialComplex,
    b: SimplicialComplex,
    vertex_a: int | None = None,
    vertex_b: int | None = None,
) -> SimplicialComplex:
    """One-point union identifying vertex_a of a with vertex_b of b
    (defaults: the smallest vertex of each)."""
    if not a.vertices or not b.vertices:
        raise ValueError("wedge needs complexes with at least one vertex each")
    if vertex_a is None:
        vertex_a = a.vertices[0]
    if vertex_b is None:
        vertex_b = b.vertices[0]
    if vertex_a not in a.vertices:
        raise ValueError(f"vertex {vertex_a} not present in the first complex")
    if vertex_b not in b.vertices:
        raise ValueError(f"vertex {vertex_b} not present in the second complex")
    offset = max(a.vertices) + 1
    mapping = {v: v + offset for v in b.vertices}
    mapping[vertex_b] = vertex_a
    b2 = b.relabeled(mapping)
    return SimplicialComplex(a.facets + b2.facets)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_-]*)|(?P<sym>[(),]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot parse generator spec near {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("int", "name", "sym"):
            value = m.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


MAX_SPEC_DEPTH = 100


def parse_spec(text: str):
    """Parse a generator spec into a nested (name, args...) tuple.

    Accepts ``name a b`` with integer arguments at the top level and the
    nested call syntax ``name(arg, ...)`` everywhere.  Calls nested more
    than MAX_SPEC_DEPTH deep are rejected with a ValueError, which keeps
    parsing and building within the interpreter's recursion limit.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty generator spec")

    def parse_call(i: int, depth: int):
        if i >= len(tokens):
            raise ValueError("unexpected end of generator spec")
        kind, value = tokens[i]
        if kind == "int":
            return int(value), i + 1
        if kind != "name":
            raise ValueError(f"expected a generator name, got {value!r}")
        name = value
        i += 1
        args = []
        if i < len(tokens) and tokens[i] == ("sym", "("):
            if depth == MAX_SPEC_DEPTH:
                raise ValueError(
                    f"generator spec is nested more than {MAX_SPEC_DEPTH} levels deep"
                )
            i += 1
            while True:
                arg, i = parse_call(i, depth + 1)
                args.append(arg)
                if i >= len(tokens):
                    raise ValueError("unbalanced parentheses in generator spec")
                if tokens[i] == ("sym", ","):
                    i += 1
                    continue
                if tokens[i] == ("sym", ")"):
                    i += 1
                    break
                raise ValueError(f"unexpected token {tokens[i][1]!r} in generator spec")
        return (name, *args), i

    node, i = parse_call(0, 0)
    if isinstance(node, int):
        raise ValueError("generator spec cannot be a bare integer")
    # flat form: remaining top-level tokens must all be integers
    name_and_args = list(node)
    while i < len(tokens):
        kind, value = tokens[i]
        if kind != "int":
            raise ValueError(f"unexpected trailing token {value!r} in generator spec")
        name_and_args.append(int(value))
        i += 1
    return tuple(name_and_args)


def spec_name(node) -> str:
    """Canonical name of a parsed spec, e.g. cyclic-4-9 or
    wedge(boundary-simplex-4,boundary-simplex-4)."""
    if isinstance(node, int):
        return str(node)
    name, *args = node
    if not args:
        return name
    if all(isinstance(a, int) for a in args):
        return "-".join([name, *map(str, args)])
    return f"{name}({','.join(spec_name(a) for a in args)})"


_OVER = MAX_FACES + 1  # stands for every span above the limit


def _cyclic_span(d: int, n: int) -> int:
    _check_spec(d, n)
    return sum(cyclic_h(d, n, i) for i in range(d + 1)) << d if d <= 20 else _OVER


# name: (function, argument kinds, span).  "int" is an integer parameter and
# "complex" a complex-valued spec; "vertex" marks wedge's optional pair of
# vertices to identify, given both or neither.  The span is the sum of
# 2^|F| over the facets the generator returns, the bound a facet file must
# meet: from the integer parameters for a leaf, from the spans of the
# complex-valued arguments otherwise (an upper bound for wedge, which may
# absorb an isolated vertex).
_GENERATORS = {
    "boundary-simplex": (boundary_simplex, ("int",), lambda d: (d + 1) << d if d <= 20 else _OVER),
    "cross-polytope": (cross_polytope, ("int",), lambda d: 4**d if d <= 10 else _OVER),
    "cyclic": (gale_facets, ("int", "int"), _cyclic_span),
    "torus-7": (torus_7, (), lambda: len(_TORUS_7_FACETS) << 3),
    "rp2-6": (projective_plane_6, (), lambda: len(_RP2_6_FACETS) << 3),
    "cone": (cone, ("complex",), lambda s: 2 * s),
    "suspension": (suspension, ("complex",), lambda s: 4 * s),
    "join": (join, ("complex", "complex"), lambda a, b: a * b),
    "disjoint-union": (disjoint_union, ("complex", "complex"), lambda a, b: a + b),
    "wedge": (wedge, ("complex", "complex", "vertex", "vertex"), lambda a, b: a + b),
}


def _build(node) -> tuple[int, SimplicialComplex]:
    """(span, complex) for a parsed spec.  Each node's span is checked
    against MAX_FACES before the node builds a facet, and after its
    arguments are built, so the errors keep the order of building."""
    if isinstance(node, int):
        raise ValueError("integer given where a complex-valued spec was expected")
    name, *args = node
    if name not in _GENERATORS:
        known = ", ".join(sorted(_GENERATORS))
        raise ValueError(f"unknown generator {name!r} (known: {known})")
    function, kinds, span = _GENERATORS[name]
    n = kinds.count("complex")
    if not n:
        if len(args) != len(kinds) or not all(isinstance(a, int) for a in args):
            raise ValueError(f"{name} takes exactly {len(kinds)} integer parameter(s)")
        size, inputs = span(*args), args
    else:
        if "vertex" in kinds:
            if len(args) not in (n, len(kinds)):
                raise ValueError(
                    f"{name} takes two complex-valued arguments, optionally followed by "
                    "the two vertices to identify"
                )
            if not all(isinstance(a, int) for a in args[n:]):
                raise ValueError(f"{name} vertices must be integers")
        elif len(args) != n:
            count = "one complex-valued argument" if n == 1 else "two complex-valued arguments"
            raise ValueError(f"{name} takes exactly {count}")
        sizes, built = zip(*map(_build, args[:n]))
        size, inputs = span(*sizes), (*built, *args[n:])
    if size > MAX_FACES:
        raise ValueError(f"{spec_name(node)} would span more than the limit of {MAX_FACES} faces")
    return size, function(*inputs)


def generate(spec: str) -> tuple[str, SimplicialComplex]:
    """Build the complex described by a generator spec string.

    Returns (canonical name, complex); the same spec always produces the
    same facet list.  A spec whose facets would span more than MAX_FACES
    faces, the limit of a facet file, is rejected before any complex over
    the limit is built.
    """
    node = parse_spec(spec)
    return spec_name(node), _build(node)[1]
