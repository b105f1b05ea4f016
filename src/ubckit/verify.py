"""Executable upper- and lower-bound statements with structured reports.

Each checker evaluates its hypotheses and its conclusion inequalities
separately.  Conclusions are evaluated even when hypotheses fail, so a
near-miss can be inspected; such conclusions are labeled vacuous and the
overall outcome is "hypotheses-not-met" (exit code 2) rather than "fail"
(exit code 1).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .complexes import SimplicialComplex
from .cyclic import cyclic_h
from .homology import (
    _is_orientable,
    _link_chi,
    _link_records,
    _middle_betti_bound,
    _not_a_sphere,
    betti_numbers,
    is_buchsbaum,
    is_eulerian,
    is_homology_manifold,
    is_homology_sphere,
    is_pseudomanifold,
)
from .vectors import HVector, f_from_h, h_from_f, short_h_from_f


class Hypothesis(NamedTuple):
    condition: str
    status: bool | None  # None = not applicable
    witness: str | None = None

    def to_json_dict(self) -> dict:
        status = self.status if self.status is not None else "not-applicable"
        return {"condition": self.condition, "status": status, "witness": self.witness}


class Inequality(NamedTuple):
    label: str
    left: int
    right: int
    holds: bool
    binding: bool = True  # non-binding rows are informational only

    def to_json_dict(self) -> dict:
        out = {"label": self.label, "left": self.left, "right": self.right, "holds": self.holds}
        if not self.binding:
            out["informational"] = True
        return out


# the exit code of each overall outcome; sweep adds one for files it cannot check
EXIT_CODES = {"pass": 0, "fail": 1, "hypotheses-not-met": 2}


class VerificationReport(NamedTuple):
    statement: str
    hypotheses: tuple[Hypothesis, ...]
    conclusions: tuple[Inequality, ...]

    @property
    def hypotheses_met(self) -> bool:
        return all(h.status is True for h in self.hypotheses)

    @property
    def conclusion_holds(self) -> bool:
        return all(c.holds for c in self.conclusions if c.binding)

    @property
    def overall(self) -> str:
        if not self.hypotheses_met:
            return "hypotheses-not-met"
        return "pass" if self.conclusion_holds else "fail"

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.overall]

    def failed_hypotheses(self) -> tuple[Hypothesis, ...]:
        return tuple(h for h in self.hypotheses if h.status is not True)

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement,
            "overall": self.overall,
            "exit_code": self.exit_code,
            "conclusions_vacuous": not self.hypotheses_met,
            "hypotheses": [h.to_json_dict() for h in self.hypotheses],
            "conclusions": [c.to_json_dict() for c in self.conclusions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _odd_dimension_k(sc: SimplicialComplex) -> int:
    if not sc.is_pure:
        raise ValueError("the statement applies to pure complexes only")
    dim = sc.dim
    if dim < 3 or dim % 2 == 0:
        raise ValueError(f"need an odd dimension 2k+1 with k >= 1, got dimension {dim}")
    return (dim - 1) // 2


def _inadmissible_link(sc: SimplicialComplex, v: int, chi: int, k: int, mode: str):
    """Why the vertex link lk(v), already known to be a homology manifold
    with Euler characteristic chi, is not admissible, or None when it is.
    theorem: chi = 2 (homology-sphere links land here), or orientable with
    the middle Betti bound.  corollary: (-1)^k (chi - 2) <= 0, or vanishing
    middle homology.  The link is built, and its Betti numbers computed,
    only when the test on chi fails."""
    sign = (-1) ** k * (chi - 2)
    if (chi == 2) if mode == "theorem" else (sign <= 0):
        return None
    link = sc._face_link((v,))
    b = betti_numbers(link)
    if mode == "corollary":
        return f"beta_{k}(link) = {b[k]} != 0 and (-1)^{k}*(chi-2) = {sign} > 0" if b[k] else None
    if not _is_orientable(link):
        return f"chi(link) = {chi} != 2 and the link is not orientable"
    bound = _middle_betti_bound(b, k)
    if b[k] > bound:
        return f"chi(link) = {chi} != 2 and the middle Betti bound fails: beta_{k} = {b[k]} > {bound}"
    return None


def check_ubc_hypotheses(sc: SimplicialComplex, mode: str = "theorem") -> tuple[Hypothesis, ...]:
    """Per-vertex admissibility items for the odd-dimensional upper bound.

    theorem mode: every vertex link is a homology manifold with chi = 2, or
    an oriented homology manifold obeying the middle Betti bound.
    corollary mode: the complex is an oriented pseudomanifold and every
    vertex link is a homology manifold with vanishing middle homology or
    with (-1)^k (chi - 2) <= 0.

    The vertex links are checked in one top-down walk of the faces of
    dimension dim - 1 .. 1 (:func:`~ubckit.homology._link_records`), not
    one :func:`is_homology_manifold` per link.  The faces of lk(v) are the
    G - v for faces G containing v, with lk_{lk v}(G - v) = lk(G), and on
    faces containing v the order (-dim, G) is the order (-dim, G - v).  The
    cofaces of the first face G containing v whose link is not a sphere
    all contain v and passed, so the walk tests G, and G and its reason are
    the ones is_homology_manifold(lk v) reports.  The reason is computed
    only for a face with a vertex not yet failed (an untested face has only
    failed vertices), and the walk stops once every vertex has failed.
    Each other vertex link is judged on its chi by
    :func:`_inadmissible_link`; the chi of every vertex link comes from one
    count of the faces (:func:`~ubckit.homology._link_chi`), made unless
    every vertex failed.  A link is built from the walk's facets only for a
    failing face, and a vertex link only for Betti numbers; the walk leaves
    its face levels in the complex's lattice for the chi count and the
    f-vector.
    """
    if mode not in ("theorem", "corollary"):
        raise ValueError(f"unknown mode {mode!r}")
    k = _odd_dimension_k(sc)
    items: list[Hypothesis] = []
    if mode == "corollary":
        pm, orientable, wit = is_pseudomanifold(sc)
        ok = bool(pm) and bool(orientable)
        reason = None
        if not pm:
            reason = wit.reason
        elif not orientable:
            reason = "pseudomanifold is not orientable"
        items.append(Hypothesis("complex is an oriented pseudomanifold", ok, reason))
    failures: dict[int, str] = {}
    for face, facets in _link_records(sc, 1):
        if any(v not in failures for v in face):
            link = sc._interned(facets)
            reason = f"link is not a homology manifold: {_not_a_sphere(link)}"
            for v in face:
                failures.setdefault(v, reason)
            if len(failures) == sc.n_vertices:
                break
    chi = _link_chi(sc, 0) if len(failures) < sc.n_vertices else None
    for v in sc.vertices:
        reason = failures.get(v) or _inadmissible_link(sc, v, chi[(v,)], k, mode)
        items.append(Hypothesis(f"link of vertex {v} is admissible", reason is None, reason))
    return tuple(items)


def _h_rows(h_here, d: int, n: int, stop: int, binding: bool = True) -> list[Inequality]:
    """The rows h_i <= h_i(C_d(n)) for i = 0 .. stop - 1."""
    rows = []
    for i in range(stop):
        h_cyc = cyclic_h(d, n, i)
        rows.append(
            Inequality(f"h_{i} <= h_{i}(C_{d}({n}))", h_here[i], h_cyc, h_here[i] <= h_cyc, binding)
        )
    return rows


def verify_ubc(sc: SimplicialComplex) -> VerificationReport:
    """Face-count upper bound for pure (2k+1)-dimensional complexes against
    the cyclic (2k+2)-polytope on the same number of vertices.

    Binding conclusions: f_i <= f_i(cyclic) for i = 1..2k+1 and the
    intermediate short-h comparison sh_i <= sh_i(cyclic) for i = 0..k+1.
    The entrywise h comparison for i = 0..k+1 is reported as informational
    only: whether it follows from the hypotheses is an open question.
    The cyclic polytope's f-vector comes from its closed-form h-vector
    (:func:`cyclic_h`), not from enumerating its facets.
    """
    k = _odd_dimension_k(sc)
    d = 2 * k + 2
    n = sc.n_vertices
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} vertices for the cyclic comparison, got {n}")
    hypotheses = check_ubc_hypotheses(sc, "theorem")

    h_cyc = HVector(cyclic_h(d, n, i) for i in range(d + 1))
    f_here, f_cyc = sc.f_vector(), f_from_h(h_cyc)
    conclusions = [
        Inequality(
            f"f_{i} <= f_{i}(C_{d}({n}))", f_here[i], f_cyc[i], f_here[i] <= f_cyc[i]
        )
        for i in range(1, 2 * k + 2)
    ]
    sh_here, sh_cyc = short_h_from_f(f_here), short_h_from_f(f_cyc)
    conclusions.extend(
        Inequality(
            f"short_h_{i} <= short_h_{i}(C_{d}({n}))",
            sh_here[i],
            sh_cyc[i],
            sh_here[i] <= sh_cyc[i],
        )
        for i in range(0, k + 2)
    )
    conclusions += _h_rows(h_from_f(f_here), d, n, k + 2, binding=False)
    return VerificationReport("ubc", hypotheses, tuple(conclusions))


def check_lemma_hh(sc: SimplicialComplex) -> VerificationReport:
    """h-vector upper bound for 2k-dimensional homology manifolds:
    h_i <= h_i(cyclic (2k+1)-polytope on the same vertices) for i = 0..k+1,
    under chi = 2 or orientability plus the middle Betti bound."""
    dim = sc.dim
    if dim < 2 or dim % 2:
        raise ValueError(f"need an even dimension 2k with k >= 1, got dimension {dim}")
    k = dim // 2
    r = sc.n_vertices
    d = 2 * k + 1
    if r < d + 1:
        raise ValueError(f"need at least {d + 1} vertices for the cyclic comparison, got {r}")

    flag, orientable, wit = is_homology_manifold(sc)
    hyp_manifold = Hypothesis(
        "complex is a homology manifold",
        flag,
        wit.reason if wit is not None else None,
    )
    chi = sc.euler_characteristic()
    if flag:
        b = betti_numbers(sc)
        bound = _middle_betti_bound(b, k)
        if chi == 2 or (orientable and b[k] <= bound):
            alt_status, alt_reason = True, None
        else:
            alt_status = False
            alt_reason = (
                f"chi = {chi} != 2; orientable = {bool(orientable)}; "
                f"beta_{k} = {b[k]} vs bound {bound}"
            )
    else:
        alt_status, alt_reason = None, "not evaluated: not a homology manifold"
    hyp_alt = Hypothesis(
        "chi = 2, or orientable with the middle Betti bound", alt_status, alt_reason
    )

    conclusions = _h_rows(h_from_f(sc.f_vector()), d, r, k + 2)
    return VerificationReport("lemma-hh", (hyp_manifold, hyp_alt), tuple(conclusions))


def check_sphere_ubc(sc: SimplicialComplex) -> VerificationReport:
    """h-vector upper bound for rational homology spheres:
    h_i <= h_i(cyclic d-polytope on the same vertices) for i = 0..d-1."""
    d = sc.dim + 1
    n = sc.n_vertices
    hypotheses = [
        Hypothesis("complex is a rational homology sphere", is_homology_sphere(sc))
    ]
    conclusions: tuple[Inequality, ...]
    if d >= 2 and n >= d + 1:
        conclusions = tuple(_h_rows(h_from_f(sc.f_vector()), d, n, d))
    else:
        hypotheses.append(
            Hypothesis(
                "cyclic comparison defined (needs dimension >= 1 and more than d vertices)",
                False,
                f"d = {d}, n = {n}",
            )
        )
        conclusions = ()
    return VerificationReport("sphere-ubc", tuple(hypotheses), conclusions)


def check_dehn_sommerville(sc: SimplicialComplex) -> VerificationReport:
    """Palindromicity h_i = h_{d-i} for Eulerian complexes."""
    eul, wit = is_eulerian(sc)
    hypotheses = (
        Hypothesis(
            "complex is Eulerian", eul, wit.reason if wit is not None else None
        ),
    )
    h = h_from_f(sc.f_vector())
    d = sc.dim + 1
    conclusions = tuple(
        Inequality(f"h_{i} == h_{d - i}", h[i], h[d - i], h[i] == h[d - i])
        for i in range(0, d + 1)
    )
    return VerificationReport("dehn-sommerville", hypotheses, conclusions)


def check_lower_bounds(sc: SimplicialComplex) -> VerificationReport:
    """Alternating skeleton Euler characteristics of a Buchsbaum complex:
    (-1)^i chi_i >= 0 for 0 <= i <= floor((d-1)/2)."""
    if not sc.is_pure:
        raise ValueError("lower bounds apply to pure complexes only")
    bb, wit = is_buchsbaum(sc)
    hypotheses = (
        Hypothesis(
            "complex is Buchsbaum (pure with Cohen-Macaulay vertex links)",
            bb,
            wit.reason if wit is not None else None,
        ),
    )
    d = sc.dim + 1
    conclusions = []
    for i in range(0, (d - 1) // 2 + 1):
        value = (-1) ** i * sc.chi_partial(i)
        conclusions.append(
            Inequality(f"(-1)^{i} * chi_{i} >= 0", value, 0, value >= 0)
        )
    return VerificationReport("lower-bounds", hypotheses, tuple(conclusions))


VERIFIERS = {
    "ubc": verify_ubc,
    "lemma-hh": check_lemma_hh,
    "sphere-ubc": check_sphere_ubc,
    "dehn-sommerville": check_dehn_sommerville,
    "lower-bounds": check_lower_bounds,
}
