"""Exact arithmetic for face-count vectors and their binomial transforms.

Everything in this module works over arbitrary-precision integers and
rationals; no floating point is used anywhere.  A (d-1)-dimensional complex
has an f-vector (f_-1, f_0, ..., f_{d-1}) with f_-1 = 1, an h-vector
(h_0, ..., h_d) obtained by the standard binomial transform, and a short
h-vector (sh_0, ..., sh_{d-1}) equal to the vertexwise sum of the h-vectors
of all vertex links.  Each j-face lies in the links of its j+1 vertices, so
sum_v f_{j-1}(lk v) = (j+1) f_j, and the short h-vector is the h-transform
of those weighted face counts.  The vector types and :func:`binomial` are
defined in :mod:`ubckit.complexes`, which uses them without the
transforms, and are bound here, their public home.
"""

from __future__ import annotations

from math import factorial
from typing import TYPE_CHECKING

from .complexes import FVector, HVector, ShortHVector, binomial

if TYPE_CHECKING:  # fractions (and decimal with it) loads only where a Fraction is built
    from fractions import Fraction


def _transform(v, sign: int) -> list[int]:
    """w_i = sum_{j=0..i} sign^(i-j) C(d-j, d-i) v_j with d = len(v) - 1: the
    h-transform for sign -1 and its inverse for sign 1."""
    d = len(v) - 1
    return [
        sum(sign ** (i - j) * binomial(d - j, d - i) * v[j] for j in range(i + 1))
        for i in range(d + 1)
    ]


def _entries(v, kind: type) -> tuple[int, ...]:
    """v's entries.  v must be a kind: each transform would return numbers,
    not an error, for a vector of another type."""
    if not isinstance(v, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(v).__name__}")
    return v.entries


def h_from_f(f: FVector) -> HVector:
    """h_i = sum_{j=0..i} (-1)^(i-j) C(d-j, d-i) f_{j-1}."""
    return HVector(_transform(_entries(f, FVector), -1))


def f_from_h(h: HVector) -> FVector:
    """Inverse transform: f_{j-1} = sum_{i=0..j} C(d-i, d-j) h_i."""
    return FVector(_transform(_entries(h, HVector), 1))


def short_h_from_f(f: FVector) -> ShortHVector:
    """sh_i = sum_{j=0..i} (-1)^(i-j) (j+1) C(d-1-j, d-1-i) f_j.

    Each j-face lies in the links of its j+1 vertices, so the vertex links'
    f-vectors sum to sum_v f_{j-1}(lk v) = (j+1) f_j, and sh is the
    h-transform of that sum.  Purely arithmetic; agrees with
    :func:`short_h_from_links` on every pure complex.
    """
    counts = _entries(f, FVector)[1:]  # f_0 .. f_{d-1}
    return ShortHVector(_transform([(j + 1) * f_j for j, f_j in enumerate(counts)], -1))


def f_from_short_h(sh: ShortHVector) -> FVector:
    """f_j = (j+1)^(-1) sum_{i=0..j} C(d-1-i, d-1-j) sh_i.

    The weighted sum is divisible by j+1 for the short h-vector of any pure
    complex; a non-integral result is rejected rather than rounded, since it
    signals input that no complex realizes.
    """
    entries = [1]
    for j, total in enumerate(_transform(_entries(sh, ShortHVector), 1)):
        if total % (j + 1):
            raise ValueError(
                f"sum {total} for f_{j} is not divisible by {j + 1}: "
                "not the short h-vector of a pure complex"
            )
        entries.append(total // (j + 1))
    return FVector(entries)


def short_h_from_links(complex_) -> ShortHVector:
    """Componentwise sum of h(link of v) over all vertices v.

    Requires a pure complex: vertex links of a pure (d-1)-complex are all
    (d-2)-dimensional, so their h-vectors line up.
    """
    if not complex_.is_pure:
        raise ValueError("the short h-vector is defined for pure complexes only")
    d = complex_.dim + 1
    totals = [0] * d
    for v in complex_.vertices:
        hv = h_from_f(complex_.link((v,)).f_vector())
        for i, entry in enumerate(hv.entries):
            totals[i] += entry
    return ShortHVector(totals)


def beta_integral(i: int, r: int) -> Fraction:
    """The exact value of the integral of x^i (x-1)^(r-i-1) over [0, 1].

    Evaluated as the finite sum  sum_{j=i+1..r} (1/j) (-1)^(r-j) C(r-i-1, r-j)
    and cross-checked against the Beta-function closed form
    (-1)^(r-i-1) i! (r-i-1)! / r!.
    """
    from fractions import Fraction

    if not 0 <= i < r:
        raise ValueError(f"need 0 <= i < r, got i={i}, r={r}")
    value = sum(
        Fraction((-1) ** (r - j) * binomial(r - i - 1, r - j), j)
        for j in range(i + 1, r + 1)
    )
    closed = Fraction((-1) ** (r - i - 1) * factorial(i) * factorial(r - i - 1), factorial(r))
    if value != closed:
        raise ArithmeticError(f"beta_integral({i}, {r}): {value} != {closed}")
    return value


def short_h_coefficient(k: int, r: int, i: int) -> Fraction:
    """Coefficient of sh_i when h_r of a (2k+1)-dimensional complex is
    rewritten in short h-vector terms.

    Equals C(2k+1-i, 2k+2-r) * beta_integral(i, r); whenever nonzero its sign
    is (-1)^(r-i-1), so consecutive short-h entries enter with alternating
    signs.
    """
    if k < 0 or not 0 <= r <= 2 * k + 2 or not 0 <= i < r:
        raise ValueError(f"indices out of range: k={k}, r={r}, i={i}")
    return binomial(2 * k + 1 - i, 2 * k + 2 - r) * beta_integral(i, r)


def h_from_short_h(sh: ShortHVector, k: int, r: int) -> Fraction:
    """Entry h_r of a pure (2k+1)-dimensional complex from its short h-vector.

    h_r = (-1)^r C(2k+2, r) + sum_{i=0..r-1} sh_i * short_h_coefficient(k, r, i).
    Exact rational; the result is an integer for every genuine complex.
    """
    from fractions import Fraction

    d = 2 * k + 2
    if len(_entries(sh, ShortHVector)) != d:
        raise ValueError(
            f"short h-vector has {sh.d} entries, expected {d} for dimension {2 * k + 1}"
        )
    if not 0 <= r <= d:
        raise ValueError(f"index r={r} out of range 0..{d}")
    total = Fraction((-1) ** r * binomial(d, r))
    for i in range(r):
        coeff = short_h_coefficient(k, r, i)
        if coeff:
            total += sh[i] * coeff
    return total


def lower_bound_coeff(d: int, i: int, l: int) -> Fraction:
    """Coefficient of sh_l in the expansion of (-1)^i chi_i for a
    (d-1)-dimensional complex:

        c(i, l, d) = sum_{j=l..i} (-1)^(i-j) (1/(j+1)) C(d-1-l, d-1-j).

    For 0 <= l <= i <= floor((d-1)/2) these are all non-negative, which is
    what makes the skeleton lower bounds work.
    """
    from fractions import Fraction

    if not 0 <= l <= i <= d - 1:
        raise ValueError(f"need 0 <= l <= i <= d-1, got d={d}, i={i}, l={l}")
    return sum(
        Fraction((-1) ** (i - j) * binomial(d - 1 - l, d - 1 - j), j + 1)
        for j in range(l, i + 1)
    )
