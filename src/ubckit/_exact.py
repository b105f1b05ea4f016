"""The exact integer vector types and the binomial coefficient.

FVector, HVector and ShortHVector are bound in :mod:`ubckit.vectors`, their
public home, beside the transforms between them.  They live here so that a
complex and its Betti vector need no transform code: ``classify`` and
``gen`` load no :mod:`ubckit.vectors`.
"""

from __future__ import annotations

from math import comb


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
