"""Exact subspaces over Q or F_p of a space with labelled coordinates.

Labels are hashable and totally ordered (exponent tuples in practice).  A
subspace has one of two representations:

  * `MonomialSpace`, the span of the unit vectors of a set of labels.  The
    graded pieces of monomial ideals are of this kind, so their equality and
    intersection are plain set operations.
  * `Subspace`, the span of general sparse rows (dicts from labels to
    nonzero coefficients), kept in semi-echelon form:

      - the pivot of a row is its largest label, and rows are keyed by it;
      - no two rows share a pivot;
      - over F_p coefficients are reduced mod p;
      - over Q rows are primitive integer vectors with positive pivot.

    A new row is reduced on its leading term only, until its pivot is new
    or it vanishes.  Lower labels may still be pivots of other rows, so the
    stored rows depend on insertion order; the span and `dim` do not.

Both offer `dim`, `rows`, `==`, `intersect` and `contains_space`, and
accept either kind as the other operand.  Two spaces are equal when they
have the same field, the same dimension, and one contains the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DegenerateInput
from .fields import FieldSpec


def _primitive(row: dict) -> dict:
    """Scale a rational row to a primitive integer row with positive pivot."""
    denom = 1
    has_fraction = False
    for c in row.values():
        if type(c) is Fraction:
            has_fraction = True
            d = c.denominator
            if d != 1:
                denom = denom * d // gcd(denom, d)
    if has_fraction:
        row = {k: int(c * denom) for k, c in row.items()}
    return _primitive_int(row)


def _primitive_int(row: dict) -> dict:
    """Divide an integer row by its content; make the pivot entry positive."""
    content = 0
    for v in row.values():
        content = gcd(content, v)
        if content == 1:
            break
    if content == 0:
        return {}
    if row[max(row)] < 0:
        return {k: -(v // content) for k, v in row.items()}
    if content == 1:
        return row
    return {k: v // content for k, v in row.items()}


class Subspace:
    """Span of a set of sparse rows, kept as rows with distinct pivots."""

    __slots__ = ("field", "rows")

    def __init__(self, field: FieldSpec, rows=()):
        self.field = field
        self.rows: dict = {}  # pivot label (largest label of the row) -> row
        for row in rows:
            self.insert(row)

    @staticmethod
    def unit_space(field: FieldSpec, keys) -> "MonomialSpace":
        """Span of the unit rows of the keys (repeats ignored), as a set."""
        return MonomialSpace(field, keys)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _canon_row(self, row: dict) -> dict:
        p = self.field.char
        if p:
            out = {}
            for k, c in row.items():
                c = c % p if type(c) is int else self.field.canon(c)
                if c:
                    out[k] = c
            return out
        return _primitive({k: c for k, c in row.items() if c})

    def _combine(self, row: dict, hit: dict, col) -> dict:
        """Subtract the multiple of hit that clears row[col]."""
        p = self.field.char
        if p:
            factor = row[col] * pow(hit[col], p - 2, p) % p
            new = {}
            for k in set(row) | set(hit):
                c = (row.get(k, 0) - factor * hit.get(k, 0)) % p
                if c:
                    new[k] = c
            return new
        a, b = hit[col], row[col]
        new = {}
        for k in set(row) | set(hit):
            c = a * row.get(k, 0) - b * hit.get(k, 0)
            if c:
                new[k] = c
        return _primitive(new)

    def _reduce(self, row: dict) -> dict:
        """Subtract existing echelon rows until the pivot is new or row dies."""
        while row:
            piv = max(row)
            hit = self.rows.get(piv)
            if hit is None:
                return row
            row = self._combine(row, hit, piv)
        return row

    def insert(self, row: dict) -> bool:
        """Add a row to the span; True when the dimension grew."""
        row = self._reduce(self._canon_row(row))
        if not row:
            return False
        self.rows[max(row)] = row
        return True

    def contains(self, row: dict) -> bool:
        return not self._reduce(self._canon_row(row))

    def contains_space(self, other: "Subspace | MonomialSpace") -> bool:
        return all(self.contains(r) for r in other.rows.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, MonomialSpace):
            return other == self
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.dim == other.dim
            and self.contains_space(other)
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} over {self.field})"

    def intersect(self, other: "Subspace | MonomialSpace") -> "Subspace":
        """Intersection of two subspaces of the same ambient space."""
        if self.field != other.field:
            raise DegenerateInput("subspaces over different fields")
        # Zassenhaus: reduce rows (v, v) for v in self and (w, 0) for w in
        # other.  Labels (1, k) sort above (0, k), so a stored row whose
        # pivot is (0, k) lies wholly in the second block, and those rows
        # span the intersection: the others have distinct first-block
        # pivots, so no combination using them vanishes on the first block.
        stacked = Subspace(self.field)
        for v in self.rows.values():
            doubled = {(1, k): c for k, c in v.items()}
            doubled.update({(0, k): c for k, c in v.items()})
            stacked.insert(doubled)
        for w in other.rows.values():
            stacked.insert({(1, k): c for k, c in w.items()})
        out = Subspace(self.field)
        for piv, row in stacked.rows.items():
            if piv[0] == 0:
                out.insert({k: c for (_, k), c in row.items()})
        return out


class MonomialSpace:
    """Span of the unit vectors of a set of labels, a coordinate subspace."""

    __slots__ = ("field", "keys")

    def __init__(self, field: FieldSpec, keys=()):
        self.field = field
        self.keys = keys if type(keys) is frozenset else frozenset(keys)

    @property
    def dim(self) -> int:
        return len(self.keys)

    @property
    def rows(self) -> dict:
        """The echelon rows in the layout of `Subspace.rows`, built anew."""
        return {k: {k: 1} for k in self.keys}

    def as_subspace(self) -> Subspace:
        """The same span as a general `Subspace`, ready for more inserts."""
        out = Subspace(self.field)
        out.rows = self.rows
        return out

    def contains_space(self, other: "Subspace | MonomialSpace") -> bool:
        # a vector lies in a coordinate subspace exactly when its support does
        if isinstance(other, MonomialSpace):
            return self.keys >= other.keys
        return all(self.keys.issuperset(r) for r in other.rows.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, (MonomialSpace, Subspace))
            and self.field == other.field
            and self.dim == other.dim
            and self.contains_space(other)
        )

    def __repr__(self) -> str:
        return f"MonomialSpace(dim={self.dim} over {self.field})"

    def intersect(self, other: "Subspace | MonomialSpace") -> "Subspace | MonomialSpace":
        """Intersection of two subspaces of the same ambient space."""
        if isinstance(other, Subspace):
            return other.intersect(self)
        if self.field != other.field:
            raise DegenerateInput("subspaces over different fields")
        return MonomialSpace(self.field, self.keys & other.keys)


def intersect_all(spaces: list[Subspace | MonomialSpace]) -> Subspace | MonomialSpace:
    if not spaces:
        raise DegenerateInput("need at least one subspace")
    acc = spaces[0]
    for s in spaces[1:]:
        acc = acc.intersect(s)
    return acc
