"""Exact subspaces over Q or F_p of a space with labelled coordinates.

Labels are hashable and totally ordered (exponent tuples in practice).  A
subspace has one of two representations:

  * `MonomialSpace`, the span of the unit vectors of a set of labels.  The
    graded pieces of monomial ideals are of this kind, so their equality and
    intersection are plain set operations.
  * `Subspace`, the span of general sparse rows (dicts from labels to
    nonzero coefficients), kept in a fully reduced echelon form that is
    canonical, so equal spans store equal dicts:

      - the pivot of a row is its largest label;
      - every pivot label occurs in exactly one row;
      - over F_p rows are monic at the pivot;
      - over Q rows are primitive integer vectors with positive pivot.

    A column index (label -> pivot rows containing it) finds the older rows
    that a new pivot must be cleared from without scanning them all.

Both offer `dim`, `rows`, `basis`, `==`, `intersect` and `contains_space`,
and accept either kind as the other operand.  A `Subspace` whose echelon
rows are all unit rows equals the `MonomialSpace` of their pivots.
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
    """Span of a set of sparse rows, kept in canonical reduced echelon form."""

    __slots__ = ("field", "rows", "cols")

    def __init__(self, field: FieldSpec, rows=()):
        self.field = field
        self.rows: dict = {}  # pivot label -> row dict
        self.cols: dict = {}  # label -> set of pivot labels whose row uses it
        for row in rows:
            self.insert(row)

    @staticmethod
    def unit_space(field: FieldSpec, keys) -> "MonomialSpace":
        """Span of the unit rows of the keys (repeats ignored), as a set."""
        return MonomialSpace(field, keys)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> list[dict]:
        """Echelon rows, largest pivot first; deterministic."""
        return [dict(self.rows[p]) for p in sorted(self.rows, reverse=True)]

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

    def _fully_reduce(self, row: dict) -> dict:
        """Reduce until no entry of the row sits under an existing pivot.

        Leading reduction alone settles membership, but a surviving row can
        still hold lower labels that are pivots of older rows; those must be
        cleared too or the stored form depends on insertion order.
        """
        row = self._reduce(row)
        while row:
            piv = max(row)
            inner = None
            for k in row:
                if k != piv and k in self.rows:
                    inner = k
                    break
            if inner is None:
                return row
            row = self._combine(row, self.rows[inner], inner)
        return row

    def insert(self, row: dict) -> bool:
        """Add a row to the span; True when the dimension grew."""
        row = self._fully_reduce(self._canon_row(row))
        if not row:
            return False
        piv = max(row)
        if self.field.char:
            inv = pow(row[piv], self.field.char - 2, self.field.char)
            row = {k: c * inv % self.field.char for k, c in row.items()}
        # clear the new pivot from every older row that uses it
        conflicts = self.cols.get(piv)
        if conflicts:
            for other_piv in tuple(conflicts):
                self._eliminate(other_piv, piv, row)
        self.rows[piv] = row
        for k in row:
            self.cols.setdefault(k, set()).add(piv)
        return True

    def _eliminate(self, target_piv, col, row: dict):
        target = self.rows[target_piv]
        new = self._combine(target, row, col)
        for k in target:
            self.cols[k].discard(target_piv)
            if not self.cols[k]:
                del self.cols[k]
        self.rows[target_piv] = new
        for k in new:
            self.cols.setdefault(k, set()).add(target_piv)

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
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} over {self.field})"

    def is_monomial(self) -> bool:
        """True when every echelon row has a single term."""
        return all(len(r) == 1 for r in self.rows.values())

    def intersect(self, other: "Subspace | MonomialSpace") -> "Subspace | MonomialSpace":
        """Intersection of two subspaces of the same ambient space."""
        if self.field != other.field:
            raise DegenerateInput("subspaces over different fields")
        mine, theirs = _unit_labels(self), _unit_labels(other)
        if mine is not None and theirs is not None:
            return MonomialSpace(self.field, mine & theirs)
        # Zassenhaus: reduce rows (v, v) for v in self and (w, 0) for w in
        # other; reduced rows supported only on the second block span the
        # intersection.  Labels (1, k) sort above (0, k), so pivots prefer
        # the first block and the second-block tail is fully reduced.
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

    def basis(self) -> list[dict]:
        """Unit rows, largest label first; deterministic."""
        return [{k: 1} for k in sorted(self.keys, reverse=True)]

    def as_subspace(self) -> Subspace:
        """The same span as a general `Subspace`, ready for more inserts."""
        out = Subspace(self.field)
        out.rows = self.rows
        out.cols = {k: {k} for k in self.keys}
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
            and self.keys == _unit_labels(other)
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


def _unit_labels(space: Subspace | MonomialSpace):
    """The labels of a span of unit rows, or None when a row is not a unit."""
    if isinstance(space, MonomialSpace):
        return space.keys
    return space.rows.keys() if space.is_monomial() else None


def intersect_all(spaces: list[Subspace | MonomialSpace]) -> Subspace | MonomialSpace:
    if not spaces:
        raise DegenerateInput("need at least one subspace")
    acc = spaces[0]
    for s in spaces[1:]:
        acc = acc.intersect(s)
    return acc
