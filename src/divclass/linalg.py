"""Exact subspaces over Q or F_p of a space with labelled coordinates.

Labels are nonnegative integers: in practice the packed monomial codes of
`wpoly.encode_monomial`, whose integer order is the lexicographic order of
the exponent vectors and whose sum is the product of the monomials.  A
subspace has one of two representations:

  * `MonomialSpace`, the span of the unit vectors of a set of labels.  The
    graded pieces of monomial ideals are of this kind, so their equality and
    intersection are plain set operations.
  * `Subspace`, the span of general sparse rows (dicts from labels to
    nonzero coefficients), kept in semi-echelon form:

      - the pivot of a row is its largest label, and rows are keyed by it;
      - no two rows share a pivot;
      - over F_p rows are monic: residues mod p with pivot entry 1;
      - over Q rows are primitive integer vectors with positive pivot.

    A new row is first copied into that canonical form (`canonical_row`), and
    the copy, owned by the call, is reduced in place on its leading term
    only, until its pivot is new or it vanishes (`_reduce`).  Each step
    touches only the terms of the stored row it hits.  Over F_p the hit is
    monic, so the step subtracts b times it, b the row's leading entry, with
    no modular inverse.  Over Q it does the same when the hit's pivot entry
    a is 1; otherwise it first scales the row by a / gcd(a, b) and removes
    the row's content after the step.  A row whose pivot is new is
    normalized once, when it is stored.  Stored rows are never written to,
    so spaces may share them.  Lower labels may still be pivots of other
    rows, so the stored rows depend on insertion order; the span and `dim`
    do not.

    `Subspace.shifted` builds the span of the translates x^s * f of one row
    f with no reduction at all.  The label of x^s * mu is the integer sum
    mu + s, and adding the same s to every label of f keeps their order,
    so the pivot of x^s * f is lead(f) + s; distinct shifts give distinct
    pivots and the translates are already in semi-echelon form.  Canonical
    form only looks at the coefficients, so the canonical x^s * f is the
    translate of the canonical f, and the stored rows are those that
    inserting each translate one at a time would store.  `shifted` takes f prepared once
    per job by `prepared_row`: the items of its canonical row as a
    frozenset, which keeps its hash.  The translates of one (characteristic,
    row, key set) are built once, after the row is checked canonical, and
    kept among the `TRANSLATE_CACHE_SIZE` most recently used.  The
    characteristic is all of the field that canonical form depends on.  The
    callers still compute their rows and key sets independently (the module
    pieces of `sections` and the ideal pieces of `hyperring` do); the cache
    only maps equal keys to equal spans, as the key-set cache
    `wpoly.shifted_monomials` does.  Each call returns a new `Subspace` over a
    shallow copy of the kept rows, so the pieces that land on one key share
    their translate dicts, which are never written to.

Both offer `dim`, `rows`, `==`, `plus`, `intersect` and `contains_space`,
and accept either kind as the other operand.  Two spaces are equal when they
have the same field, the same dimension, and one contains the other.  The
pieces of one job share one `FieldSpec`, so fields are compared by identity
first and by value only when the objects differ; two `MonomialSpace`s over
the same field object compare, sum and meet by plain set operations on
their key sets.

The comparisons skip the reductions that the stored rows already decide:

  * Two `Subspace`s with equal `rows` dicts span the same space, so `==`
    tests containment only when the dicts differ.  `contains_space` answers
    no at the first row whose pivot is no pivot here, and skips a row stored
    here as it is.
  * `Subspace.plus` copies the rows of the operand of larger dimension and
    inserts the other's, skipping those it stores as they are.  When one
    contains the other, the sum holds exactly the larger one's rows, and
    comparing it with a space built from the same translates is a dict
    comparison.
  * A `MonomialSpace` is never changed once built, so `MonomialSpace.plus`
    may return an operand: itself when it contains the other side, or a
    monomial other side that contains it.  In the oracle's Z + H_t at a
    degree j = u m + v n with u >= 1, Z = zR is all of R_j, and the sum is
    Z with no row built.
  * The Zassenhaus `intersect` of A and B works in two blocks of labels:
    block 0 holds the labels k themselves and block 1 the labels k + tag,
    with tag = 1 << (bit length of the largest pivot of A and B), one bit
    above every label of both operands, so every block-1 label sorts above
    every block-0 label.  The rows (v, v), for the rows v of A, are stored
    under the pivots lead v + tag without reduction.  The v have distinct
    pivots, so those pivots are distinct; their entries are the canonical
    entries of v, so the rows are canonical.  Only the rows (w, 0) of B are
    reduced, and the stored rows with a pivot below the tag lie wholly in
    block 0, under their own labels: they are the intersection's rows as
    they are, with nothing rebuilt.
  * A `Subspace` meets a `MonomialSpace` with key set K without the unit
    rows of K: its own rows are reduced once more, with the labels outside
    K tagged into block 1 above those in K, and the rows whose pivot is
    below the tag span the intersection.  That is one reduction of dim A
    rows of their own length, where Zassenhaus would reduce |K| unit rows
    against rows twice as long.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DegenerateInput
from .fields import FieldSpec
from .wpoly import FIELD_BITS, decode_monomial


def _primitive(row: dict) -> dict:
    """Scale a fresh rational row to a primitive integer row with positive pivot."""
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
    if row:
        _divide_content(row, row[max(row)] < 0)
    return row


def _divide_content(row: dict, negate: bool) -> None:
    """Divide a nonzero integer row in place by its content, negated if asked."""
    content = 0
    for c in row.values():
        content = gcd(content, c)
        if content == 1:
            break
    if negate:
        content = -content
    if content != 1:
        for k, c in row.items():
            row[k] = c // content


def _make_monic(row: dict, lead: int, p: int) -> None:
    """Scale an F_p row in place so that its pivot entry `lead` becomes 1."""
    if lead != 1:
        inv = pow(lead, -1, p)
        for k, c in row.items():
            row[k] = c * inv % p


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

    @staticmethod
    def shifted(field: FieldSpec, row: frozenset, shifts: frozenset) -> "Subspace":
        """Span of the rows x^s * row for s in the set `shifts`.

        `row` is a row prepared over `field` by `prepared_row`; one that is
        not canonical raises DegenerateInput.  Each translate is stored under
        its pivot lead(row) + s, without reduction, and the rows come from
        the translate cache `_translates` (see the module docstring): the
        space is new, its rows dict a copy of the kept one.
        """
        out = Subspace(field)
        if row:
            out.rows = dict(_translates(field.char, row, shifts))
        return out

    @staticmethod
    def prepared_row(field: FieldSpec, row: dict) -> frozenset:
        """The items of `canonical_row(field, row)` as a frozenset, the row
        form that `shifted` takes; empty when the row is zero."""
        return frozenset(Subspace.canonical_row(field, row).items())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def canonical_row(field: FieldSpec, row: dict) -> dict:
        """A fresh canonical copy of a row over `field` (see the module
        docstring); empty when the row is zero."""
        p = field.char
        if p:
            out = {}
            for k, c in row.items():
                c = c % p if type(c) is int else field.canon(c)
                if c:
                    out[k] = c
            if out:
                _make_monic(out, out[max(out)], p)
            return out
        return _primitive({k: c for k, c in row.items() if c})

    def _reduce(self, row: dict):
        """Clear the leading terms of an owned row in place.

        The row's entries are canonical (see `_add`); its pivot entry need
        not be.  Subtracts stored rows until the pivot of the row is new, and
        returns that pivot, or None when the row vanishes.  The row is left
        unnormalized.
        """
        rows = self.rows
        p = self.field.char
        get = row.get
        while row:
            piv = max(row)
            hit = rows.get(piv)
            if hit is None:
                return piv
            b = row[piv]
            if p:
                # the hit is monic: subtract b * hit
                for k, c in hit.items():
                    c = (get(k, 0) - b * c) % p
                    if c:
                        row[k] = c
                    else:
                        del row[k]
                continue
            a = hit[piv]
            if a != 1:
                # a * row - b * hit, both scaled down by gcd(a, b)
                g = gcd(a, b)
                s = a // g
                if s != 1:
                    for k, c in row.items():
                        row[k] = c * s
                b //= g
            for k, c in hit.items():
                c = get(k, 0) - b * c
                if c:
                    row[k] = c
                else:
                    del row[k]
            if a != 1 and row:
                _divide_content(row, False)
        return None

    def _add(self, row: dict) -> bool:
        """Insert an owned row; True when the dimension grew.

        Its entries are canonical (nonzero residues mod p, or integers), and
        it is normalized when stored.
        """
        piv = self._reduce(row)
        if piv is None:
            return False
        p = self.field.char
        if p:
            _make_monic(row, row[piv], p)
        else:
            _divide_content(row, row[piv] < 0)
        self.rows[piv] = row
        return True

    def insert(self, row: dict) -> bool:
        """Add a row to the span; True when the dimension grew."""
        return self._add(Subspace.canonical_row(self.field, row))

    def contains(self, row: dict) -> bool:
        return self._reduce(Subspace.canonical_row(self.field, row)) is None

    def contains_space(self, other: "Subspace | MonomialSpace") -> bool:
        # a row whose pivot is no pivot here is outside the span, and a row
        # stored here as it is lies inside it; only the others are reduced
        rows = self.rows
        for piv, row in other.rows.items():
            hit = rows.get(piv)
            if hit is None:
                return False
            if hit != row and self._reduce(Subspace.canonical_row(self.field, row)) is not None:
                return False
        return True

    def __eq__(self, other) -> bool:
        if isinstance(other, MonomialSpace):
            return other == self
        return (
            isinstance(other, Subspace)
            and (self.field is other.field or self.field == other.field)
            and self.dim == other.dim
            and (self.rows == other.rows or self.contains_space(other))
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} over {self.field})"

    def plus(self, other: "Subspace | MonomialSpace") -> "Subspace | MonomialSpace":
        """Sum of two subspaces of the same ambient space.

        With a monomial operand this is `MonomialSpace.plus`.  Otherwise it
        starts from a copy of the rows of the operand of larger dimension and
        inserts the other's, except those it already stores as they are.
        Stored rows are never mutated, so the copy may share them.
        """
        if isinstance(other, MonomialSpace):
            return other.plus(self)
        if self.field is not other.field and self.field != other.field:
            raise DegenerateInput("subspaces over different fields")
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        out = Subspace(self.field)
        out.rows = rows = dict(big.rows)
        for piv, row in small.rows.items():
            if rows.get(piv) != row:
                out.insert(row)
        return out

    def intersect(self, other: "Subspace | MonomialSpace") -> "Subspace":
        """Intersection of two subspaces of the same ambient space."""
        if self.field is not other.field and self.field != other.field:
            raise DegenerateInput("subspaces over different fields")
        if isinstance(other, MonomialSpace):
            return self._meet_coordinates(other.keys)
        if not self.rows or not other.rows:
            return Subspace(self.field)
        # Zassenhaus: reduce rows (v, v) for v in self and (w, 0) for w in
        # other, block 1 tagged by one bit above every label.  A stored row
        # whose pivot is below the tag lies wholly in block 0, and those
        # rows span the intersection: the others have distinct block-1
        # pivots, so no combination using them vanishes on block 1.  The
        # rows (v, v) are stored as they are (see the module docstring).
        tag = 1 << max(max(self.rows), max(other.rows)).bit_length()
        stacked = Subspace(self.field)
        first = stacked.rows
        for piv, v in self.rows.items():
            doubled = {k + tag: c for k, c in v.items()}
            doubled.update(v)
            first[piv + tag] = doubled
        for w in other.rows.values():
            stacked._add({k + tag: c for k, c in w.items()})
        return stacked._second_block(tag)

    def _meet_coordinates(self, keys: frozenset) -> "Subspace":
        """Intersection with the span of the unit rows of `keys`.

        The rows are reduced again with every label k outside `keys` tagged
        as k + tag, one bit above every label here, so above every label
        inside.  A stored row whose pivot is below the tag then lies inside
        the span of `keys`, and those rows span the intersection, as in the
        Zassenhaus intersection.
        """
        if not self.rows:
            return Subspace(self.field)
        tag = 1 << max(self.rows).bit_length()
        tagged = Subspace(self.field)
        for v in self.rows.values():
            tagged._add({k if k in keys else k + tag: c for k, c in v.items()})
        return tagged._second_block(tag)

    def _second_block(self, tag: int) -> "Subspace":
        """The rows with a pivot below `tag`, which hold block-0 labels only;
        they are kept as they are, since nothing writes to stored rows."""
        out = Subspace(self.field)
        out.rows = {piv: row for piv, row in self.rows.items() if piv < tag}
        return out


def _is_canonical(p: int, row: dict) -> bool:
    """Whether `canonical_row` over a field of characteristic p leaves a
    nonzero row as it is: integer entries, residues in [1, p) with pivot
    entry 1 over F_p, nonzero with content 1 and a positive pivot entry
    over Q."""
    values = row.values()
    if any(type(c) is not int for c in values):
        return False
    lead = row[max(row)]
    if p:
        return lead == 1 and all(0 < c < p for c in values)
    return lead > 0 and 0 not in values and gcd(*values) == 1


# Bound on the translate cache of `Subspace.shifted`.  A degree walk comes
# back to a few (row, key set) pairs at nearby degrees: the module of n*E_t
# and h_t R at one degree, and the n degrees j = u m + v n that share v.
# Each entry keeps a whole piece's rows alive.  Over the first 400 seed-1
# verify-forms operations 8, 16, 32 and 64 entries served 66, 76, 80 and
# 80% of the 34 260 calls; `verify` on x1, x2, x1^2 + x2^2 (n = 3, Q) at
# depth 1600 peaked at 40.0, 42.3, 47.0 and 56.0 MB (38.5 MB uncached;
# Python 3.11, 2 cores).
TRANSLATE_CACHE_SIZE = 32


@lru_cache(maxsize=TRANSLATE_CACHE_SIZE)
def _translates(p: int, row: frozenset, shifts: frozenset) -> dict:
    """The rows of `Subspace.shifted` for a nonzero prepared row over a
    field of characteristic p: pivot lead(row) + s -> x^s * row, for s in
    shifts.

    The row is checked canonical once, before its translates are built.  A
    row that is not raises DegenerateInput and nothing is kept, so no
    reduction ever meets a stored row whose pivot entry it cannot clear.
    The error names the row's labels decoded as exponent vectors, with as
    many fields as its largest label needs.
    """
    f = dict(row)
    lead = max(f)
    if not _is_canonical(p, f):
        d = max(1, -(-lead.bit_length() // FIELD_BITS))
        text = {decode_monomial(k, d): c for k, c in sorted(row)}
        raise DegenerateInput(f"row {text} is not canonical in characteristic {p}")
    return {lead + s: {e + s: c for e, c in row} for s in shifts}


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
        if type(other) is MonomialSpace and other.field is self.field:
            # pieces that land on one cached key set share it
            keys = self.keys
            return keys is other.keys or keys == other.keys
        return (
            isinstance(other, (MonomialSpace, Subspace))
            and (self.field is other.field or self.field == other.field)
            and self.dim == other.dim
            and self.contains_space(other)
        )

    def __repr__(self) -> str:
        return f"MonomialSpace(dim={self.dim} over {self.field})"

    def plus(self, other: "Subspace | MonomialSpace") -> "Subspace | MonomialSpace":
        """Sum of two subspaces of the same ambient space.

        This space itself when it contains the other, the other when both
        are monomial and the other contains this one (a `MonomialSpace` is
        never changed), else a new space.
        """
        if self.field is not other.field and self.field != other.field:
            raise DegenerateInput("subspaces over different fields")
        if isinstance(other, MonomialSpace):
            keys, other_keys = self.keys, other.keys
            if keys is other_keys or keys >= other_keys:
                return self
            if other_keys >= keys:
                return other
            return MonomialSpace(self.field, keys | other_keys)
        if self.contains_space(other):
            return self
        out = self.as_subspace()
        for row in other.rows.values():
            out.insert(row)
        return out

    def intersect(self, other: "Subspace | MonomialSpace") -> "Subspace | MonomialSpace":
        """Intersection of two subspaces of the same ambient space."""
        if isinstance(other, Subspace):
            return other.intersect(self)
        if self.field is not other.field and self.field != other.field:
            raise DegenerateInput("subspaces over different fields")
        return MonomialSpace(self.field, self.keys & other.keys)


def intersect_all(spaces: list[Subspace | MonomialSpace]) -> Subspace | MonomialSpace:
    if not spaces:
        raise DegenerateInput("need at least one subspace")
    acc = spaces[0]
    for s in spaces[1:]:
        acc = acc.intersect(s)
    return acc
