"""Sparse exact row spaces: semi-echelon form, equality and intersections.

The package compares graded components with `==`, which decides span
equality by dimension plus containment; the stored rows themselves depend
on insertion order.  Most of this file attacks that equality from different
directions: permuted insertion orders, redundant rows, brute-force span
enumeration over small prime fields.
"""

import copy
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from divclass import linalg
from divclass.errors import DegenerateInput
from divclass.fields import FieldSpec
from divclass.linalg import MonomialSpace, Subspace, intersect_all
from divclass.wpoly import encode_monomial

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def space(field, *rows):
    return Subspace(field, [dict(r) for r in rows])


def code(*exps):
    """The label of the monomial with these exponents."""
    return encode_monomial(exps)


def test_basic_insertion():
    s = space(F5, {0: 1, 1: 2}, {1: 3})
    assert s.dim == 2
    assert s.contains({0: 4})
    assert not s.contains({2: 1})


def test_insert_reports_dimension_growth():
    s = Subspace(F3)
    assert s.insert({0: 1, 1: 1})
    assert not s.insert({0: 2, 1: 2})
    assert s.insert({0: 1})
    assert s.dim == 2
    assert not s.insert({})


def test_zero_rows_are_ignored():
    s = space(Q, {0: Fraction(0)}, {})
    assert s.dim == 0


def test_unit_space_matches_generic_insertion():
    keys = [code(0, 3), code(2, 1), code(0, 3), code(4, 0)]
    fast = Subspace.unit_space(F5, keys)
    slow = space(F5, *({k: 1} for k in keys))
    assert fast.rows == slow.rows
    assert fast.dim == 3
    mixed = space(F5, {code(2, 1): 3}, {code(4, 0): 2, code(2, 1): 1})
    assert mixed == Subspace.unit_space(F5, [code(2, 1), code(4, 0)])


F7 = FieldSpec.prime(7)


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from([Q, F7]),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).map(encode_monomial),
        st.one_of(
            st.integers(min_value=-9, max_value=9),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        min_size=0,
        max_size=4,
    ),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).map(encode_monomial),
        unique=True,
        max_size=6,
    ),
    st.booleans(),
)
def test_shifted_rows_equal_one_at_a_time_insertion(field, row, shifts, negate_lead):
    # x^s * f for distinct s: the translates of the canonical f, keyed by
    # lead(f) + s, exactly as inserting each translate would store them;
    # Fraction coefficients and a negative leading coefficient over Q, and
    # coefficients that vanish mod 7 over F_7.  `shifted` takes the row as
    # `prepared_row` returns it, the items of a fixed point of
    # `canonical_row`, and the same key again gives a new space
    if field.char:
        row = {k: int(c) if type(c) is int else c.numerator for k, c in row.items()}
    if negate_lead and row:
        lead = max(row)
        row[lead] = -abs(row[lead]) or -1
    canonical = Subspace.canonical_row(field, row)
    assert Subspace.canonical_row(field, canonical) == canonical
    prepared = Subspace.prepared_row(field, row)
    assert dict(prepared) == canonical
    got = Subspace.shifted(field, prepared, frozenset(shifts))
    again = Subspace.shifted(field, prepared, frozenset(shifts))
    assert again.rows == got.rows and again.rows is not got.rows
    one_at_a_time = Subspace(field)
    for s in shifts:
        one_at_a_time.insert({e + s: c for e, c in row.items()})
    assert got.rows == one_at_a_time.rows
    assert got.dim == one_at_a_time.dim
    _assert_semi_echelon(got)


def test_shifted_refuses_a_row_that_is_not_canonical(fresh_caches):
    # a stored row with a pivot entry other than 1 over F_p is never cleared
    # by `_reduce`, which would loop forever on the next insert against it;
    # `shifted` raises on such a row and keeps nothing
    shifts = frozenset([code(0, 0), code(1, 0), code(0, 1)])
    raw_conic = frozenset({code(2, 0): 3, code(0, 2): 3}.items())  # 3x1^2 + 3x2^2
    with pytest.raises(DegenerateInput, match="not canonical in characteristic 7"):
        Subspace.shifted(F7, raw_conic, shifts)
    not_canonical = (
        (F7, {code(2, 0): 1, code(0, 2): 8}),  # a residue out of range
        (F7, {code(2, 0): 1, code(0, 2): Fraction(1, 2)}),
        (F5, {code(2, 0): 1, code(0, 2): 5}),  # canonical over F_7, not over F_5
        (Q, {code(2, 0): 2, code(0, 2): 2}),  # not primitive
        (Q, {code(2, 0): -1, code(0, 2): 1}),  # negative pivot entry
        (Q, {code(2, 0): 1, code(0, 2): 0}),  # a zero entry
        (Q, {code(2, 0): Fraction(1), code(0, 2): Fraction(1)}),
        (Q, {code(2, 0): True, code(0, 2): True}),
    )
    for field, row in not_canonical:
        with pytest.raises(DegenerateInput, match="not canonical"):
            Subspace.shifted(field, frozenset(row.items()), shifts)
    assert linalg._translates.cache_info().currsize == 0
    # the prepared row spans what inserting each translate spans, and a
    # later insert against the stored translates ends
    prepared = Subspace.prepared_row(F7, dict(raw_conic))
    assert dict(prepared) == {code(2, 0): 1, code(0, 2): 1}
    piece = Subspace.shifted(F7, prepared, shifts)
    inserted = Subspace(F7, [{code(2, 0) + s: 3, code(0, 2) + s: 3} for s in shifts])
    assert piece.rows == inserted.rows
    assert not piece.insert({code(3, 0): 5, code(1, 2): 5})
    assert piece.insert({code(3, 0): 1})


def test_monomial_spaces_compare_their_keys():
    a = Subspace.unit_space(F5, [code(1, 0), code(0, 1)])
    assert a == Subspace.unit_space(F5, [code(0, 1), code(1, 0)])
    assert a != Subspace.unit_space(F5, [code(0, 1), code(2, 0)])
    assert a != Subspace.unit_space(F3, [code(1, 0), code(0, 1)])
    assert a == space(F5, {code(1, 0): 2}, {code(0, 1): 1, code(1, 0): 1})


def test_contains_space():
    big = space(F3, {0: 1}, {1: 1}, {2: 1})
    small = space(F3, {0: 1, 1: 2}, {2: 1})
    assert big.contains_space(small)
    assert not small.contains_space(big)


def _all_vectors(s, labels, p):
    """Enumerate the full span of a small F_p subspace as coefficient tuples."""
    base = list(s.rows.values())
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(base)):
        v = {}
        for c, row in zip(coeffs, base):
            for k, x in row.items():
                v[k] = (v.get(k, 0) + c * x) % p
        out.add(tuple(v.get(k, 0) for k in labels))
    return out


def _row_lists(max_label, coeffs, max_rows):
    return st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=max_label),
            coeffs,
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=max_rows,
    )


def _assert_semi_echelon(s):
    """Rows are keyed by their largest label; Q rows are primitive integers
    with positive pivot, F_p rows are monic residues."""
    for piv, row in s.rows.items():
        assert piv == max(row)
        p = s.field.char
        if p == 0:
            assert all(type(c) is int for c in row.values())
            assert row[piv] > 0
            assert gcd(*row.values()) == 1
        else:
            assert all(type(c) is int and 0 < c < p for c in row.values())
            assert row[piv] == 1


class TestEquality:
    """`==` is span equality, whatever rows were inserted and in what order."""

    def test_regression_interior_pivot(self):
        # two presentations of the same plane; the second row of the first
        # presentation contains the other's pivot as an interior label
        a = space(Q, {code(4, 0): 1, code(3, 1): 1}, {code(3, 1): 1, code(0, 4): 1})
        b = space(Q, {code(4, 0): 1, code(0, 4): -1}, {code(3, 1): 1, code(0, 4): 1})
        assert a == b and b == a
        assert a != space(Q, {code(4, 0): 1}, {code(3, 1): 1})

    @given(_row_lists(5, st.integers(min_value=1, max_value=4), 6), st.randoms())
    def test_insertion_order_invariance_fp(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        a, b = space(F5, *rows), space(F5, *shuffled)
        assert a == b and b == a
        _assert_semi_echelon(a)
        _assert_semi_echelon(b)

    @given(
        _row_lists(4, st.integers(min_value=-5, max_value=5).filter(bool), 5),
        st.randoms(),
    )
    def test_insertion_order_invariance_q(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        a, b = space(Q, *rows), space(Q, *shuffled)
        assert a == b and b == a
        _assert_semi_echelon(a)
        _assert_semi_echelon(b)

    @settings(deadline=None, max_examples=80)
    @given(
        _row_lists(3, st.integers(min_value=1, max_value=2), 3),
        _row_lists(3, st.integers(min_value=1, max_value=2), 3),
    )
    def test_equality_against_enumeration(self, rows_a, rows_b):
        labels = list(range(4))
        a, b = space(F3, *rows_a), space(F3, *rows_b)
        total = space(F3, *rows_b, *rows_a)
        va, vb = _all_vectors(a, labels, 3), _all_vectors(b, labels, 3)
        assert (a == b) == (b == a) == (va == vb)
        assert (a != b) == (va != vb)
        # a equals a + b exactly when b lies inside a
        assert (a == total) == (total == a) == (vb <= va)

    def test_q_rows_stay_primitive(self):
        s = space(Q, {3: Fraction(-2, 3), 1: Fraction(4, 5)}, {3: 7, 2: 1})
        assert s.rows[3] == {3: 5, 1: -6}
        _assert_semi_echelon(s)

    def test_rows_keyed_by_largest_label(self):
        s = space(F3, {0: 1, 1: 1, 2: 1}, {1: 1, 2: 2}, {2: 1})
        assert sorted(s.rows) == [0, 1, 2]
        _assert_semi_echelon(s)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=2),
            min_size=1,
            max_size=3,
        ),
        min_size=0,
        max_size=4,
    ),
    st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=2),
            min_size=1,
            max_size=3,
        ),
        min_size=0,
        max_size=4,
    ),
)
def test_intersection_against_enumeration(rows_a, rows_b):
    labels = list(range(4))
    a = space(F3, *rows_a)
    b = space(F3, *rows_b)
    got = a.intersect(b)
    want = _all_vectors(a, labels, 3) & _all_vectors(b, labels, 3)
    assert _all_vectors(got, labels, 3) == want
    # intersection must be contained in both
    assert a.contains_space(got)
    assert b.contains_space(got)


def test_intersect_monomial_fast_path_matches_generic():
    a = Subspace.unit_space(F2, [0, 1, 3])
    b = Subspace.unit_space(F2, [1, 2, 3])
    got = a.intersect(b)
    assert got == Subspace.unit_space(F2, [1, 3])
    # mixed case exercises the generic tagged-sum route
    c = space(F2, {0: 1, 1: 1}, {3: 1})
    got2 = a.intersect(c)
    assert got2 == space(F2, {0: 1, 1: 1}, {3: 1})


def test_intersect_all():
    spaces = [
        Subspace.unit_space(F3, [0, 1, 2, 3]),
        Subspace.unit_space(F3, [1, 2, 3, 4]),
        Subspace.unit_space(F3, [2, 3, 5]),
    ]
    assert intersect_all(spaces) == Subspace.unit_space(F3, [2, 3])
    only = space(Q, {7: 1})
    assert intersect_all([only]) == only


def test_intersect_all_rejects_empty_list():
    from divclass.errors import DegenerateInput
    with pytest.raises(DegenerateInput):
        intersect_all([])


def test_spaces_over_equal_field_objects():
    # fields are compared by identity first; two distinct FieldSpec objects
    # of one field must still fall back to value equality
    a, b = FieldSpec(5), FieldSpec.parse("F5")
    assert a is not b and a == b
    ma = MonomialSpace(a, [code(1, 0), code(0, 1)])
    mb = MonomialSpace(b, [code(0, 1), code(2, 0)])
    assert ma == MonomialSpace(b, [code(0, 1), code(1, 0)])
    assert ma != mb
    assert ma.plus(mb) == MonomialSpace(a, [code(1, 0), code(0, 1), code(2, 0)])
    assert ma.plus(MonomialSpace(b, [code(1, 0)])) is ma
    assert ma.intersect(mb) == MonomialSpace(b, [code(0, 1)])
    sa = space(a, {code(1, 0): 1, code(0, 1): 2}, {code(2, 0): 1})
    sb = space(b, {code(1, 0): 3, code(0, 1): 1}, {code(2, 0): 4})
    assert sa == sb and sb == sa
    sc = space(b, {code(0, 1): 1})
    assert sa.plus(sc) == MonomialSpace(a, [code(1, 0), code(0, 1), code(2, 0)])
    assert sa.intersect(sc).dim == 0
    meet = sa.intersect(space(b, {code(2, 0): 2}, {code(0, 1): 1}))
    assert meet == MonomialSpace(b, [code(2, 0)])
    # a general space against a monomial one over the other object
    assert sa.intersect(mb) == MonomialSpace(a, [code(2, 0)])
    assert mb.plus(sa) == MonomialSpace(b, [code(1, 0), code(0, 1), code(2, 0)])
    assert MonomialSpace(b, [code(2, 0)]).intersect(sa) == MonomialSpace(a, [code(2, 0)])


def test_spaces_sharing_one_key_set():
    # pieces that land on one cached key set share the frozenset itself;
    # `==` and `plus` take that identity first, and the field still decides
    keys = frozenset([code(1, 0), code(0, 1)])
    a, b = FieldSpec(5), FieldSpec.parse("F5")
    ma = MonomialSpace(a, keys)
    assert ma.keys is keys
    for other in (MonomialSpace(a, keys), MonomialSpace(b, keys)):
        assert other.keys is keys
        assert ma == other and other == ma
        assert not ma != other
        assert ma.plus(other) is ma and other.plus(ma) is other
    for field in (F3, Q):
        other = MonomialSpace(field, keys)
        assert ma != other and other != ma
        with pytest.raises(DegenerateInput):
            ma.plus(other)
    empty = frozenset()
    assert MonomialSpace(F2, empty) == MonomialSpace(F2, empty)
    assert MonomialSpace(F2, empty) != MonomialSpace(F3, empty)


def test_mismatched_fields_rejected():
    from divclass.errors import DegenerateInput
    with pytest.raises(DegenerateInput):
        space(F2, {0: 1}).intersect(space(F3, {0: 1}))


class TestMixedRepresentations:
    """A MonomialSpace against the same span built by generic insertion."""

    def test_equality_both_orders_q(self):
        # the rows reduce to the unit rows of (1, 0) and (0, 1)
        generic = space(Q, {code(1, 0): Fraction(2, 3), code(0, 1): 1}, {code(0, 1): -4})
        mono = MonomialSpace(Q, [code(0, 1), code(1, 0)])
        assert generic == mono and mono == generic
        assert not generic != mono and not mono != generic
        other = MonomialSpace(Q, [code(1, 0)])
        assert generic != other and other != generic

    def test_equality_both_orders_fp(self):
        generic = space(F5, {2: 3}, {4: 2, 2: 1})
        assert generic == MonomialSpace(F5, [2, 4])
        assert MonomialSpace(F5, [2, 4]) == generic
        # same pivots, but the span is not a coordinate subspace
        plane = space(F5, {4: 1, 2: 1}, {3: 1})
        assert plane != MonomialSpace(F5, [3, 4])
        assert MonomialSpace(F5, [3, 4]) != plane

    def test_equality_needs_the_same_field(self):
        assert MonomialSpace(F2, [0]) != space(F3, {0: 1})
        assert space(F3, {0: 1}) != MonomialSpace(F2, [0])
        assert MonomialSpace(F2, [0]) != MonomialSpace(F3, [0])
        assert MonomialSpace(F2) == Subspace(F2)

    def test_intersect_and_contains_q(self):
        mono = MonomialSpace(Q, [code(1, 0), code(0, 1)])
        generic = space(Q, {code(1, 0): 3}, {code(0, 1): Fraction(1, 2)})
        w = space(Q, {code(1, 0): 1, code(0, 1): 1}, {code(2, 0): 3})
        want = space(Q, {code(1, 0): 2, code(0, 1): 2})
        assert w.intersect(generic) == want
        assert mono.intersect(w) == want
        assert w.intersect(mono) == want
        assert mono.contains_space(want) and generic.contains_space(want)
        assert not mono.contains_space(w) and not generic.contains_space(w)
        assert w.contains_space(MonomialSpace(Q, [code(2, 0)]))
        assert not w.contains_space(mono) and not w.contains_space(generic)
        assert mono.contains_space(generic) and generic.contains_space(mono)

    def test_mismatched_fields_rejected(self):
        from divclass.errors import DegenerateInput
        for a, b in [
            (MonomialSpace(F2, [0]), MonomialSpace(F3, [0])),
            (MonomialSpace(F2, [0]), space(F3, {0: 1, 1: 1})),
            (space(F3, {0: 1, 1: 1}), MonomialSpace(F2, [0])),
        ]:
            with pytest.raises(DegenerateInput):
                a.intersect(b)

    @settings(deadline=None, max_examples=60)
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=2),
            max_size=4,
        ),
        st.lists(
            st.dictionaries(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=2),
                min_size=1,
                max_size=3,
            ),
            max_size=4,
        ),
    )
    def test_against_enumeration_fp(self, units, rows):
        labels = list(range(4))
        mono = MonomialSpace(F3, units)
        generic = space(F3, *({k: c} for k, c in units.items()))
        w = space(F3, *rows)
        spans = {"mono": mono, "generic": generic, "w": w}
        vectors = {k: _all_vectors(v, labels, 3) for k, v in spans.items()}
        assert mono == generic and generic == mono
        assert (mono == w) == (w == mono) == (vectors["mono"] == vectors["w"])
        want = vectors["mono"] & vectors["w"]
        for got in (
            mono.intersect(w),
            w.intersect(mono),
            generic.intersect(w),
            w.intersect(generic),
        ):
            assert _all_vectors(got, labels, 3) == want
        assert mono.intersect(w) == w.intersect(generic)
        for a, b in itertools.permutations(spans, 2):
            assert spans[a].contains_space(spans[b]) == (vectors[b] <= vectors[a])


def _snapshot(s):
    """The stored rows of either kind, copied, to check that s is unchanged."""
    return {piv: dict(row) for piv, row in s.rows.items()}


def _inserted(field, *spaces):
    """The reference sum: every row of every space inserted into one space."""
    out = Subspace(field)
    for s in spaces:
        for row in s.rows.values():
            out.insert(row)
    return out


class TestPlus:
    """`plus` is the span sum, and leaves both operands as they were."""

    def test_monomial_plus_monomial_is_the_union(self):
        a, b = MonomialSpace(F5, [0, 2]), MonomialSpace(F5, [2, 3])
        got = a.plus(b)
        assert type(got) is MonomialSpace and got.keys == {0, 2, 3}
        assert a.keys == {0, 2} and b.keys == {2, 3}
        assert got == _inserted(F5, a, b)

    @pytest.mark.parametrize("field", [Q, F5])
    def test_mixed_operands(self, field):
        mono = MonomialSpace(field, [code(1, 0), code(0, 2)])
        generic = space(field, {code(1, 0): 2, code(0, 1): 3}, {code(0, 2): 1, code(2, 0): 4})
        before = (mono.keys, _snapshot(generic))
        want = _inserted(field, mono, generic)
        for got in (mono.plus(generic), generic.plus(mono)):
            _assert_semi_echelon(got)
            assert got == want and got.dim == 4
        assert (mono.keys, _snapshot(generic)) == before

    @settings(deadline=None, max_examples=60)
    @given(_row_lists(5, st.integers(min_value=-4, max_value=4).filter(bool), 4),
           _row_lists(5, st.integers(min_value=-4, max_value=4).filter(bool), 4))
    def test_general_rows_q(self, rows_a, rows_b):
        a, b = space(Q, *rows_a), space(Q, *rows_b)
        before = (_snapshot(a), _snapshot(b))
        got = a.plus(b)
        _assert_semi_echelon(got)
        assert got == _inserted(Q, a, b) == b.plus(a)
        assert got.contains_space(a) and got.contains_space(b)
        assert (_snapshot(a), _snapshot(b)) == before

    @settings(deadline=None, max_examples=60)
    @given(_row_lists(3, st.integers(min_value=1, max_value=2), 4),
           _row_lists(3, st.integers(min_value=1, max_value=2), 4))
    def test_general_rows_fp_against_enumeration(self, rows_a, rows_b):
        labels = list(range(4))
        a, b = space(F3, *rows_a), space(F3, *rows_b)
        before = (_snapshot(a), _snapshot(b))
        got = a.plus(b)
        _assert_semi_echelon(got)
        assert got == _inserted(F3, a, b)
        sums = {
            tuple((x + y) % 3 for x, y in zip(u, v))
            for u in _all_vectors(a, labels, 3)
            for v in _all_vectors(b, labels, 3)
        }
        assert _all_vectors(got, labels, 3) == sums
        assert (_snapshot(a), _snapshot(b)) == before

    def test_later_inserts_leave_the_operands_alone(self):
        a = space(F5, {0: 1, 1: 1})
        b = space(F5, {1: 1})
        got = a.plus(b)
        got.insert({2: 1})
        assert a.dim == 1 and b.dim == 1 and got.dim == 3

    def test_mismatched_fields_rejected(self):
        from divclass.errors import DegenerateInput
        for a, b in [
            (MonomialSpace(F2, [0]), MonomialSpace(F3, [0])),
            (MonomialSpace(F2, [0]), space(F3, {0: 1, 1: 1})),
            (space(F3, {0: 1, 1: 1}), MonomialSpace(F2, [0])),
            (space(F2, {0: 1}), space(F3, {0: 1})),
        ]:
            with pytest.raises(DegenerateInput):
                a.plus(b)


# Rows over a few two-part labels: Fraction and integer coefficients over Q,
# integers that may vanish mod 7 over F_7, and a flag per row that makes its
# leading coefficient negative.
_LABELS = st.tuples(st.integers(0, 2), st.integers(0, 1)).map(encode_monomial)
_Q_COEFFS = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


def _signed_rows(coeffs, max_rows=5):
    return st.lists(
        st.tuples(
            st.dictionaries(_LABELS, coeffs, min_size=1, max_size=4), st.booleans()
        ),
        max_size=max_rows,
    ).map(lambda drawn: [_negate_lead(row) if flag else row for row, flag in drawn])


def _negate_lead(row):
    lead = max(row)
    return {**row, lead: -abs(row[lead]) or -1}


def _rows_for(field, rows):
    """Over F_7, each Fraction coefficient is replaced by its numerator."""
    if not field.char:
        return rows
    return [{k: c if type(c) is int else c.numerator for k, c in row.items()} for row in rows]


def _rank(rows):
    """Rank of rational rows, by plain Gaussian elimination over Fraction."""
    labels = sorted({k for row in rows for k in row})
    matrix = [[Fraction(row.get(k, 0)) for k in labels] for row in rows]
    rank = 0
    for col in range(len(labels)):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i in range(len(matrix)):
            if i != rank and matrix[i][col]:
                f = matrix[i][col] / matrix[rank][col]
                matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from([Q, F7]),
    _signed_rows(_Q_COEFFS),
    _signed_rows(_Q_COEFFS),
    st.sets(_LABELS, max_size=4),
    _signed_rows(_Q_COEFFS, max_rows=2),
)
def test_operations_leave_their_operands_alone(field, rows_a, rows_b, keys, extra):
    # rows are reduced in place, so every operation must work on copies:
    # `plus` shares row dicts with an operand, and a later insert into the
    # sum reduces against those shared rows
    rows_a, rows_b, extra = (_rows_for(field, r) for r in (rows_a, rows_b, extra))
    a, b = space(field, *rows_a), space(field, *rows_b)
    mono = MonomialSpace(field, keys)
    operands = (a, b, mono)
    before = copy.deepcopy(([s.rows for s in operands], mono.keys, extra))
    for x, y in itertools.permutations(operands, 2):
        total = x.plus(y)
        if isinstance(total, Subspace):
            for row in extra:
                total.insert(row)
                total.contains(row)
            _assert_semi_echelon(total)
        meet = x.intersect(y)
        if isinstance(meet, Subspace):
            _assert_semi_echelon(meet)
        assert (x == y) == (y == x)
        x.contains_space(y)
    # the translates of `shifted` are kept for the next piece on the same
    # key, so operations on a piece must leave them alone too
    shifts = frozenset([code(0, 0), code(1, 2)])
    for row in extra:
        prepared = Subspace.prepared_row(field, row)
        translates = Subspace.shifted(field, prepared, shifts)
        kept = copy.deepcopy(translates.rows)
        for other in (a, mono):
            translates.plus(other)
            translates.intersect(other)
        assert Subspace.shifted(field, prepared, shifts).rows == kept
    assert ([s.rows for s in operands], mono.keys, extra) == before
    _assert_semi_echelon(a)
    _assert_semi_echelon(b)


@settings(deadline=None, max_examples=80)
@given(_signed_rows(_Q_COEFFS), _signed_rows(_Q_COEFFS))
def test_dimension_formula_over_q(rows_a, rows_b):
    # dim A + dim B = dim(A + B) + dim(A meet B), every dimension against a
    # rank computed here; six labels and up to five rows a side force
    # nonzero intersections
    a, b = space(Q, *rows_a), space(Q, *rows_b)
    rank_a, rank_b, rank_sum = _rank(rows_a), _rank(rows_b), _rank(rows_a + rows_b)
    assert (a.dim, b.dim) == (rank_a, rank_b)
    for total in (a.plus(b), b.plus(a)):
        assert total.dim == rank_sum
        assert total.contains_space(a) and total.contains_space(b)
    for meet in (a.intersect(b), b.intersect(a)):
        _assert_semi_echelon(meet)
        assert meet.dim == rank_a + rank_b - rank_sum
        assert a.contains_space(meet) and b.contains_space(meet)
