"""Sparse exact row spaces: semi-echelon form, equality and intersections.

The package compares graded components with `==`, which decides span
equality by dimension plus containment; the stored rows themselves depend
on insertion order.  Most of this file attacks that equality from different
directions: permuted insertion orders, redundant rows, brute-force span
enumeration over small prime fields.
"""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from divclass.fields import FieldSpec
from divclass.linalg import MonomialSpace, Subspace, intersect_all

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)


def space(field, *rows):
    return Subspace(field, [dict(r) for r in rows])


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
    keys = [(0, 3), (2, 1), (0, 3), (4, 0)]
    fast = Subspace.unit_space(F5, keys)
    slow = space(F5, *({k: 1} for k in keys))
    assert fast.rows == slow.rows
    assert fast.dim == 3
    mixed = space(F5, {(2, 1): 3}, {(4, 0): 2, (2, 1): 1})
    assert mixed == Subspace.unit_space(F5, [(2, 1), (4, 0)])


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
    """Rows are keyed by their largest label; Q rows are primitive integers."""
    for piv, row in s.rows.items():
        assert piv == max(row)
        if s.field.char == 0:
            assert all(type(c) is int for c in row.values())
            assert row[piv] > 0
            assert gcd(*row.values()) == 1


class TestEquality:
    """`==` is span equality, whatever rows were inserted and in what order."""

    def test_regression_interior_pivot(self):
        # two presentations of the same plane; the second row of the first
        # presentation contains the other's pivot as an interior label
        a = space(Q, {(4, 0): 1, (3, 1): 1}, {(3, 1): 1, (0, 4): 1})
        b = space(Q, {(4, 0): 1, (0, 4): -1}, {(3, 1): 1, (0, 4): 1})
        assert a == b and b == a
        assert a != space(Q, {(4, 0): 1}, {(3, 1): 1})

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


def test_mismatched_fields_rejected():
    from divclass.errors import DegenerateInput
    with pytest.raises(DegenerateInput):
        space(F2, {0: 1}).intersect(space(F3, {0: 1}))


class TestMixedRepresentations:
    """A MonomialSpace against the same span built by generic insertion."""

    def test_equality_both_orders_q(self):
        # the rows reduce to the unit rows of (1, 0) and (0, 1)
        generic = space(Q, {(1, 0): Fraction(2, 3), (0, 1): 1}, {(0, 1): -4})
        mono = MonomialSpace(Q, [(0, 1), (1, 0)])
        assert generic == mono and mono == generic
        assert not generic != mono and not mono != generic
        other = MonomialSpace(Q, [(1, 0)])
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
        mono = MonomialSpace(Q, [(1, 0), (0, 1)])
        generic = space(Q, {(1, 0): 3}, {(0, 1): Fraction(1, 2)})
        w = space(Q, {(1, 0): 1, (0, 1): 1}, {(2, 0): 3})
        want = space(Q, {(1, 0): 2, (0, 1): 2})
        assert w.intersect(generic) == want
        assert mono.intersect(w) == want
        assert w.intersect(mono) == want
        assert mono.contains_space(want) and generic.contains_space(want)
        assert not mono.contains_space(w) and not generic.contains_space(w)
        assert w.contains_space(MonomialSpace(Q, [(2, 0)]))
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
