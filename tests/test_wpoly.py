"""Weighted polynomials: arithmetic, homogeneity, monomial counting,
factor counting for 1 + t^c, and factorization validation."""

import itertools
import warnings

import pytest
from hypothesis import given, strategies as st

from divclass.errors import (
    DegenerateInput,
    InhomogeneousFactor,
    InhomogeneousPolynomial,
    NotIrreducible,
    ProductMismatch,
    RepeatedFactor,
    ZeroPolynomial,
)
from divclass import wpoly
from divclass.fields import FieldSpec
from divclass.oracle import exhaustive_fp_factor_count
from divclass.wpoly import (
    RepeatedFactorsWarning,
    WPolynomial,
    WeightedRing,
    binary_weighted_reduction,
    count_factors_one_plus_tc,
    count_monomials_of_degree,
    enumerate_monomials_of_degree,
    is_homogeneous,
    normalize_weights,
    validate_factorization,
    weighted_degree,
)

Q = FieldSpec.rationals()


def ring(*weights, field=Q):
    names = tuple(f"x{i + 1}" for i in range(len(weights)))
    return WeightedRing(names, tuple(weights), field)


def test_weighted_ring_validation():
    with pytest.raises(DegenerateInput):
        WeightedRing((), (), Q)
    with pytest.raises(DegenerateInput):
        WeightedRing(("x", "x"), (1, 1), Q)
    with pytest.raises(DegenerateInput):
        WeightedRing(("x", "y"), (1, 0), Q)
    with pytest.raises(DegenerateInput):
        WeightedRing(("x",), (1, 2), Q)


def test_variable_index():
    R = ring(1, 2, 3)
    assert R.variable_index("x2") == 1
    with pytest.raises(DegenerateInput):
        R.variable_index("y")


class TestArithmetic:
    def test_add_cancels(self):
        R = ring(1, 1)
        x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
        assert (x1 + x2 - x1 - x2).is_zero
        assert x1 + WPolynomial.zero(R) == x1

    def test_product_expands(self):
        R = ring(1, 1)
        x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
        got = (x1 - x2) * (x1 + x2)
        assert got == x1 * x1 - x2 * x2

    def test_pow(self):
        R = ring(1, 1)
        x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
        cube = (x1 + x2) ** 3
        assert cube.terms[(2, 1)] == Q.from_int(3)
        assert cube == (x1 + x2) * (x1 + x2) * (x1 + x2)
        assert (x1**0) == WPolynomial.one(R)

    def test_scale(self):
        R = ring(2)
        x1 = WPolynomial.variable(R, 0)
        assert x1.scale(Q.from_int(0)).is_zero

    def test_mixed_rings_rejected(self):
        a = WPolynomial.variable(ring(1), 0)
        b = WPolynomial.variable(ring(2), 0)
        with pytest.raises(DegenerateInput):
            a + b

    def test_char_p_coefficients_wrap(self):
        R = ring(1, field=FieldSpec.prime(3))
        x1 = WPolynomial.variable(R, 0)
        assert (x1 + x1 + x1).is_zero


def test_weighted_degree():
    R = ring(5, 3)
    x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
    g = x1**3 + x2**5
    assert weighted_degree(g) == 15
    assert is_homogeneous(g)
    assert not is_homogeneous(x1 + x2)
    with pytest.raises(InhomogeneousPolynomial):
        weighted_degree(x1 + x2)
    with pytest.raises(ZeroPolynomial):
        weighted_degree(WPolynomial.zero(R))


def test_normalize_weights():
    R = ring(2, 4)
    R2, degs = normalize_weights(R, (6, 8))
    assert R2.weights == (1, 2)
    assert degs == (3, 4)
    R3, _ = normalize_weights(ring(2, 3))
    assert R3.weights == (2, 3)


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=14),
)
def test_monomial_count_matches_enumeration(weights, v):
    R = ring(*weights)
    got = enumerate_monomials_of_degree(R, v)
    assert len(got) == count_monomials_of_degree(R, v)
    assert len(set(got)) == len(got)
    for exps in got:
        assert sum(e * w for e, w in zip(exps, weights)) == v
    # brute force over a bounding box
    box = itertools.product(*(range(v // w + 1) for w in weights))
    brute = {e for e in box if sum(a * w for a, w in zip(e, weights)) == v}
    assert set(got) == brute


def test_enumeration_order_is_deterministic():
    R = ring(1, 2)
    assert enumerate_monomials_of_degree(R, 4) == ((4, 0), (2, 1), (0, 2))


def test_degree_caches_stay_bounded():
    R = ring(1)
    for v in range(wpoly._CACHE_SIZE + 10):
        assert enumerate_monomials_of_degree(R, v) == ((v,),)
        assert count_monomials_of_degree(R, v) == 1
    for cached in (wpoly._enumerate, wpoly._denumerant_table):
        assert cached.cache_info().maxsize == wpoly._CACHE_SIZE
        assert cached.cache_info().currsize <= wpoly._CACHE_SIZE


# ---------------------------------------------------------------------------
# distinct factors of 1 + t^c

RATIONAL_FACTOR_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 1, 5: 2, 6: 2, 7: 2, 8: 1,
    9: 3, 10: 2, 12: 2, 15: 4, 16: 1, 45: 6, 50: 3,
}


def test_count_factors_over_q():
    for c, want in RATIONAL_FACTOR_COUNTS.items():
        assert count_factors_one_plus_tc(c, Q) == want, c


def test_count_factors_over_closed_fields():
    closed = Q.closure()
    for c in (1, 2, 3, 12):
        assert count_factors_one_plus_tc(c, closed) == c
    # char p closure counts only the distinct roots
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RepeatedFactorsWarning)
        assert count_factors_one_plus_tc(6, FieldSpec.prime(3).closure()) == 2
    assert count_factors_one_plus_tc(5, FieldSpec.prime(3).closure()) == 5


def test_count_factors_over_fp_matches_exhaustive_search():
    for c, p in [(3, 7), (4, 3), (5, 2), (6, 5), (8, 3), (12, 7), (9, 2)]:
        want = exhaustive_fp_factor_count(c, p)
        assert count_factors_one_plus_tc(c, FieldSpec.prime(p)) == want, (c, p)


def test_count_factors_warns_when_p_divides_c():
    with pytest.warns(RepeatedFactorsWarning):
        got = count_factors_one_plus_tc(6, FieldSpec.prime(3))
    # 1 + t^6 = (1 + t^2)^3 over F_3 and 1 + t^2 is irreducible there
    assert got == 1
    with pytest.warns(RepeatedFactorsWarning):
        assert count_factors_one_plus_tc(4, FieldSpec.prime(2)) == 1


def test_count_factors_rejects_bad_c():
    with pytest.raises(DegenerateInput):
        count_factors_one_plus_tc(0, Q)


# ---------------------------------------------------------------------------
# two-variable reduction

def test_binary_reduction_coprime_weights():
    R = ring(3, 2)
    x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
    coeffs, mprime = binary_weighted_reduction(x1**2 + x2**3)
    assert mprime == 1
    assert coeffs == [Q.from_int(1), Q.from_int(1)]


def test_binary_reduction_common_weight_factor():
    # weights (2, 2) reduce to (1, 1); x1^2 + x2^2 becomes 1 + s^2
    R = ring(2, 2)
    x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
    coeffs, mprime = binary_weighted_reduction(x1**2 + x2**2)
    assert (coeffs, mprime) == ([Q.from_int(1), Q.from_int(0), Q.from_int(1)], 2)


def test_binary_reduction_rejections():
    R3 = ring(1, 1, 1)
    xs = [WPolynomial.variable(R3, i) for i in range(3)]
    with pytest.raises(DegenerateInput):
        binary_weighted_reduction(xs[0] + xs[1] + xs[2])
    R = ring(1, 1)
    x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
    with pytest.raises(DegenerateInput):
        binary_weighted_reduction(x1 * x1)
    with pytest.raises(DegenerateInput):
        binary_weighted_reduction(x1 * (x1 + x2))


# ---------------------------------------------------------------------------
# factorization validation

def _vars(R):
    return [WPolynomial.variable(R, i) for i in range(R.d)]


def test_validate_exact_for_two_variable_factors():
    R = ring(1, 1)
    x1, x2 = _vars(R)
    form = validate_factorization([x1, x2, x1 + x2], R, 2)
    assert form.r == 3
    assert form.exactness == "exact"
    assert form.effective_factor_count == 3
    assert not form.splits_over_closure


def test_validate_product_check():
    R = ring(1, 1)
    x1, x2 = _vars(R)
    g = x1 * x1 - x2 * x2
    form = validate_factorization([x1 - x2, x1 + x2], R, 3, g)
    assert form.product == g
    with pytest.raises(ProductMismatch):
        validate_factorization([x1, x2], R, 3, g)


def test_validate_rejects_reducible_factor():
    R = ring(1, 1)
    x1, x2 = _vars(R)
    with pytest.raises(NotIrreducible):
        validate_factorization([x1 * x1 - x2 * x2], R, 2)


def test_validate_rejects_constant_and_zero():
    R = ring(1)
    with pytest.raises(NotIrreducible):
        validate_factorization([WPolynomial.one(R)], R, 2)
    with pytest.raises(ZeroPolynomial):
        validate_factorization([WPolynomial.zero(R)], R, 2)
    with pytest.raises(DegenerateInput):
        validate_factorization([], R, 2)


def test_validate_rejects_variable_divisible_factor():
    R = ring(1, 1)
    x1, x2 = _vars(R)
    with pytest.raises(NotIrreducible):
        validate_factorization([x1 * (x1 + x2)], R, 2)


def test_validate_variable_divisibility_tolerated_for_n_one():
    R = ring(1, 1)
    x1, x2 = _vars(R)
    form = validate_factorization([x1 * (x1 + x2)], R, 1)
    assert any("tolerated" in note for note in form.warnings)


def test_validate_rejects_proportional_factors():
    R = ring(1, 1)
    x1, x2 = _vars(R)
    with pytest.raises(RepeatedFactor):
        validate_factorization([x1 + x2, (x1 + x2).scale(Q.from_int(2))], R, 2)
    form = validate_factorization([x1, x1], R, 1)
    assert any("repeated" in note for note in form.warnings)


def test_validate_rejects_inhomogeneous_factor():
    R = ring(1, 1)
    x1, x2 = _vars(R)
    with pytest.raises(InhomogeneousFactor):
        validate_factorization([x1 + x2 * x2], R, 2)


def test_validate_closed_field_splits():
    closed = Q.closure()
    R = ring(1, 1, field=closed)
    x1, x2 = _vars(R)
    conic = x1 * x1 + x2 * x2
    form = validate_factorization([x1, conic], R, 2)
    assert form.closure_splits == (1, 2)
    assert form.effective_factor_count == 3
    assert form.splits_over_closure


def test_validate_attested_for_many_variable_factor():
    R = ring(1, 1, 1)
    xs = _vars(R)
    cubic = xs[0] ** 3 + xs[1] ** 3 + xs[2] ** 3
    form = validate_factorization([cubic], R, 2)
    assert form.exactness == "attested"
