"""Weighted polynomials: arithmetic, homogeneity, monomial counting,
factor counting for 1 + t^c, and factorization validation."""

import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from divclass.errors import (
    DegenerateInput,
    InhomogeneousFactor,
    InhomogeneousPolynomial,
    NotIrreducible,
    ProductMismatch,
    RepeatedFactor,
    SearchSpaceTooLarge,
    ZeroPolynomial,
)
from divclass import univariate, wpoly
from divclass.fields import FieldSpec
from divclass.oracle import exhaustive_fp_factor_count
from divclass.wpoly import (
    RepeatedFactorsWarning,
    WPolynomial,
    WeightedRing,
    binary_weighted_reduction,
    count_factors_one_plus_tc,
    count_monomials_of_degree,
    encode_monomial,
    enumerate_monomials_of_degree,
    normalize_weights,
    shifted_monomials,
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


def test_constructor_reduces_a_fraction_over_fp():
    # 1/2 is 3 in F5, so the constructor's polynomial is 3*x1 + x2
    R = ring(1, 1, field=FieldSpec.prime(5))
    h = WPolynomial(R, {(1, 0): Fraction(1, 2), (0, 1): 1})
    assert h.terms == {(1, 0): 3, (0, 1): 1}
    assert h == WPolynomial(R, {(1, 0): 3, (0, 1): 1})
    assert WPolynomial(R, {(1, 0): Fraction(-7, 3)}).terms == {(1, 0): 1}
    assert WPolynomial(R, {(1, 0): Fraction(10, 3)}).is_zero


def test_constructor_refuses_a_denominator_divisible_by_p():
    R = ring(1, 1, field=FieldSpec.prime(5))
    with pytest.raises(DegenerateInput, match="divisible by 5"):
        WPolynomial(R, {(1, 0): Fraction(1, 10)})


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(5)])
@pytest.mark.parametrize("c", [0.5, 1j, "1", None])
def test_constructor_refuses_a_coefficient_that_is_not_exact(field, c):
    with pytest.raises(DegenerateInput, match="not an integer or a fraction"):
        WPolynomial(ring(1, 1, field=field), {(1, 0): c})


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

    def test_pow_multiplies_a_sum_in_k_minus_one_times(self, monkeypatch):
        R = ring(1, 1)
        x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
        calls = []
        mul_terms = wpoly.mul_terms

        def counting_mul_terms(a, b, field):
            calls.append(1)
            return mul_terms(a, b, field)

        monkeypatch.setattr(wpoly, "mul_terms", counting_mul_terms)
        for k in range(20):
            calls.clear()
            # a one-term power scales its exponents and takes no product
            assert (x1.scale(Q.from_int(3)) ** k).terms == {(k, 0): 3**k}
            assert not calls, k
            # any other base is multiplied in k - 1 times; f**1 is f
            (x1 + x2) ** k
            assert len(calls) == max(k - 1, 0), k

    @pytest.mark.parametrize("field", [Q, FieldSpec.prime(5)])
    def test_pow_matches_repeated_products(self, field):
        R = ring(2, 3, field=field)
        x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
        three = field.from_int(3)
        for f in (x1 * x2, x1**3 + x2**2, (x1**3).scale(three) - x2**2):
            product = WPolynomial.one(R)
            for k in range(7):
                assert f**k == product, (f, k)
                product = product * f

    def test_scale(self):
        R = ring(2)
        x1 = WPolynomial.variable(R, 0)
        assert x1.scale(Q.from_int(0)).is_zero

    def test_with_ring_checks_the_variable_count(self):
        x1 = WPolynomial.variable(ring(1, 1), 0)
        with pytest.raises(DegenerateInput):
            x1.with_ring(ring(1, 1, 1))

    def test_mixed_rings_rejected(self):
        a = WPolynomial.variable(ring(1), 0)
        b = WPolynomial.variable(ring(2), 0)
        with pytest.raises(DegenerateInput):
            a + b

    def test_char_p_coefficients_wrap(self):
        R = ring(1, field=FieldSpec.prime(3))
        x1 = WPolynomial.variable(R, 0)
        assert (x1 + x1 + x1).is_zero


_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3))
_COEFFS = {
    0: st.one_of(
        st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=6)
    ),
    7: st.integers(-20, 20),
}


@st.composite
def _term_dicts(draw):
    """(field, a, b, c): two raw term dicts over Q or F_7 and a scalar; b
    may cancel some terms of a, and a's leading coefficient may be made
    negative."""
    field = draw(st.sampled_from([Q, FieldSpec.prime(7)]))
    coeffs = _COEFFS[field.char]
    a = draw(st.dictionaries(_EXPONENTS, coeffs, max_size=5))
    b = draw(st.dictionaries(_EXPONENTS, coeffs, max_size=4))
    if a and draw(st.booleans()):
        lead = max(a)
        a[lead] = -abs(a[lead]) or -1
    for e in draw(st.sets(st.sampled_from(sorted(a)))) if a else ():
        b[e] = -a[e]
    return field, a, b, draw(coeffs)


def _raw_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = (e1[0] + e2[0], e1[1] + e2[1])
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _assert_validated(got: WPolynomial, ring_: WeightedRing, raw: dict):
    # the result equals the validating constructor on the raw terms, with
    # the same coefficient types (int, not an integral Fraction)
    want = WPolynomial(ring_, raw)
    assert got.ring == want.ring
    assert got.terms == want.terms
    assert {e: type(c) for e, c in got.terms.items()} == {
        e: type(c) for e, c in want.terms.items()
    }


@settings(deadline=None)
@given(_term_dicts())
def test_arithmetic_equals_the_validating_constructor(data):
    # sums, products, powers, negation, scale and with_ring skip the checks
    # of `WPolynomial(ring, terms)`; their terms must be what those checks
    # would make of plain arithmetic on the raw terms, cancellation included
    field, a, b, c = data
    R = ring(1, 1, field=field)
    A, B = WPolynomial(R, a), WPolynomial(R, b)
    summed = dict(a)
    for e, v in b.items():
        summed[e] = summed.get(e, 0) + v
    _assert_validated(A + B, R, summed)
    difference = dict(a)
    for e, v in b.items():
        difference[e] = difference.get(e, 0) - v
    _assert_validated(A - B, R, difference)
    _assert_validated(A - A, R, {})
    _assert_validated(A * B, R, _raw_product(a, b))
    _assert_validated(-A, R, {e: -v for e, v in a.items()})
    _assert_validated(A.scale(c), R, {e: v * c for e, v in a.items()})
    power = {(0, 0): 1}
    for k in range(6):
        if k in (0, 1, 2, 5):
            _assert_validated(A**k, R, power)
        power = _raw_product(power, a)
    R2 = ring(2, 3, field=field)
    _assert_validated(A.with_ring(R2), R2, a)


def test_weighted_degree():
    R = ring(5, 3)
    x1, x2 = WPolynomial.variable(R, 0), WPolynomial.variable(R, 1)
    g = x1**3 + x2**5
    assert weighted_degree(g) == 15
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


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(min_value=1, max_value=3), min_size=d, max_size=d),
            st.lists(st.integers(min_value=0, max_value=3), min_size=d, max_size=d),
        )
    ),
    st.integers(min_value=-1, max_value=8),
)
def test_shifted_monomials_equal_a_naive_shift(weights_offset, v):
    # the offset draws include zero, which returns the enumeration as a set
    weights, offset = weights_offset
    R = ring(*weights)
    got = shifted_monomials(R.weights, v, encode_monomial(offset))
    naive = {
        encode_monomial(tuple(a + b for a, b in zip(mu, offset)))
        for mu in enumerate_monomials_of_degree(R, v)
    }
    assert type(got) is frozenset
    assert got == naive
    assert shifted_monomials(R.weights, v, 0) == set(
        map(encode_monomial, enumerate_monomials_of_degree(R, v))
    )


def _naive_vectors(weights, v):
    """Every exponent of the first variable, from v // c down, then the rest."""
    c, *rest = weights
    if not rest:
        return [(v // c,)] if v % c == 0 else []
    return [(a,) + tail for a in range(v // c, -1, -1) for tail in _naive_vectors(rest, v - a * c)]


def _naive_codes(weights, v):
    """The codes of `_naive_vectors`, in its order."""
    return [encode_monomial(e) for e in _naive_vectors(weights, v)]


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=60),
)
def test_vectors_equal_a_naive_recursion(weights, v):
    # the last two weights step through one residue class; the output and
    # its order (lexicographically descending) are those of trying every a
    assert wpoly._codes(tuple(weights), v) == _naive_codes(weights, v)


def test_two_weight_vectors_equal_a_naive_recursion_exhaustively():
    # every pair of weights 1-9, with and without a common factor, and the
    # uneven pair (1, 700) on both sides of a multiple of 700
    for c, c2 in itertools.product(range(1, 10), repeat=2):
        for v in range(40):
            assert wpoly._codes((c, c2), v) == _naive_codes((c, c2), v), (c, c2, v)
    for v in (0, 699, 700, 2099, 2100):
        assert wpoly._codes((1, 700), v) == _naive_codes((1, 700), v)
        assert wpoly._codes((700, 1), v) == _naive_codes((700, 1), v)


def test_a_walk_below_the_cache_size_keeps_its_enumerations(fresh_caches):
    # only whole enumerations are cached, one entry per degree, so a walk
    # over 600 degrees, repeated, builds each enumeration once
    R = ring(1, 1)
    for _ in range(3):
        for v in range(600):
            enumerate_monomials_of_degree(R, v)
    assert wpoly._enumerate.cache_info().misses == 600


def test_degree_caches_stay_bounded():
    R = ring(1)
    for v in range(wpoly._CACHE_SIZE + 10):
        assert enumerate_monomials_of_degree(R, v) == ((v,),)
        assert count_monomials_of_degree(R, v) == 1
        assert shifted_monomials(R.weights, v, encode_monomial((1,))) == {
            encode_monomial((v + 1,))
        }
    for cached in (wpoly._enumerate, wpoly._denumerant_table):
        assert cached.cache_info().maxsize == wpoly._CACHE_SIZE
        assert cached.cache_info().currsize <= wpoly._CACHE_SIZE
    # each translate cache entry keeps a whole key set alive, so it is small
    assert wpoly.SHIFT_CACHE_SIZE == 32
    assert shifted_monomials.cache_info().maxsize == wpoly.SHIFT_CACHE_SIZE
    assert shifted_monomials.cache_info().currsize <= wpoly.SHIFT_CACHE_SIZE


def test_shifted_monomials_share_one_set_per_key():
    # the pieces of one key hold one object; a different key does not
    R = ring(1, 2)
    x1, x2 = encode_monomial((1, 0)), encode_monomial((0, 1))
    got = shifted_monomials((1, 2), 6, x1)
    assert shifted_monomials((1, 2), 6, x1) is got
    assert shifted_monomials((1, 2), 6, x2) != got
    assert shifted_monomials((1, 2), 6, 0) == set(
        map(encode_monomial, enumerate_monomials_of_degree(R, 6))
    )


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
    assert form.splits_over_closure


def test_validate_attested_for_many_variable_factor():
    R = ring(1, 1, 1)
    xs = _vars(R)
    cubic = xs[0] ** 3 + xs[1] ** 3 + xs[2] ** 3
    form = validate_factorization([cubic], R, 2)
    assert form.exactness == "attested"
    assert ATTESTED_NOTE in form.warnings


ATTESTED_NOTE = "irreducibility of factors in three or more variables is attested, not verified"


def test_attested_note_names_only_factors_in_three_or_more_variables():
    # n = 1 tolerates an uncertified factor in one or two variables, which
    # leaves the result attested but gives no three-variable note; a factor
    # in three variables beside it still does
    R = ring(1, 1, 1)
    x1, x2, x3 = _vars(R)
    cubic = x1**3 + x2**3 + x3**3
    for factors in ([x1, x2 * x2], [x1 * x1 - x2 * x2], [x2 * x2, x1 * x1 - x3 * x3]):
        form = validate_factorization(factors, R, 1)
        assert form.exactness == "attested"
        assert any("tolerated because n = 1" in note for note in form.warnings)
        assert ATTESTED_NOTE not in form.warnings
    for n, factors in ((1, [x2 * x2, cubic]), (2, [x1, cubic])):
        form = validate_factorization(factors, R, n)
        assert form.exactness == "attested"
        assert form.warnings.count(ATTESTED_NOTE) == 1


def test_certify_factor_rejections():
    # a square is rejected as a repeated factor for n >= 2 and as reducible
    # for n = 1; a squarefree reducible factor is reducible for every n
    for field in (Q, FieldSpec.parse("F7")):
        R = ring(1, 1, field=field)
        x1, x2 = _vars(R)
        square = (x1 + x2) * (x1 + x2)
        with pytest.raises(RepeatedFactor):
            wpoly._certify_factor(square, 2)
        with pytest.raises(NotIrreducible):
            wpoly._certify_factor(square, 1)
        for n in (1, 2):
            with pytest.raises(NotIrreducible):
                wpoly._certify_factor(x1 * x1 - x2 * x2, n)
            assert wpoly._certify_factor(x1 * x1 + x2 * x2, n) == (True, 1)
    R = ring(1, 1, field=Q.closure())
    x1, x2 = _vars(R)
    assert wpoly._certify_factor(x1 * x1 + x2 * x2, 2) == (True, 2)
    with pytest.raises(RepeatedFactor):
        wpoly._certify_factor((x1 + x2) * (x1 + x2), 2)
    assert wpoly._certify_factor((x1 + x2) * (x1 + x2), 1) == (True, 1)


def test_certification_degree_is_bounded_before_certification(monkeypatch):
    # the reduction refuses on its degree and term count alone: past the
    # limit nothing is factored, and a product of powers (each within the
    # parser's exponent cap) is caught too.  The dense polynomial of the
    # univariate budget test, as a binary form, is admitted and certified
    rng = random.Random(60)
    f = [rng.randint(-20, 20) for _ in range(60)] + [rng.choice([-20, 7, 20])]
    R = ring(1, 1)
    h = WPolynomial(R, {(k, 60 - k): c for k, c in enumerate(f)})
    assert validate_factorization([h], R, 7).exactness == "exact"

    def unreachable(*args):
        raise AssertionError("a factor past the work bound was certified")

    for name in ("q_irreducible", "fp_irreducible", "q_squarefree_degree", "fp_squarefree_degree"):
        monkeypatch.setattr(univariate, name, unreachable)
    top = wpoly.MAX_CERTIFICATION_WORK
    # over F_p the estimate is scaled by (bits - 4) / 4 above 8 bits only,
    # and not over the closure, which runs no Ben-Or test
    big = FieldSpec.prime(3317044064679887385961813)  # 82 bits
    for field in (Q, FieldSpec.prime(7), FieldSpec.prime(251), big.closure()):
        R = ring(1, 1, field=field)
        # a binomial reduction costs degree^2, admitted up to degree 500
        assert binary_weighted_reduction(WPolynomial(R, {(500, 0): 1, (0, 500): 3}))[1] == 500
        for k in (501, 3000):
            h = WPolynomial(R, {(k, 0): 1, (0, k): 3})
            with pytest.raises(SearchSpaceTooLarge, match=f"degree {k} with 2 terms"):
                validate_factorization([h], R, 7)
        # any longer one costs degree^3, admitted up to degree 62
        for k, terms in ((62, 3), (62, 63)):
            h = WPolynomial(R, {(e, k - e): 1 + e % 3 for e in range(terms - 1)} | {(k, 0): 1})
            assert binary_weighted_reduction(h)[1] == k and k**3 <= top < 63**3
        for k in (63, 500):
            h = WPolynomial(R, {(k, 0): 1, (1, k - 1): 2, (0, k): 3})
            with pytest.raises(SearchSpaceTooLarge, match=f"degree {k} with 3 terms"):
                validate_factorization([h], R, 7)
    # over the 82-bit prime: binomials up to degree 113, others up to 23
    R = ring(1, 1, field=big)
    for k, terms in ((113, 2), (114, 2), (23, 3), (24, 3), (23, 24), (24, 25), (62, 63)):
        h = WPolynomial(R, {(e, k - e): 1 + e % 3 for e in range(terms - 1)} | {(k, 0): 1})
        if k in (113, 23):
            assert binary_weighted_reduction(h)[1] == k
        else:
            with pytest.raises(SearchSpaceTooLarge, match=f"degree {k} with {terms} terms"):
                validate_factorization([h], R, 7)
    # weights (1, 700) reduce x1^(700 k) + x2^k to degree k, not 700 k
    R = ring(1, 700)
    assert binary_weighted_reduction(WPolynomial(R, {(700 * 500, 0): 1, (0, 500): 3}))[1] == 500
    with pytest.raises(SearchSpaceTooLarge, match="degree 501 with 2 terms"):
        binary_weighted_reduction(WPolynomial(R, {(700 * 501, 0): 1, (0, 501): 3}))


def test_certify_factor_takes_one_squarefree_degree_over_q(monkeypatch):
    # an irreducible factor is squarefree: the gcd(f, f') inside q_irreducible
    # is the only one taken
    calls = []
    real = univariate.int_gcd_degree

    def spy(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(univariate, "int_gcd_degree", spy)
    R = ring(1, 1)
    x1, x2 = _vars(R)
    assert wpoly._certify_factor(x1 * x1 + x2 * x2, 3) == (True, 1)
    assert calls == [([1, 0, 1], [0, 2])]
