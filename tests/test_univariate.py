"""Univariate polynomial arithmetic over Z, Q and F_p.

Coefficient lists are ascending (constant term first) throughout.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from divclass import univariate
from divclass.errors import DegenerateInput, SearchSpaceTooLarge
from divclass.exactmath import euler_phi
from divclass.univariate import (
    cyclotomic,
    fp_distinct_degree_factors,
    fp_distinct_factor_count,
    fp_divmod,
    fp_equal_degree_factors,
    fp_gcd,
    fp_irreducible,
    fp_is_squarefree,
    fp_mul,
    fp_powmod,
    fp_radical,
    fp_squarefree_degree,
    fp_strip,
    fp_trial_division_factors,
    int_exact_div,
    int_gcd_degree,
    int_mul,
    one_plus_tc,
    q_irreducible,
    q_squarefree_degree,
)


def test_one_plus_tc():
    assert one_plus_tc(1) == [1, 1]
    assert one_plus_tc(3) == [1, 0, 0, 1]
    assert len(one_plus_tc(50)) == 51


def test_int_mul_and_exact_div_round_trip():
    f = [2, 0, -1, 3]
    for g in ([1, 1], [-1, 0, 2], [3]):
        assert int_exact_div(int_mul(f, g), g) == f
    assert int_exact_div([], [1, 1]) == []


def test_int_exact_div_remainder():
    # t^2 + 1 = (t + 1)(t - 1) + 2
    assert int_exact_div([1, 0, 1], [-1, 1]) is None
    # 2t + 2 = 2 (t + 1), but 2t + 1 is not an integer multiple of t + 1
    # and t + 1 does not divide the constant 1
    assert int_exact_div([2, 2], [1, 1]) == [2]
    assert int_exact_div([1, 2], [1, 1]) is None
    assert int_exact_div([1], [1, 1]) is None


KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_known_values():
    for e, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic(e) == coeffs
    with pytest.raises(DegenerateInput):
        cyclotomic(0)


def test_cyclotomic_degree_is_totient():
    for e in range(1, 60):
        assert len(cyclotomic(e)) - 1 == euler_phi(e)


def test_cyclotomic_105_has_coefficient_minus_two():
    # smallest index where a coefficient leaves {-1, 0, 1}
    assert cyclotomic(105)[7] == -2


def test_cyclotomic_product_recovers_te_minus_one():
    from divclass.exactmath import divisors
    for e in (6, 12, 30):
        prod = [1]
        for d in divisors(e):
            prod = int_mul(prod, list(cyclotomic(d)))
        want = [0] * (e + 1)
        want[0], want[e] = -1, 1
        assert prod == want


# ---------------------------------------------------------------------------
# F_p

fp_poly = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=8)


@given(fp_poly, fp_poly)
def test_fp_divmod_round_trip(f, g):
    p = 7
    g = fp_strip(g, p)
    if not g:
        return
    q, r = fp_divmod(f, g, p)
    back = fp_strip([a + b for a, b in _pad(fp_mul(q, g, p), r)], p)
    assert back == fp_strip(f, p)
    assert len(r) < len(g)


def _pad(f, g):
    k = max(len(f), len(g))
    return zip(f + [0] * (k - len(f)), g + [0] * (k - len(g)))


def test_fp_gcd():
    p = 5
    # (t+1)^2 (t+2) and (t+1)(t+3) share exactly t+1
    f = fp_mul(fp_mul([1, 1], [1, 1], p), [2, 1], p)
    g = fp_mul([1, 1], [3, 1], p)
    assert fp_gcd(f, g, p) == [1, 1]
    assert fp_gcd(f, [], p) == fp_strip(fp_monic_ref(f, p), p)


def fp_monic_ref(f, p):
    f = fp_strip(f, p)
    if not f:
        return []
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def test_fp_powmod_matches_repeated_multiplication():
    p, mod = 3, [1, 0, 1, 1]
    base = [2, 1]
    acc = [1]
    for k in range(8):
        direct = fp_powmod(base, k, mod, p)
        assert direct == fp_divmod(acc, mod, p)[1]
        acc = fp_mul(acc, base, p)


def test_fp_radical_and_squarefree():
    p = 3
    f = fp_mul(fp_mul([1, 1], [1, 1], p), [2, 1], p)  # (t+1)^2 (t+2)
    rad = fp_radical(f, p)
    assert rad == fp_mul([1, 1], [2, 1], p)
    assert not fp_is_squarefree(f, p)
    assert fp_is_squarefree(rad, p)
    assert fp_squarefree_degree(f, p) == 2


def test_fp_radical_handles_p_th_powers():
    # t^3 + 1 = (t + 1)^3 over F_3; the derivative vanishes identically
    assert fp_radical([1, 0, 0, 1], 3) == [1, 1]
    assert fp_squarefree_degree([1, 0, 0, 1], 3) == 1


def test_fp_irreducible():
    assert fp_irreducible([1, 0, 1], 3)  # t^2 + 1 mod 3
    assert not fp_irreducible([1, 0, 1], 5)  # (t+2)(t+3) mod 5
    assert fp_irreducible([1, 1], 2)
    assert not fp_irreducible([2], 5)
    assert fp_irreducible([1, 1, 0, 0, 1], 2)  # t^4 + t + 1, the F_16 classic


@settings(deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=8).flatmap(
        lambda deg: st.lists(st.integers(min_value=0, max_value=6), min_size=deg, max_size=deg)
    ),
    st.integers(min_value=1, max_value=6),
)
def test_fp_irreducible_matches_trial_division(p, tail, lead):
    # degree 1 to 8, leading coefficient nonzero mod p; irreducible exactly
    # when trial division finds f itself as the only factor, once
    lead = lead % p or 1
    f = fp_strip(tail + [lead], p)
    pieces = fp_trial_division_factors(f, p)
    assert fp_irreducible(f, p) == (pieces == [(tuple(fp_monic_ref(f, p)), 1)])


@settings(deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=7))
def test_fp_distinct_factor_count_matches_trial_division(f):
    p = 5
    f = fp_strip(f, p)
    if len(f) < 2:
        return
    want = len(fp_trial_division_factors(f, p))
    assert fp_distinct_factor_count(f, p) == want


@settings(deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=9),
)
def test_distinct_and_equal_degree_factors_match_trial_division(p, f):
    f = fp_strip(f, p)
    if len(f) < 2:
        return
    want = sorted(list(coeffs) for coeffs, _ in fp_trial_division_factors(f, p))
    blocks = fp_distinct_degree_factors(f, p)
    assert [k for k, _ in blocks] == sorted({k for k, _ in blocks})
    got = []
    for k, g in blocks:
        pieces = fp_equal_degree_factors(g, k, p)
        assert all(len(h) - 1 == k for h in pieces)
        got.extend(pieces)
    assert sorted(got) == want


def test_fp_trial_division_reconstructs_input():
    p = 7
    f = [3, 0, 1, 0, 0, 2]
    pieces = fp_trial_division_factors(f, p)
    prod = [1]
    for coeffs, mult in pieces:
        for _ in range(mult):
            prod = fp_mul(prod, list(coeffs), p)
    assert prod == fp_monic_ref(f, p)
    for coeffs, _ in pieces:
        assert fp_irreducible(list(coeffs), p)


def is_canonical(f, p):
    return all(0 <= c < p for c in f) and (not f or f[-1] != 0)


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from([2, 3, 5, 7, 101, 1_000_003]),
    st.lists(st.integers(min_value=-(10**7), max_value=10**7), max_size=9),
    st.lists(st.integers(min_value=-(10**7), max_value=10**7), max_size=9),
    st.integers(min_value=0, max_value=40),
)
def test_kernel_results_are_canonical(p, f, g, e):
    # the kernel takes canonical operands, returns canonical results and
    # never writes to its operands
    f, g = fp_strip(f, p), fp_strip(g, p)
    operands = (list(f), list(g))
    results = [
        univariate._mul(f, g, p),
        univariate._sub(f, g, p),
        univariate._monic(f, p),
        univariate._derivative(f, p),
        univariate._gcd(f, g, p),
    ]
    if g:
        results.extend(univariate._divmod(f, g, p))
    if len(g) > 1:
        results.append(univariate._powmod(f, e, g, p))
    if len(f) > 1:
        blocks = univariate._distinct_degree(univariate._monic(f, p), p)
        results.extend(block for _, block in blocks)
    for h in results:
        assert is_canonical(h, p), h
    assert (f, g) == operands


def test_fp_trial_division_budget():
    with pytest.raises(SearchSpaceTooLarge):
        fp_trial_division_factors(one_plus_tc(40), 101, budget=10_000)


# ---------------------------------------------------------------------------
# characteristic zero

def test_int_gcd_degree():
    # (t^2 - 1) and (t^3 - 1) share t - 1
    assert int_gcd_degree([-1, 0, 1], [-1, 0, 0, 1]) == 1
    assert int_gcd_degree([1, 0, 1], [-1, 1]) == 0
    # t + 1/2 and 2t + 1 agree up to a unit; the Fraction case goes through
    # q_squarefree_degree, which takes (t + 1/2)^2 to its integer multiple
    assert int_gcd_degree([1, 2], [2, 4]) == 1
    assert q_squarefree_degree([Fraction(1, 4), 1, 1]) == 1
    with pytest.raises(DegenerateInput):
        int_gcd_degree([0], [])


def test_q_squarefree_degree():
    # (t - 1)^2 (t + 2) has 2 distinct roots
    f = int_mul(int_mul([-1, 1], [-1, 1]), [2, 1])
    assert q_squarefree_degree(f) == 2
    assert q_squarefree_degree([-1, 0, 1]) == 2


def test_dense_degree_60_is_decided_quickly():
    # a dense integer polynomial of degree 60 with coefficients in [-20, 20]:
    # a Euclid over Fractions spends seconds on gcd(f, f') alone
    rng = random.Random(60)
    f = [rng.randint(-20, 20) for _ in range(60)] + [rng.choice([-20, 7, 20])]
    for decide, want in ((q_squarefree_degree, 60), (q_irreducible, True)):
        start = time.perf_counter()
        assert decide(f) == want
        assert time.perf_counter() - start < 0.5, decide.__name__


def test_q_irreducible():
    assert q_irreducible([-2, 0, 1])  # t^2 - 2
    assert not q_irreducible([-1, 0, 1])  # (t-1)(t+1)
    assert q_irreducible([5, 3])
    with pytest.raises(DegenerateInput):
        q_irreducible([4])  # constants are units, the question is ill-posed
    assert q_irreducible([1, 1, 1, 1, 1, 1, 1])  # Phi_7
    assert not q_irreducible(list(one_plus_tc(3)))  # (1+t)(1-t+t^2)
