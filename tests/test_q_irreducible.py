"""Irreducibility and squarefree parts over Q and F_p against sympy, an
independent oracle.

The package decides irreducibility over Q itself (degree patterns modulo a
few primes, then Zassenhaus factoring) and over F_p by Ben-Or's test; sympy
is a test dependency only and is imported here, never by divclass.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from divclass import univariate
from divclass.cli import main
from divclass.errors import DegenerateInput, SearchSpaceTooLarge
from divclass.univariate import (
    MAX_RECOMBINATION_SUBSETS,
    cyclotomic,
    fp_irreducible,
    fp_is_squarefree,
    fp_squarefree_degree,
    int_mul,
    q_irreducible,
    q_squarefree_degree,
    recombination_subsets,
)

T = sympy.Symbol("t")


def sympy_irreducible(coeffs) -> bool:
    rational = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, coeffs)]
    _, factors = sympy.Poly(list(reversed(rational)), T, domain="QQ").factor_list()
    return len(factors) == 1 and factors[0][1] == 1


def nonconstant(coeffs) -> bool:
    return any(coeffs[1:])


int_poly = st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=9).filter(
    nonconstant
)
fraction_poly = st.lists(
    st.fractions(min_value=-10, max_value=10, max_denominator=12), min_size=2, max_size=9
).filter(nonconstant)
small_factor = st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=5).filter(
    lambda f: f[-1] != 0 and nonconstant(f)
)


@settings(deadline=None, max_examples=300)
@given(int_poly)
def test_integer_polynomials_agree_with_sympy(f):
    assert q_irreducible(f) == sympy_irreducible(f)


@settings(deadline=None, max_examples=200)
@given(fraction_poly)
def test_fraction_polynomials_agree_with_sympy(f):
    assert q_irreducible(f) == sympy_irreducible(f)


@settings(deadline=None, max_examples=200)
@given(st.lists(small_factor, min_size=2, max_size=3), st.fractions(min_value=-5, max_value=5))
def test_products_of_known_factors_are_reducible(factors, scale):
    f = factors[0]
    for g in factors[1:]:
        f = int_mul(f, g)
    if len(f) - 1 > 8 or scale == 0:
        return
    f = [scale * c for c in f]
    assert not q_irreducible(f)
    assert not sympy_irreducible(f)


def sympy_poly(coeffs, **domain):
    rational = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, coeffs)]
    return sympy.Poly(list(reversed(rational)), T, **domain)


def with_square(f, g):
    """f times g^2, so the square of g is planted in the product."""
    return int_mul(f, int_mul(g, g))


planted_square = st.builds(with_square, small_factor, small_factor)


@settings(deadline=None, max_examples=200)
@given(st.one_of(int_poly, planted_square))
def test_squarefree_degree_of_integer_polynomials_agrees_with_sympy(f):
    assert q_squarefree_degree(f) == sympy.sqf_part(sympy_poly(f, domain="QQ")).degree()


@settings(deadline=None, max_examples=200)
@given(fraction_poly, st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_squarefree_degree_of_fraction_polynomials_agrees_with_sympy(f, root):
    # also with the planted square (t - root)^2
    for g in (f, int_mul(f, [root * root, -2 * root, 1])):
        want = sympy.sqf_part(sympy_poly(g, domain="QQ")).degree()
        assert q_squarefree_degree(g) == want, g


# the primes of the F_p oracle tests: small ones, where factors and repeated
# factors are common, and one above 10^6
ORACLE_PRIMES = (2, 3, 5, 7, 101, 1_000_003)


@st.composite
def fp_polynomials(draw):
    """(p, f): f a polynomial over F_p of degree 1 to 10 as an integer list,
    sometimes with a planted square factor and with raw coefficients outside
    [0, p)."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    coeff = st.integers(min_value=-2 * p, max_value=2 * p)
    f = draw(st.lists(coeff, min_size=1, max_size=6)) + [draw(st.integers(1, p - 1))]
    if draw(st.booleans()):
        g = draw(st.lists(coeff, min_size=1, max_size=3)) + [1]
        f = with_square(f, g)
    return p, f


def sympy_fp_factors(f, p):
    """(degree, multiplicity) of each monic irreducible factor of f over F_p."""
    _, factors = sympy.Poly(list(reversed(f)), T, modulus=p).factor_list()
    return [(g.degree(), k) for g, k in factors]


@settings(deadline=None, max_examples=300)
@given(fp_polynomials())
def test_fp_irreducible_and_squarefree_degree_agree_with_sympy(case):
    p, f = case
    factors = sympy_fp_factors(f, p)
    assert fp_irreducible(f, p) == (len(factors) == 1 and factors[0][1] == 1)
    assert fp_squarefree_degree(f, p) == sum(d for d, _ in factors)


def _split_mod_every_small_prime(f):
    good = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if fp_is_squarefree(f, p)]
    return len(good) >= 8 and not any(fp_irreducible(f, p) for p in good)


@pytest.mark.parametrize("f", [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1]], ids=["t4+1", "t4-10t2+1"])
def test_irreducible_quartics_that_split_mod_every_prime(f, monkeypatch):
    # no prime certifies these, so the answer comes from Hensel lifting
    assert _split_mod_every_small_prime(f)
    lifts = []
    real = univariate._has_proper_factor

    def spy(*args):
        lifts.append(args)
        return real(*args)

    monkeypatch.setattr(univariate, "_has_proper_factor", spy)
    assert q_irreducible(f)
    assert len(lifts) == 1
    assert not q_irreducible(int_mul(f, [2, 3]))


@pytest.mark.parametrize("e", range(1, 31))
def test_cyclotomic_polynomials_are_irreducible(e):
    assert q_irreducible(list(cyclotomic(e)))


def test_products_of_cyclotomic_polynomials_are_reducible():
    for a, b in [(8, 12), (24, 1), (15, 21), (4, 4)]:
        assert not q_irreducible(int_mul(list(cyclotomic(a)), list(cyclotomic(b))))


def test_non_monic_quartics():
    reducible = int_mul([3, 0, 2], [5, -1, 3])  # (2t^2 + 3)(3t^2 - t + 5)
    assert not q_irreducible(reducible)
    assert not q_irreducible([Fraction(c, 7) for c in reducible])
    assert q_irreducible([1, 0, 0, 0, 6])  # 6t^4 + 1
    assert not q_irreducible([1, 0, 0, 0, 4])  # 4t^4 + 1 = (2t^2+2t+1)(2t^2-2t+1)


def test_large_coefficients_need_a_high_lift():
    f = int_mul([1, 10**6, 1], [3, -(10**6), 1])
    assert not q_irreducible(f)
    assert q_irreducible([3**40 + 1, 7, 0, 0, 11])


def test_repeated_factors_are_reducible():
    assert not q_irreducible(int_mul([1, 0, 1], [1, 0, 1]))
    assert not q_irreducible([Fraction(1, 4), 1, 1])  # (t + 1/2)^2


@pytest.mark.parametrize("f", [[4], [Fraction(1, 2)], [0], [], [3, 0, 0]])
def test_constants_are_rejected(f):
    with pytest.raises(DegenerateInput):
        q_irreducible(f)


# ---------------------------------------------------------------------------
# the bound on Zassenhaus recombination


def swinnerton_dyer(primes) -> list[int]:
    """Coefficients of the product of t - (+-sqrt p_1 +- ... +- sqrt p_m)."""
    y = sympy.Symbol("y")
    poly = T
    for p in primes:
        poly = sympy.expand(sympy.resultant(poly.subs(T, T - y), y**2 - p, y))
    return [int(c) for c in reversed(sympy.Poly(poly, T).all_coeffs())]


def test_recombination_subsets_count_the_tried_subsets():
    for k in range(12):
        tried = sum(1 for s in range(1, k // 2 + 1) for _ in combinations(range(k), s))
        assert recombination_subsets(k) == tried, k
    assert (recombination_subsets(8), recombination_subsets(16)) == (162, 39202)
    assert recombination_subsets(14) <= MAX_RECOMBINATION_SUBSETS < recombination_subsets(15)


def test_recombination_is_refused_on_its_estimate_alone(monkeypatch):
    # 15 factors are refused before any lifting; the factors are never read
    def unreachable(*args):
        raise AssertionError("recombination lifted past its subset bound")

    monkeypatch.setattr(univariate, "_hensel_lift", unreachable)
    with pytest.raises(SearchSpaceTooLarge, match="above the limit"):
        univariate._has_proper_factor([1, 0, 1], [None] * 15, 101)


def test_swinnerton_dyer_recombination():
    # degree 16 splits into 8 factors modulo every prime and is decided;
    # degree 32 splits into 16 and is refused instead of trying 39 202
    # subsets (several seconds)
    assert q_irreducible(swinnerton_dyer((2, 3, 5, 7)))
    with pytest.raises(SearchSpaceTooLarge, match="16 factors .* 39202 subsets"):
        q_irreducible(swinnerton_dyer((2, 3, 5, 7, 11)))


def test_oversized_recombination_exits_2(tmp_path, capsys):
    # the degree-32 Swinnerton-Dyer form in x1, x2 certifies through q_irreducible
    coeffs = swinnerton_dyer((2, 3, 5, 7, 11))
    factor = " + ".join(f"({c})*x1^{i}*x2^{32 - i}" for i, c in enumerate(coeffs) if c)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "field": "Q",
        "n": 3,
        "variables": ["x1", "x2"],
        "weights": [1, 1],
        "factors": [factor],
    }))
    assert main(["classgroup", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "SEARCH_SPACE_TOO_LARGE"
