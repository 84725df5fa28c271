"""Expression parser for weighted polynomials."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from divclass import parser
from divclass.cli import JobFile, run_job
from divclass.errors import (
    NegativeExponent,
    PolynomialSyntaxError,
    SearchSpaceTooLarge,
    UnknownVariable,
)
from divclass.fields import FieldSpec
from divclass.parser import (
    check_literal_size,
    check_power_coefficients,
    check_power_size,
    check_product_size,
    parse_polynomial,
)
from divclass.wpoly import WPolynomial, WeightedRing

Q = FieldSpec.rationals()
R2 = WeightedRing(("x1", "x2"), (1, 1), Q)
R3 = WeightedRing(("x1", "x2", "x3"), (1, 1, 1), Q)


def test_sum_of_powers():
    got = parse_polynomial("x1^3 + x2^2", R2)
    x1, x2 = WPolynomial.variable(R2, 0), WPolynomial.variable(R2, 1)
    assert got == x1**3 + x2**2


def test_product_expands():
    got = parse_polynomial("(x1 - x2)*(x1 + x2)", R2)
    x1, x2 = WPolynomial.variable(R2, 0), WPolynomial.variable(R2, 1)
    assert got == x1**2 - x2**2


def test_implicit_coefficients_and_whitespace():
    got = parse_polynomial("  2*x1  -   3 * x2 ", R2)
    assert got.terms[(1, 0)] == Q.from_int(2)
    assert got.terms[(0, 1)] == Q.from_int(-3)


def test_unary_minus_chains():
    assert parse_polynomial("--x1", R2) == parse_polynomial("x1", R2)
    assert parse_polynomial("-x1 - -x2", R2) == parse_polynomial("x2 - x1", R2)


def test_power_binds_tighter_than_product():
    got = parse_polynomial("2*x1^3", R2)
    assert got.terms == {(3, 0): Q.from_int(2)}


def test_parenthesized_power():
    got = parse_polynomial("(x1 + x2)^2", R2)
    assert got.terms[(1, 1)] == Q.from_int(2)


def test_integer_literals_fold():
    got = parse_polynomial("3*4*x1 - 12*x1", R2)
    assert got.is_zero


def test_negative_exponent_rejected_with_position():
    with pytest.raises(NegativeExponent) as exc:
        parse_polynomial("x1^-1", R2)
    assert exc.value.position == 3
    assert "position 3" in str(exc.value)


def test_unknown_variable():
    with pytest.raises(UnknownVariable) as exc:
        parse_polynomial("x1 + y", R2)
    assert "y" in str(exc.value)
    assert exc.value.position == 5


def test_syntax_errors_carry_positions():
    bad = ["", "x1 +", "(x1", "x1 ^ x2", "x1 @ x2", ")", "x1 x2"]
    for text in bad:
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(text, R2)


def test_char_p_coefficients():
    F5 = FieldSpec.prime(5)
    R = WeightedRing(("x1",), (1,), F5)
    got = parse_polynomial("7*x1", R)
    assert got.terms == {(1,): 2}
    assert parse_polynomial("5*x1", R).is_zero


coeffs = st.integers(min_value=-9, max_value=9)
exps3 = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)


@given(st.dictionaries(exps3, coeffs, min_size=0, max_size=6))
def test_to_string_round_trips(terms):
    f = WPolynomial(R3, {e: Q.from_int(c) for e, c in terms.items()})
    assert parse_polynomial(f.to_string(), R3) == f


def test_to_string_spot_checks():
    x1, x2 = WPolynomial.variable(R2, 0), WPolynomial.variable(R2, 1)
    assert (x1**2 - x2).to_string() == "x1^2 - x2"
    assert (-x1).to_string() == "-x1"
    assert WPolynomial.zero(R2).to_string() == "0"
    assert (x1 * x2).scale(Q.from_int(2)).to_string() == "2*x1*x2"


# (text, error class, message, position) for malformed texts in R2; the
# parser must keep reporting each at the same token with the same words
MALFORMED = [
    ("", "PolynomialSyntaxError", "unexpected end of input (at position 0)", 0),
    ("   ", "PolynomialSyntaxError", "unexpected end of input (at position 3)", 3),
    ("x1 +", "PolynomialSyntaxError", "unexpected end of input (at position 4)", 4),
    ("x1 -", "PolynomialSyntaxError", "unexpected end of input (at position 4)", 4),
    ("x1 *", "PolynomialSyntaxError", "unexpected end of input (at position 4)", 4),
    ("x1 ^", "PolynomialSyntaxError", "expected an integer exponent (at position 4)", 4),
    ("-", "PolynomialSyntaxError", "unexpected end of input (at position 1)", 1),
    ("(x1", "PolynomialSyntaxError", "expected ')' (at position 3)", 3),
    ("((x1)", "PolynomialSyntaxError", "expected ')' (at position 5)", 5),
    ("(x1 + x2", "PolynomialSyntaxError", "expected ')' (at position 8)", 8),
    (")", "PolynomialSyntaxError", "expected a number, variable or parenthesized expression, got ')' (at position 0)", 0),
    ("x1 + x2)", "PolynomialSyntaxError", "unexpected ')' (at position 7)", 7),
    ("()", "PolynomialSyntaxError", "expected a number, variable or parenthesized expression, got ')' (at position 1)", 1),
    ("x1 + (x2 * )", "PolynomialSyntaxError", "expected a number, variable or parenthesized expression, got ')' (at position 11)", 11),
    ("x1 ^ x2", "PolynomialSyntaxError", "expected an integer exponent (at position 5)", 5),
    ("x1^(2)", "PolynomialSyntaxError", "expected an integer exponent (at position 3)", 3),
    ("x1^2^3", "PolynomialSyntaxError", "unexpected '^' (at position 4)", 4),
    ("x1 ** 2", "PolynomialSyntaxError", "expected a number, variable or parenthesized expression, got '*' (at position 4)", 4),
    ("x1^-1", "NegativeExponent", "negative exponents are not allowed (at position 3)", 3),
    ("x1^ -2", "NegativeExponent", "negative exponents are not allowed (at position 4)", 4),
    ("(-x1)^-3", "NegativeExponent", "negative exponents are not allowed (at position 6)", 6),
    ("x1 + y", "UnknownVariable", "unknown variable 'y'; ring has ('x1', 'x2') (at position 5)", 5),
    ("y", "UnknownVariable", "unknown variable 'y'; ring has ('x1', 'x2') (at position 0)", 0),
    ("x3^2", "UnknownVariable", "unknown variable 'x3'; ring has ('x1', 'x2') (at position 0)", 0),
    ("x1 + (y + x2)", "UnknownVariable", "unknown variable 'y'; ring has ('x1', 'x2') (at position 6)", 6),
    ("2x1", "PolynomialSyntaxError", "unexpected 'x1' (at position 1)", 1),
    ("x1 x2", "PolynomialSyntaxError", "unexpected 'x2' (at position 3)", 3),
    ("x1 @ x2", "PolynomialSyntaxError", "unexpected character '@' (at position 3)", 3),
    ("x1 # 2", "PolynomialSyntaxError", "unexpected character '#' (at position 3)", 3),
    ("x1 + x2 $", "PolynomialSyntaxError", "unexpected character '$' (at position 8)", 8),
    ("x1.5", "PolynomialSyntaxError", "unexpected character '.' (at position 2)", 2),
    ("x1 + 3,5", "PolynomialSyntaxError", "unexpected character ',' (at position 6)", 6),
    ("*x1", "PolynomialSyntaxError", "expected a number, variable or parenthesized expression, got '*' (at position 0)", 0),
    ("+x1", "PolynomialSyntaxError", "expected a number, variable or parenthesized expression, got '+' (at position 0)", 0),
    ("x1^1.5", "PolynomialSyntaxError", "unexpected character '.' (at position 4)", 4),
    ("x1 +  $", "PolynomialSyntaxError", "unexpected character '$' (at position 6)", 6),
    ("x1 \t \xe9", "PolynomialSyntaxError", "unexpected character '\xe9' (at position 5)", 5),
    ("x1\u3000 @", "PolynomialSyntaxError", "unexpected character '@' (at position 4)", 4),
]


@pytest.mark.parametrize("text, kind, message, position", MALFORMED)
def test_malformed_texts_keep_their_errors(text, kind, message, position):
    with pytest.raises(PolynomialSyntaxError) as exc:
        parse_polynomial(text, R2)
    assert (type(exc.value).__name__, str(exc.value), exc.value.position) == (
        kind,
        message,
        position,
    )


# (text, tokens): any Unicode blank separates tokens and is dropped, trailing
# blanks included, and \d takes non-ASCII digits as integer literals
TOKENIZED = [
    ("x1\t+ x2", [("name", "x1", 0), ("op", "+", 3), ("name", "x2", 5), ("end", "", 7)]),
    ("x1\n+\nx2", [("name", "x1", 0), ("op", "+", 3), ("name", "x2", 5), ("end", "", 7)]),
    ("x1\x0b* x2", [("name", "x1", 0), ("op", "*", 3), ("name", "x2", 5), ("end", "", 7)]),
    ("x1\xa0+ 2", [("name", "x1", 0), ("op", "+", 3), ("int", "2", 5), ("end", "", 6)]),
    ("x1\x1c+x2", [("name", "x1", 0), ("op", "+", 3), ("name", "x2", 4), ("end", "", 6)]),
    ("x1 + x2   ", [("name", "x1", 0), ("op", "+", 3), ("name", "x2", 5), ("end", "", 10)]),
    ("", [("end", "", 0)]),
    ("   ", [("end", "", 3)]),
    ("\u0663 x1", [("int", "\u0663", 0), ("name", "x1", 2), ("end", "", 4)]),
    ("\u2003x2^\u0662 ", [("name", "x2", 1), ("op", "^", 3), ("int", "\u0662", 4), ("end", "", 6)]),
]


@pytest.mark.parametrize("text, tokens", TOKENIZED)
def test_tokenizer_drops_blanks(text, tokens):
    assert parser._tokenize(text) == tokens


# Random expression trees: ("int", c), ("var", i), (op, a, b) for op in
# + - *, ("neg", a), ("^", a, k) and ("()", a).  Three levels keep every
# tree far inside the parser's size bounds.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "neg": 3, "^": 4}


def _trees(depth):
    leaf = st.one_of(
        st.tuples(st.just("int"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("var"), st.integers(min_value=0, max_value=2)),
    )
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("^"), sub, st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("()"), sub),
    )


def _render(tree) -> tuple[str, int]:
    """Text of the tree and the precedence of its top operator."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1]), 5
    if kind == "var":
        return R3.variables[tree[1]], 5
    if kind == "()":
        return f"({_render(tree[1])[0]})", 5
    prec = _PRECEDENCE[kind]

    def operand(sub, least):
        text, p = _render(sub)
        return text if p >= least else f"({text})"

    if kind == "neg":
        return "-" + operand(tree[1], 3), prec
    if kind == "^":
        return f"{operand(tree[1], 5)}^{tree[2]}", prec
    # left operands sit one level up the grammar from right operands
    return f"{operand(tree[1], prec)} {kind} {operand(tree[2], prec + 1)}", prec


def _evaluate(tree, ring) -> WPolynomial:
    kind = tree[0]
    if kind == "int":
        return WPolynomial.constant(ring, tree[1])
    if kind == "var":
        return WPolynomial.variable(ring, tree[1])
    if kind == "()":
        return _evaluate(tree[1], ring)
    if kind == "neg":
        return -_evaluate(tree[1], ring)
    if kind == "^":
        return _evaluate(tree[1], ring) ** tree[2]
    a, b = _evaluate(tree[1], ring), _evaluate(tree[2], ring)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


@settings(max_examples=300, deadline=None)
@given(_trees(3), st.sampled_from([0, 5]))
def test_parse_matches_polynomial_arithmetic(tree, p):
    ring = WeightedRing(R3.variables, R3.weights, FieldSpec(p))
    text, _ = _render(tree)
    assert parse_polynomial(text, ring) == _evaluate(tree, ring), text


def test_one_polynomial_per_parse(monkeypatch):
    built = []
    real = WPolynomial.__init__

    def spy(self, ring, terms):
        built.append(terms)
        real(self, ring, terms)

    monkeypatch.setattr(WPolynomial, "__init__", spy)
    got = parse_polynomial("(x1 - 2*x2)^3*(x1 + x2) - -x1^4", R2)
    assert len(built) == 1
    monkeypatch.undo()
    x1, x2 = WPolynomial.variable(R2, 0), WPolynomial.variable(R2, 1)
    two = WPolynomial.constant(R2, 2)
    assert got == (x1 - two * x2) ** 3 * (x1 + x2) + x1**4


def test_power_estimate():
    x1, x2, x3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    one = (0, 0, 0)
    check_power_size({x1: 1}, parser.MAX_PARSED_EXPONENT)
    check_power_size({one: 2}, parser.MAX_PARSED_EXPONENT)
    for base in ({x1: 1}, {one: 2}, {}):
        with pytest.raises(SearchSpaceTooLarge):
            check_power_size(base, parser.MAX_PARSED_EXPONENT + 1)
    with pytest.raises(SearchSpaceTooLarge):  # x1^2 to a power over half the limit
        check_power_size({(2, 0, 0): 1}, parser.MAX_PARSED_EXPONENT // 2 + 1)
    # (x1 + x2 + x3)^k has C(k + 2, 2) terms: 5151 at k = 100, 20301 at 200
    check_power_size({x1: 1, x2: 1, x3: 1}, 100)
    with pytest.raises(SearchSpaceTooLarge):
        check_power_size({x1: 1, x2: 1, x3: 1}, 200)
    check_product_size(dict.fromkeys(range(100), 1), dict.fromkeys(range(100), 1))
    with pytest.raises(SearchSpaceTooLarge):
        check_product_size(dict.fromkeys(range(101), 1), dict.fromkeys(range(100), 1))


def test_literal_estimate():
    check_literal_size("9" * parser.MAX_LITERAL_DIGITS, 0)
    with pytest.raises(SearchSpaceTooLarge, match=r"\(at position 7\)$"):
        check_literal_size("1" * (parser.MAX_LITERAL_DIGITS + 1), 7)


def test_coefficient_estimate():
    one = (0, 0, 0)
    limit = parser.MAX_PARSED_COEFF_BITS
    # 2^99 has 100 bits; the estimate is k times that
    check_power_coefficients({one: 2**99}, limit // 100)
    check_power_coefficients({one: -(2**99), (1, 0, 0): 1}, limit // 100)
    check_power_coefficients({}, limit)
    for base in ({one: 2**99}, {one: Fraction(1, 2**99)}, {(1, 0, 0): 1, one: -(2**99)}):
        with pytest.raises(SearchSpaceTooLarge):
            check_power_coefficients(base, limit // 100 + 1)


@pytest.mark.parametrize(
    "text",
    [
        "x1 + " + "1" * 5000 + "*x2",  # more digits than int() converts
        "x1^" + "1" * 5000,
        "((2^1000)^1000)^100*x1",
        "(123456789*x1 + x2)^1000",
    ],
)
def test_oversized_literal_or_coefficient_is_rejected(text):
    started = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge):
        parse_polynomial(text, R3)
    assert time.perf_counter() - started < 1.0


def test_coefficient_bound_is_rational_only():
    # over F_p the coefficients are reduced, so only the exponent bounds apply
    ring = WeightedRing(("x1", "x2", "x3"), (1, 1, 1), FieldSpec.prime(7))
    got = parse_polynomial("(123456789*x1)^1000", ring)
    assert got.terms == {(1000, 0, 0): pow(123456789, 1000, 7)}


def test_oversized_literal_exits_2():
    job = JobFile(
        field=Q,
        n=7,
        variables=("x1", "x2"),
        weights=(1, 1),
        factors=("x1 + " + "1" * 5000 + "*x2",),
        assume_normal=True,
    )
    payload, code = run_job(job)
    assert code == 2
    assert payload["error"]["code"] == "SEARCH_SPACE_TOO_LARGE"
    assert payload["error"]["message"].endswith("(at position 5)")


@pytest.mark.parametrize(
    "text",
    [
        "(x1 + x2 + x3)^200",
        "x1^1000000000000 + 3*x2^1000000000000",
        "2^1000000000000*x1",
        "((x1^40)^40)^40",
        "(x1 + x2 + x3)^200 + )",  # the bound is reached before the ')'
    ],
)
def test_oversized_power_is_rejected_before_expansion(text):
    started = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge):
        parse_polynomial(text, R3)
    assert time.perf_counter() - started < 1.0


def test_stray_character_is_reported_before_a_bound():
    with pytest.raises(PolynomialSyntaxError) as exc:
        parse_polynomial("(x1 + x2 + x3)^200 + $", R3)
    assert exc.value.position == 21


def test_oversized_factor_exits_2():
    job = JobFile(
        field=Q,
        n=7,
        variables=("x1", "x2", "x3"),
        weights=(1, 1, 1),
        factors=("(x1 + x2 + x3)^200",),
        assume_normal=True,
    )
    payload, code = run_job(job)
    assert code == 2
    assert payload["error"]["code"] == "SEARCH_SPACE_TOO_LARGE"
