"""Recursive-descent parser for polynomial expressions.

Grammar (explicit multiplication only, ^ binds tightest, then unary minus,
then *, then + and -):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-'* power
    power  := atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

Every sub-expression is evaluated as a plain term dict (exponent tuple ->
canonical nonzero coefficient) by the term arithmetic of `wpoly`
(`add_terms`, `mul_terms`, `pow_terms`), the same code behind the
`WPolynomial` operators, and zero terms are dropped as they arise;
`parse_polynomial` wraps the finished dict, valid by construction, in one
`WPolynomial` per text without checking it again.

Syntax errors carry the character offset of the offending token.  An integer
literal longer than MAX_LITERAL_DIGITS raises SearchSpaceTooLarge at its
position before it is converted.  Before a power or a product is expanded,
its size is estimated, and SearchSpaceTooLarge is raised when a power
produces an exponent above MAX_PARSED_EXPONENT, the estimated number of terms
exceeds MAX_PARSED_TERMS, or, over Q, a power's coefficients are estimated at
more than MAX_PARSED_COEFF_BITS bits.  The text is tokenized whole first, so
a stray character anywhere is reported before any bound; after that, errors
come from left to right, so a bound hit mid-text is reported before a later
syntax error.
"""

from __future__ import annotations

import re
from math import comb

from .errors import (
    NegativeExponent,
    PolynomialSyntaxError,
    SearchSpaceTooLarge,
    UnknownVariable,
)
from .wpoly import WeightedRing, WPolynomial, add_terms, mul_terms, pow_terms

# Job files use small exponents and factors of a few terms.  A power may
# raise no exponent above MAX_PARSED_EXPONENT, and no power or product may be
# estimated at more than MAX_PARSED_TERMS terms: C(s + k - 1, k) for the k-th
# power of an s-term base, len(a) * len(b) for a product.  Products only add
# exponents, so outside powers the exponents grow at most with the text.
MAX_PARSED_EXPONENT = 1000
MAX_PARSED_TERMS = 10_000

# An integer literal may have at most MAX_LITERAL_DIGITS digits, well below
# the 4300 digits Python converts by default.  Over Q the k-th power of a base
# whose largest coefficient has b bits is estimated at k * b bits per
# coefficient and may not exceed MAX_PARSED_COEFF_BITS; over F_p coefficients
# are reduced and cannot grow.  Sums and products outside powers grow the
# coefficients at most with the text.
MAX_LITERAL_DIGITS = 1000
MAX_PARSED_COEFF_BITS = 10_000

# A variable name: the only text a factor can refer to a variable by.
NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_TOKEN = re.compile(
    rf"\s*(?:(?P<int>\d+)|(?P<name>{NAME.pattern})|(?P<op>[-+*^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise PolynomialSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def check_power_size(base: dict, k: int) -> None:
    """Raise SearchSpaceTooLarge when base^k is too large to expand.

    The largest exponent of the power is k times the base's largest (k
    itself for a constant base); its terms are at most the C(s + k - 1, k)
    monomials of degree k in the s terms of the base.
    """
    top = max((max(exps, default=0) for exps in base), default=0)
    if k * max(top, 1) > MAX_PARSED_EXPONENT:
        raise SearchSpaceTooLarge(
            f"power ^{k} would produce an exponent above the limit "
            f"{MAX_PARSED_EXPONENT} for parsed powers"
        )
    s = len(base)
    if s > 1 and comb(s + k - 1, k) > MAX_PARSED_TERMS:
        raise SearchSpaceTooLarge(
            f"power ^{k} of a {s}-term expression would have up to "
            f"{comb(s + k - 1, k)} terms, above the limit {MAX_PARSED_TERMS}"
        )


def check_power_coefficients(base: dict, k: int) -> None:
    """Raise SearchSpaceTooLarge when base^k over Q has too large coefficients.

    The estimate is k times the largest bit length of a numerator or
    denominator in the base.
    """
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in base.values()),
        default=0,
    )
    if k * bits > MAX_PARSED_COEFF_BITS:
        raise SearchSpaceTooLarge(
            f"power ^{k} would produce coefficients of about {k * bits} bits, "
            f"above the limit {MAX_PARSED_COEFF_BITS} for parsed powers"
        )


def check_literal_size(value: str, pos: int) -> None:
    """Raise SearchSpaceTooLarge, at `pos`, for a literal too long to convert."""
    if len(value) > MAX_LITERAL_DIGITS:
        raise SearchSpaceTooLarge(
            f"integer literal of {len(value)} digits is above the limit "
            f"{MAX_LITERAL_DIGITS} (at position {pos})"
        )


def check_product_size(a: dict, b: dict) -> None:
    """Raise SearchSpaceTooLarge when a * b may have too many terms."""
    if len(a) * len(b) > MAX_PARSED_TERMS:
        raise SearchSpaceTooLarge(
            f"product of a {len(a)}-term and a {len(b)}-term expression would "
            f"have up to {len(a) * len(b)} terms, above the limit {MAX_PARSED_TERMS}"
        )


class _Parser:
    def __init__(self, text: str, ring: WeightedRing):
        self.text = text
        self.ring = ring
        self.field = ring.field
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise PolynomialSyntaxError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self) -> WPolynomial:
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise PolynomialSyntaxError(f"unexpected {value!r}", pos)
        return WPolynomial._wrap(self.ring, result)

    # term dicts; every dict is owned by the parser, so sums update their
    # left operand in place

    def _power(self, base: dict, k: int) -> dict:
        check_power_size(base, k)
        if not self.field.char:
            check_power_coefficients(base, k)
        return pow_terms(base, k, self.field, self.ring.d)

    # grammar

    def expr(self) -> dict:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                result = add_terms(result, self.term(), self.field, value == "-")
            else:
                return result

    def term(self) -> dict:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                rhs = self.factor()
                check_product_size(result, rhs)
                result = mul_terms(result, rhs, self.field)
            else:
                return result

    def factor(self) -> dict:
        negate = False
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "-":
                self.advance()
                negate = not negate
            else:
                break
        result = self.power()
        return add_terms({}, result, self.field, negate=True) if negate else result

    def power(self) -> dict:
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind == "op" and value == "-":
                raise NegativeExponent("negative exponents are not allowed", pos)
            if kind != "int":
                raise PolynomialSyntaxError("expected an integer exponent", pos)
            self.advance()
            check_literal_size(value, pos)
            return self._power(base, int(value))
        return base

    def atom(self) -> dict:
        kind, value, pos = self.advance()
        if kind == "int":
            check_literal_size(value, pos)
            c = self.field.from_int(int(value))
            return {(0,) * self.ring.d: c} if c else {}
        if kind == "name":
            try:
                idx = self.ring.variables.index(value)
            except ValueError:
                raise UnknownVariable(
                    f"unknown variable {value!r}; ring has {self.ring.variables}", pos
                ) from None
            exps = [0] * self.ring.d
            exps[idx] = 1
            return {tuple(exps): self.field.from_int(1)}
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise PolynomialSyntaxError(
            f"expected a number, variable or parenthesized expression, got {value!r}"
            if value
            else "unexpected end of input",
            pos,
        )


def parse_polynomial(text: str, ring: WeightedRing) -> WPolynomial:
    """Parse an expression string into an exact sparse polynomial."""
    return _Parser(text, ring).parse()
