"""Packed monomial codes: the codec, the pieces labelled by codes, and the
bound that keeps every exponent of a walk inside its field."""

import pytest
from hypothesis import given, strategies as st

from divclass import wpoly
from divclass.errors import InternalInconsistency, SearchSpaceTooLarge
from divclass.fields import FieldSpec
from divclass.hyperring import (
    HypersurfaceInput,
    check_graded_work,
    ideal_graded_component,
    prepare_generator,
)
from divclass.linalg import MonomialSpace, Subspace
from divclass.oracle import verify_graded
from divclass.qdivisor import integer_divisor_degree
from divclass.sections import divisorial_module_component
from divclass.wpoly import (
    FIELD_BITS,
    MAX_CODED_EXPONENT,
    WeightedRing,
    WPolynomial,
    decode_monomial,
    encode_monomial,
    validate_factorization,
    weighted_degree,
)

from conftest import FIXTURES, build_context

_EXPONENTS = st.integers(min_value=0, max_value=MAX_CODED_EXPONENT)


def _vectors(d):
    return st.lists(_EXPONENTS, min_size=d, max_size=d).map(tuple)


_PAIRS = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.tuples(_vectors(d), _vectors(d))
)


@given(_PAIRS)
def test_codes_round_trip_and_keep_the_tuple_order(pair):
    a, b = pair
    d = len(a)
    for v in pair:
        assert decode_monomial(encode_monomial(v), d) == v
        assert encode_monomial(v) >= 0
    assert (encode_monomial(a) < encode_monomial(b)) == (a < b)
    assert (encode_monomial(a) == encode_monomial(b)) == (a == b)


@given(_PAIRS)
def test_adding_codes_adds_the_exponent_vectors(pair):
    a, b = pair
    total = tuple(x + y for x, y in zip(a, b))
    # each field of the sum stays below 2^32, so decoding reads it back
    assert all(e < 1 << FIELD_BITS for e in total)
    assert decode_monomial(encode_monomial(a) + encode_monomial(b), len(a)) == total


def test_the_encoder_refuses_exponents_outside_a_field():
    assert MAX_CODED_EXPONENT == 2**31 - 1
    assert decode_monomial(encode_monomial((2**31 - 1, 0)), 2) == (2**31 - 1, 0)
    for exps in ((2**31,), (0, 2**31), (2**40, 1), (-1, 0)):
        with pytest.raises(InternalInconsistency, match="does not fit a monomial code"):
            encode_monomial(exps)
    # the enumeration refuses a degree whose exponents could reach 2^31
    # before it builds anything
    with pytest.raises(InternalInconsistency, match="do not fit a monomial code"):
        wpoly._enumerate((1,), 2**31)
    assert wpoly._enumerate((2,), 2**32 - 2) == (2**31 - 1,)


def test_the_largest_admitted_depth_keeps_exponents_below_two_to_the_24():
    # a walk to depth J labels monomials of c-degree at most V = J // n.
    # The work bound grows with depth, so bisect for the largest depth
    # `check_graded_work` admits; one variable of weight 1 and n = 1 give
    # the largest V, and every V admitted stays far inside a field
    Q = FieldSpec.rationals()
    largest = 0
    for d in (1, 2, 3):
        ring = WeightedRing(tuple(f"x{i}" for i in range(1, d + 1)), (1,) * d, Q)
        x1 = WPolynomial.variable(ring, 0)
        for n in (1, 2, 5, 1000):
            inp = HypersurfaceInput(validate_factorization([x1], ring, n), n)
            low, high = 0, 10**9
            with pytest.raises(SearchSpaceTooLarge):
                check_graded_work(inp, high)
            while high - low > 1:
                mid = (low + high) // 2
                try:
                    check_graded_work(inp, mid)
                    low = mid
                except SearchSpaceTooLarge:
                    high = mid
            V = low // n
            assert V < 2**24, (d, n, low)
            assert decode_monomial(encode_monomial((V,) * d), d) == (V,) * d
            largest = max(largest, V)
    # the work bound is at least (V + 1)(V + 2), so V = 3160 is the most
    assert largest == 3160


# ---------------------------------------------------------------------------
# every piece against a plain route on exponent tuples


def _monomials(weights, v):
    """Exponent tuples of c-degree v, built without codes."""
    if v < 0:
        return []
    first, *rest = weights
    if not rest:
        return [(v // first,)] if v % first == 0 else []
    return [
        (a, *tail)
        for a in range(v // first + 1)
        for tail in _monomials(tuple(rest), v - a * first)
    ]


def _times(ring, mu, form):
    return WPolynomial(ring, {mu: 1}) * form


def _module_products(dctx, E0, j):
    """The images of the sections of floor(E0 + jD) times T^j, as products
    x^(mu + offset) * tail over exponent tuples, with the clearing exponents
    written out here."""
    inp = dctx.input
    ring, d = inp.ring, inp.ring.d
    E = dctx.floor_shift(E0, j)
    q = dctx.bez.a * j // inp.n
    exps = [q * g - e for g, e in zip(dctx.g_exponents, E)]
    for i, s in enumerate(dctx.svec):
        exps[i] += dctx.bez.b * j * s
    tail = WPolynomial.one(ring)
    for comp, e in zip(dctx.components[d:], exps[d:]):
        tail = tail * comp.form**e
    offset = exps[:d]
    deg = integer_divisor_degree(dctx.registry, E)
    return [
        _times(ring, tuple(a + b for a, b in zip(mu, offset)), tail)
        for mu in _monomials(ring.weights, deg)
    ]


def _ideal_products(inp, u_g, f, j):
    """The generator z^u_g f times the complementary monomials of degree j,
    with z^n rewritten as g, over exponent tuples."""
    split = inp.degree_split(j)
    if split is None:
        return []
    u, v = split
    c = v - weighted_degree(f)
    form = f
    if u_g > u:
        form, c = f * inp.g, c - inp.m
    return [_times(inp.ring, mu, form) for mu in _monomials(inp.ring.weights, c)]


def _assert_decodes_to(piece, products, d, label):
    """A monomial piece holds the codes of one-term products; a general one
    holds their canonical rows, keyed by their leading exponent tuples."""
    if isinstance(piece, MonomialSpace):
        assert all(len(p.terms) == 1 for p in products), label
        got = {decode_monomial(k, d) for k in piece.keys}
        assert got == {next(iter(p.terms)) for p in products}, label
        assert len(got) == len(products), label
        return
    field = piece.field
    got = {
        decode_monomial(piv, d): {decode_monomial(k, d): c for k, c in row.items()}
        for piv, row in piece.rows.items()
    }
    want = {max(p.terms): Subspace.canonical_row(field, p.terms) for p in products}
    assert got == want, label


@pytest.mark.parametrize("fx", FIXTURES, ids=[fx.name for fx in FIXTURES])
def test_every_piece_decodes_to_the_plain_tuple_route(fx):
    # at every j <= 40, the module pieces of 0, E_t and n*E_t and the ideal
    # pieces of z and h_t, as verify builds them, decode to the monomials
    # and rows computed here on exponent tuples; the walk itself passes
    dctx = build_context(fx)
    inp = dctx.input
    d = inp.ring.d
    divisors = [dctx.zero_divisor()]
    divisors += [dctx.Et(t) for t in range(dctx.r)]
    divisors += [dctx.Et(t).scale(inp.n) for t in range(dctx.r)]
    generators = [(1, WPolynomial.one(inp.ring))]
    generators += [(0, dctx.components[c].form) for c in dctx.factor_component]
    prepared = [prepare_generator(inp, u, f) for u, f in generators]
    for j in range(41):
        for E0 in divisors:
            piece = divisorial_module_component(dctx, E0, j)
            _assert_decodes_to(piece, _module_products(dctx, E0, j), d, (E0, j))
        for (u, f), gen in zip(generators, prepared):
            piece = ideal_graded_component(inp, gen, j)
            _assert_decodes_to(piece, _ideal_products(inp, u, f, j), d, (u, f, j))
    ideals, relations = verify_graded(dctx, 40)
    assert all(outcome.ok for outcome in ideals) and relations.ok
