"""Graded pieces of k[z, x]/(z^n - g) and of its ideals."""

from functools import cache

import pytest

from divclass.errors import (
    DegenerateInput,
    InhomogeneousPolynomial,
    SearchSpaceTooLarge,
    ZeroPolynomial,
)
from divclass.fields import FieldSpec
from divclass.hyperring import (
    MAX_GRADED_WORK,
    HypersurfaceInput,
    check_graded_work,
    graded_dim,
    graded_dims,
    graded_work_bound,
    hilbert_coefficients,
    ideal_graded_component,
    prepare_generator,
)
from divclass.linalg import MonomialSpace, Subspace
from divclass.parser import parse_polynomial
from divclass.wpoly import (
    FactoredForm,
    WeightedRing,
    WPolynomial,
    coded_terms,
    encode_monomial,
    validate_factorization,
    weighted_degree,
)

from conftest import FIXTURES, build_input


def cube_two_lines():
    """k[z, x1, x2]/(z^3 - x1 x2) with unit weights."""
    fx = next(f for f in FIXTURES if f.name == "cube-two-lines")
    return build_input(fx)


def test_degree_split_inverts_monomial_degree():
    inp = cube_two_lines()
    # deg z = m = 2, deg x_i = n c_i = 3
    for j in range(0, 40):
        split = inp.degree_split(j)
        if split is None:
            continue
        u, v = split
        assert 0 <= u < inp.n
        assert v >= 0
        assert u * inp.m + v * inp.n == j
    assert inp.degree_split(1) is None
    assert inp.degree_split(-2) is None


def test_degree_split_n_equal_one():
    Q = FieldSpec.rationals()
    ring = WeightedRing(("x1",), (1,), Q)
    x1 = parse_polynomial("x1", ring)
    form = validate_factorization([x1], ring, 1)
    inp = HypersurfaceInput(form, 1)
    assert inp.degree_split(7) == (0, 7)
    # with n = 1, z = g: the ideal zR in degree 7 is x1 times R_6
    z = prepare_generator(inp, 1, WPolynomial.one(ring))
    want = Subspace.unit_space(Q, [encode_monomial((7,))])
    assert ideal_graded_component(inp, z, 7) == want
    assert ideal_graded_component(inp, z, 0).dim == 0


def test_no_degree_split_when_gcd_m_n_is_not_one():
    # z^2 = x1 x2 has m = n = 2: no degree has a unique split, and the
    # split that `ideal_graded_component` computes itself refuses the same
    # degrees as `degree_split`
    Q = FieldSpec.rationals()
    ring = WeightedRing(("x1", "x2"), (1, 1), Q)
    form = validate_factorization([parse_polynomial(s, ring) for s in ("x1", "x2")], ring, 2)
    inp = HypersurfaceInput(form, 2)
    assert inp.m_inv is None
    generators = [
        prepare_generator(inp, 1, WPolynomial.one(ring)),
        prepare_generator(inp, 0, parse_polynomial("x1", ring)),
        prepare_generator(inp, 0, parse_polynomial("x1 + x2", ring)),
    ]
    for j in (0, 1, 2, 5):
        with pytest.raises(DegenerateInput, match="no degree split"):
            inp.degree_split(j)
        for gen in generators:
            with pytest.raises(DegenerateInput, match="no degree split"):
                ideal_graded_component(inp, gen, j)
    # a negative degree has no piece on either side, as for any input
    assert inp.degree_split(-1) is None
    assert all(ideal_graded_component(inp, gen, -1).dim == 0 for gen in generators)


def test_graded_dims_cube_two_lines():
    inp = cube_two_lines()
    want = {0: 1, 1: 0, 2: 1, 3: 2, 4: 1, 5: 2, 6: 3, 7: 2, 8: 3}
    for j, dim in want.items():
        assert graded_dim(inp, j) == dim, j


def test_graded_dims_equal_graded_dim_on_every_fixture():
    # the one-table column equals the per-degree count at every j <= 200
    for fx in FIXTURES:
        inp = build_input(fx)
        assert graded_dims(inp, 200) == [graded_dim(inp, j) for j in range(201)], fx.name
    assert graded_dims(cube_two_lines(), -1) == []


def test_defining_relation_reduces_to_g():
    # z * R_4 = z * span(z^2) lands in degree 6 as z^3 = x1 x2
    inp = cube_two_lines()
    z = prepare_generator(inp, 1, WPolynomial.one(inp.ring))
    got = ideal_graded_component(inp, z, 6)
    assert got == Subspace.unit_space(inp.field, [encode_monomial((1, 1))])


def test_defining_relation_across_fixtures():
    # R_{(n-1)m} is spanned by z^{n-1} alone, so z R in degree n*m is the
    # line spanned by z^n = g
    for fx in FIXTURES:
        inp = build_input(fx)
        z = prepare_generator(inp, 1, WPolynomial.one(inp.ring))
        got = ideal_graded_component(inp, z, inp.n * inp.m)
        assert got == Subspace(inp.field, [coded_terms(inp.g.terms)]), fx.name


def test_homogeneous_degree_failures():
    inp = cube_two_lines()
    mixed = parse_polynomial("1 + x1", inp.ring)
    with pytest.raises(InhomogeneousPolynomial):
        prepare_generator(inp, 0, mixed)
    with pytest.raises(ZeroPolynomial):
        prepare_generator(inp, 1, WPolynomial.zero(inp.ring))


def test_ideal_component_frozen_example():
    # (z, x1) in degree 6: z*R_4 = span(x1 x2) and x1*R_3 = span(x1^2, x1 x2)
    inp = cube_two_lines()
    z = prepare_generator(inp, 1, WPolynomial.one(inp.ring))
    x1 = prepare_generator(inp, 0, WPolynomial.variable(inp.ring, 0))
    got = ideal_graded_component(inp, z, 6).plus(ideal_graded_component(inp, x1, 6))
    want = [encode_monomial((2, 0)), encode_monomial((1, 1))]
    assert got == Subspace.unit_space(inp.field, want)
    assert got.dim == 2


@cache
def _monomials(weights, v):
    """Exponent tuples of c-degree v: each exponent of the first variable,
    then the rest recursively."""
    first, *rest = weights
    if not rest:
        return [(v // first,)] if v % first == 0 else []
    return [
        (a, *tail)
        for a in range(v // first + 1)
        for tail in _monomials(tuple(rest), v - a * first)
    ]


def _reference_rows(inp, u, f, depth):
    """Rows of z^u f times every monomial of R, by degree up to `depth`.

    A product z^a x^mu * z^u f with a < n lands in degree
    (a + u) m + n (deg mu + deg f); z^(a + u) with a + u >= n is rewritten as
    z^(a + u - n) g.  Within one degree a + u is fixed mod n, so a row is the
    x-part of a product.
    """
    rows = {j: [] for j in range(depth + 1)}
    wrapped = f * inp.g
    for a in range(inp.n):
        lowest = (a + u) * inp.m + inp.n * weighted_degree(f)
        poly = wrapped if a + u >= inp.n else f
        for j in range(lowest, depth + 1, inp.n):
            for mu in _monomials(inp.ring.weights, (j - lowest) // inp.n):
                rows[j].append(coded_terms((WPolynomial(inp.ring, {mu: 1}) * poly).terms))
    return rows


def test_ideal_component_matches_reference_on_fixtures():
    # every generator the oracle uses, and the ideal (z, h) it compares with
    # the module of E_t as the sum of the two pieces in either order, against
    # products built from scratch without the degree split
    depth = 60
    for fx in FIXTURES:
        inp = build_input(fx)
        z = (1, WPolynomial.one(inp.ring))
        z_rows = _reference_rows(inp, *z, depth)
        z_gen = prepare_generator(inp, *z)
        for h in inp.factored.factors:
            h_rows = _reference_rows(inp, 0, h, depth)
            h_gen = prepare_generator(inp, 0, h)
            for j in range(depth + 1):
                z_piece = ideal_graded_component(inp, z_gen, j)
                h_piece = ideal_graded_component(inp, h_gen, j)
                for name, got, rows in (
                    ("z + h", z_piece.plus(h_piece), (z_rows, h_rows)),
                    ("h + z", h_piece.plus(z_piece), (z_rows, h_rows)),
                    ("h", h_piece, (h_rows,)),
                    ("z", z_piece, (z_rows,)),
                ):
                    want = Subspace(inp.field, [r for by_j in rows for r in by_j[j]])
                    assert got == want, (fx.name, h.to_string(), name, j)


def _plain_split(inp, j):
    """(u, v) with j = u m + v n and 0 <= u < n, found by trying every u."""
    (u,) = [u for u in range(inp.n) if (j - u * inp.m) % inp.n == 0]
    return u, (j - u * inp.m) // inp.n


@pytest.mark.parametrize("fx", FIXTURES, ids=[fx.name for fx in FIXTURES])
def test_ideal_component_matches_a_plain_split(fx):
    # the generator's plan against the case split written out here, at every
    # j <= 3mn: z^u' for every u' <= n (each u of the split on either side
    # of u'), and each factor times 1 and times z.  The piece of z^u' f at
    # j = u m + v n is f times the monomials of c-degree v - deg f when
    # u' <= u, and f g times those of c-degree v - deg f - m otherwise; a
    # one-term form gives a set of monomials
    inp = build_input(fx)
    n, m = inp.n, inp.m
    one = WPolynomial.one(inp.ring)
    generators = [(u, one) for u in range(n + 1)]
    generators += [(u, h) for h in inp.factored.factors for u in (0, 1)]
    for u_g, f in generators:
        gen = prepare_generator(inp, u_g, f)
        for j in range(3 * m * n + 1):
            u, v = _plain_split(inp, j)
            if u_g <= u:
                form, c = f, v - weighted_degree(f)
            else:
                form, c = f * inp.g, v - weighted_degree(f) - m
            monomials = _monomials(inp.ring.weights, c) if v >= 0 and c >= 0 else []
            want = Subspace(
                inp.field,
                [coded_terms((WPolynomial(inp.ring, {mu: 1}) * form).terms) for mu in monomials],
            )
            got = ideal_graded_component(inp, gen, j)
            assert got == want, (fx.name, u_g, f.to_string(), j)
            if len(form.terms) == 1:
                assert isinstance(got, MonomialSpace), (fx.name, u_g, f.to_string(), j)


def test_ideal_component_whole_ring_when_unit_included():
    inp = cube_two_lines()
    one = (0, WPolynomial.one(inp.ring))
    for j in (0, 2, 3, 5, 6):
        got = ideal_graded_component(inp, prepare_generator(inp, *one), j)
        assert got.dim == graded_dim(inp, j)


def test_ideal_component_empty_degrees():
    inp = cube_two_lines()
    z = (1, WPolynomial.one(inp.ring))
    gen = prepare_generator(inp, *z)
    assert ideal_graded_component(inp, gen, 1).dim == 0
    assert ideal_graded_component(inp, gen, 0).dim == 0


def test_hilbert_series_matches_direct_dimensions():
    for fx in FIXTURES:
        inp = build_input(fx)
        series = hilbert_coefficients(inp, 60)
        for j in range(61):
            assert series[j] == graded_dim(inp, j), (fx.name, j)


def test_hilbert_rejects_negative_depth():
    with pytest.raises(DegenerateInput):
        hilbert_coefficients(cube_two_lines(), -1)


def test_default_depth_floor():
    inp = cube_two_lines()
    assert inp.default_depth() == max(200, 4 * inp.m * inp.n)
    # every factor degree gamma is at most m, so the default also covers
    # n*gamma + m*n
    for fx in FIXTURES:
        inp = build_input(fx)
        gamma = max(weighted_degree(h) for h in inp.factored.factors)
        assert inp.default_depth() >= inp.n * gamma + inp.m * inp.n, fx.name


def test_graded_work_bound_covers_the_walk():
    # the estimate is at least the walk's one step and direct count of
    # length d * (v + 1) per degree, which is all hilbert does, and with
    # the pieces also dim R_j per degree
    for fx in FIXTURES:
        inp = build_input(fx)
        d = inp.ring.d
        for depth in (0, 1, 7, 40, 90):
            counted = walked = 0
            for j, dim in enumerate(hilbert_coefficients(inp, depth)):
                split = inp.degree_split(j)
                if split is not None:
                    counted += 1 + d * (split[1] + 1)
                    walked += 1 + d * (split[1] + 1) + dim
            assert graded_work_bound(inp, depth, pieces=False) >= counted, (fx.name, depth)
            assert graded_work_bound(inp, depth) >= walked, (fx.name, depth)


def test_graded_work_bound_is_closed_form():
    # a few products: a depth far past any walk is estimated without
    # allocating anything of its size, and rejected
    inp = cube_two_lines()
    V = 10**9 // inp.n
    counted = (10**9 + 1) * (1 + 2 * (V + 1))
    assert graded_work_bound(inp, 10**9, pieces=False) == counted
    assert graded_work_bound(inp, 10**9) == counted + inp.n * (V + 1) ** 2
    for pieces in (False, True):
        with pytest.raises(SearchSpaceTooLarge):
            check_graded_work(inp, 10**9, pieces)
        with pytest.raises(SearchSpaceTooLarge):
            check_graded_work(inp, MAX_GRADED_WORK, pieces)


def test_every_fixture_default_depth_is_inside_the_work_bound():
    for fx in FIXTURES:
        inp = build_input(fx)
        check_graded_work(inp, inp.default_depth())


def unit_weight_input(d, n, m):
    """k[z, x_1..x_d]/(z^n - x1^m) with unit weights.

    The work bound reads only d, n and the weights, and the default depth
    max(200, 4mn) only m and n, so one monomial g stands for any g of
    degree m.
    """
    ring = WeightedRing(tuple(f"x{i}" for i in range(1, d + 1)), (1,) * d, FieldSpec(0))
    g = WPolynomial(ring, {(m,) + (0,) * (d - 1): 1})
    return HypersurfaceInput(FactoredForm((g,), g, (m,), "exact"), n)


@pytest.mark.parametrize(
    "d, n, pieces, largest_m",
    [
        # verify: m * n up to 1116, 644 and 84 for d = 1, 2, 3 at n = 2
        (1, 2, True, 558),
        (2, 2, True, 322),
        (2, 3, True, 263),
        (3, 2, True, 42),
        (3, 3, True, 36),
        # hilbert counts and builds no piece: m * n up to 790, 644 and 558
        (2, 2, False, 395),
        (3, 2, False, 322),
        (4, 2, False, 279),
    ],
)
def test_default_depth_is_refused_past_its_largest_degree(d, n, pieces, largest_m):
    # the default depth grows with m * n, so a large enough g is refused
    # at its default depth; these are the unit-weight thresholds
    inp = unit_weight_input(d, n, largest_m)
    check_graded_work(inp, inp.default_depth(), pieces)
    inp = unit_weight_input(d, n, largest_m + 1)
    with pytest.raises(SearchSpaceTooLarge):
        check_graded_work(inp, inp.default_depth(), pieces)


def test_verify_default_depth_of_four_unit_weights_is_refused_at_every_degree():
    # at the smallest default depth, 200, four unit weights already have
    # more monomials in the pieces than the bound allows
    for n in (2, 3, 5):
        inp = unit_weight_input(4, n, 1)
        assert inp.default_depth() == 200
        check_graded_work(inp, 200, pieces=False)
        with pytest.raises(SearchSpaceTooLarge):
            check_graded_work(inp, 200)


def test_input_shape_validation():
    with pytest.raises(DegenerateInput):
        HypersurfaceInput(cube_two_lines().factored, 0)
