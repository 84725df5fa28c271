"""Graded pieces of k[z, x]/(z^n - g) and of its ideals."""

import pytest

from divclass.errors import DegenerateInput, InhomogeneousPolynomial, ZeroPolynomial
from divclass.fields import FieldSpec
from divclass.hyperring import (
    HypersurfaceInput,
    graded_dim,
    hilbert_coefficients,
    ideal_graded_component,
)
from divclass.linalg import Subspace
from divclass.parser import parse_polynomial
from divclass.wpoly import WeightedRing, WPolynomial, validate_factorization

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
    inp = HypersurfaceInput(ring=ring, n=1, g=x1, factored=form, m=1)
    assert inp.degree_split(7) == (0, 7)


def test_graded_dims_cube_two_lines():
    inp = cube_two_lines()
    want = {0: 1, 1: 0, 2: 1, 3: 2, 4: 1, 5: 2, 6: 3, 7: 2, 8: 3}
    for j, dim in want.items():
        assert graded_dim(inp, j) == dim, j


def test_defining_relation_reduces_to_g():
    # z * R_4 = z * span(z^2) lands in degree 6 as z^3 = x1 x2
    inp = cube_two_lines()
    z = (1, WPolynomial.one(inp.ring))
    assert ideal_graded_component(inp, [z], 6) == Subspace.unit_space(inp.field, [(1, 1)])


def test_defining_relation_across_fixtures():
    # R_{(n-1)m} is spanned by z^{n-1} alone, so z R in degree n*m is the
    # line spanned by z^n = g
    for fx in FIXTURES:
        inp = build_input(fx)
        z = (1, WPolynomial.one(inp.ring))
        got = ideal_graded_component(inp, [z], inp.n * inp.m)
        assert got == Subspace(inp.field, [dict(inp.g.terms)]), fx.name


def test_homogeneous_degree_failures():
    inp = cube_two_lines()
    mixed = parse_polynomial("1 + x1", inp.ring)
    with pytest.raises(InhomogeneousPolynomial):
        ideal_graded_component(inp, [(0, mixed)], 6)
    with pytest.raises(ZeroPolynomial):
        ideal_graded_component(inp, [(1, WPolynomial.zero(inp.ring))], 6)


def test_ideal_component_frozen_example():
    # (z, x1) in degree 6: z*R_4 = span(x1 x2) and x1*R_3 = span(x1^2, x1 x2)
    inp = cube_two_lines()
    gens = [(1, WPolynomial.one(inp.ring)), (0, WPolynomial.variable(inp.ring, 0))]
    got = ideal_graded_component(inp, gens, 6)
    assert got == Subspace.unit_space(inp.field, [(2, 0), (1, 1)])
    assert got.dim == 2


def test_ideal_component_whole_ring_when_unit_included():
    inp = cube_two_lines()
    one = (0, WPolynomial.one(inp.ring))
    for j in (0, 2, 3, 5, 6):
        got = ideal_graded_component(inp, [one], j)
        assert got.dim == graded_dim(inp, j)


def test_ideal_component_empty_degrees():
    inp = cube_two_lines()
    z = (1, WPolynomial.one(inp.ring))
    assert ideal_graded_component(inp, [z], 1).dim == 0
    assert ideal_graded_component(inp, [z], 0).dim == 0


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


def test_input_shape_validation():
    inp = cube_two_lines()
    with pytest.raises(DegenerateInput):
        HypersurfaceInput(ring=inp.ring, n=0, g=inp.g, factored=inp.factored, m=inp.m)
    with pytest.raises(DegenerateInput):
        HypersurfaceInput(ring=inp.ring, n=3, g=inp.g, factored=inp.factored, m=inp.m + 1)
    other_g = parse_polynomial("x1^2", inp.ring)
    with pytest.raises(DegenerateInput):
        HypersurfaceInput(ring=inp.ring, n=3, g=other_g, factored=inp.factored, m=2)
