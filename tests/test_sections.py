"""Section spaces of floor(E0 + jD) and their images inside the ring."""

import json
from pathlib import Path

import pytest

from divclass import sections
from divclass.cli import main
from divclass.errors import DegenerateInput, InternalInconsistency
from divclass.hyperring import graded_dim, ideal_graded_component
from divclass.linalg import Subspace
from divclass.sections import (
    default_section_depth,
    divisorial_module_component,
    h0_basis,
    verify_section_ring,
)
from divclass.wpoly import WPolynomial

from conftest import FIXTURES, build_context

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def by_name(name):
    return build_context(next(f for f in FIXTURES if f.name == name))


def test_h0_basis_counts():
    dctx = by_name("cube-two-lines")
    # floor(2D) = (-1, 1) has degree 0: the single section x1 / x2
    space = h0_basis(dctx, (-1, 1))
    assert space.degree == 0
    assert space.dim == 1
    assert space.basis == ((0, 0),)
    assert space.E == (-1, 1)


def test_h0_basis_negative_degree_is_empty():
    dctx = by_name("cube-two-lines")
    assert h0_basis(dctx, (1, -2)).dim == 0
    with pytest.raises(DegenerateInput):
        h0_basis(dctx, (0,))


def test_h0_dimension_matches_ring_dimension():
    for fx in FIXTURES:
        dctx = build_context(fx)
        for j in range(0, 30):
            E, u, v, _ = dctx.floor_of_multiple(j)
            want = graded_dim(dctx.input, j)
            assert h0_basis(dctx, E).dim == want, (fx.name, j)


def test_image_at_degree_m_is_z():
    # T^m clears to z itself for every fixture: H0(floor(mD)) is spanned by
    # one section, R_m by z alone, and the section ring check up to degree m
    # matches the image with it
    for fx in FIXTURES:
        dctx = build_context(fx)
        m = dctx.input.m
        E, _, _, _ = dctx.floor_of_multiple(m)
        assert h0_basis(dctx, E).dim == 1, fx.name
        assert dctx.input.degree_split(m) == (1, 0), fx.name
        report = verify_section_ring(dctx, depth=m)
        assert report.all_match, (fx.name, report.mismatches)
        assert report.checked == m + 1


def test_divisorial_module_matches_ideal_component():
    dctx = by_name("cube-two-lines")
    inp = dctx.input
    E0 = dctx.Et(0)
    gens = [(1, WPolynomial.one(inp.ring)), (0, WPolynomial.variable(inp.ring, 0))]
    got = divisorial_module_component(dctx, E0, 6)
    assert got == ideal_graded_component(inp, gens, 6)
    assert got == Subspace.unit_space(inp.field, [(2, 0), (1, 1)])


def test_divisorial_module_rejects_positive_e0():
    dctx = by_name("cube-two-lines")
    with pytest.raises(DegenerateInput):
        divisorial_module_component(dctx, dctx.Et(0).scale(-1), 3)


def test_divisorial_module_zero_divisor_gives_whole_component():
    dctx = by_name("factorial-two-exponents")
    zero = dctx.zero_divisor()
    for j in range(0, 40):
        got = divisorial_module_component(dctx, zero, j)
        assert got.dim == graded_dim(dctx.input, j), j


def test_verify_section_ring_all_fixtures():
    for fx in FIXTURES:
        dctx = build_context(fx)
        report = verify_section_ring(dctx, depth=60)
        assert report.all_match, (fx.name, report.mismatches[:2])
        assert report.checked == 61
        assert report.depth == 60


def test_verify_section_ring_generic_tail_route():
    # nonzero E0 floors can leave a non-monomial tail; route one section
    # through the slow path by checking a module with a factor denominator
    dctx = by_name("factorial-two-exponents")
    inp = dctx.input
    z, h = (1, WPolynomial.one(inp.ring)), (0, dctx.components[2].form)
    E0 = dctx.Et(0)
    for j in range(0, 40):
        got = divisorial_module_component(dctx, E0, j)
        want = ideal_graded_component(inp, [z, h], j)
        assert got == want, j


def test_non_monomial_clearing_tail_is_an_internal_error(monkeypatch, capsys):
    # floor(jD) never leaves a factor power behind; plant a two-term tail
    # and the check must refuse it instead of reporting a mismatch
    clearing = sections._clearing_data

    def two_term_tail(dctx, denominators, j):
        u_prime, offset, tail = clearing(dctx, denominators, j)
        x1 = WPolynomial.variable(dctx.input.ring, 0)
        return u_prime, offset, tail + x1 * tail

    monkeypatch.setattr(sections, "_clearing_data", two_term_tail)
    with pytest.raises(InternalInconsistency):
        verify_section_ring(by_name("cube-two-lines"), depth=10)
    assert main(["verify", str(JOBS / "z3_x1x2.json"), "--depth", "10"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["code"] == "INTERNAL_INCONSISTENCY"
    assert "factor power" in out["error"]["message"]


def test_default_section_depth():
    dctx = by_name("cube-two-lines")
    inp = dctx.input
    gamma = max(dctx.factor_cdegree(t) for t in range(dctx.r))
    assert default_section_depth(dctx) == max(
        200, 4 * inp.m * inp.n, inp.n * gamma + inp.m * inp.n
    )
