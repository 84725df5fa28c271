"""Section spaces of floor(E0 + jD) and their images inside the ring."""

import dataclasses
import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from divclass import linalg, sections, wpoly
from divclass.cli import main
from divclass.errors import DegenerateInput, InternalInconsistency
from divclass.hyperring import graded_dim, ideal_graded_component, prepare_generator
from divclass.linalg import Subspace
from divclass.oracle import verify_graded
from divclass.qdivisor import DivisorContext, QDivisor, integer_divisor_degree
from divclass.sections import (
    divisorial_module_component,
    h0_basis,
    verify_section_ring,
)
from divclass.wpoly import WPolynomial, coded_terms, encode_monomial

from conftest import FIXTURES, build_context, component_divisor, factor_cdegree

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def by_name(name):
    return build_context(next(f for f in FIXTURES if f.name == name))


def x1_code(dctx):
    """The code of x1, which moves a clearing offset by one in x1."""
    return encode_monomial((1,) + (0,) * (dctx.input.ring.d - 1))


def reference_tail_row(dctx, powers):
    """The prepared row of the product of form_P^e, for the non-variable
    components P and their exponents e in `powers`, or None when every e
    is 0; built here without `sections._tail_row`."""
    d = dctx.input.ring.d
    tail = WPolynomial.one(dctx.input.ring)
    for comp, e in zip(dctx.components[d:], powers):
        tail = tail * comp.form**e
    if not any(powers):
        return None
    return Subspace.prepared_row(dctx.input.field, coded_terms(tail.terms))


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
            E = dctx.floor_shift(dctx.zero_divisor(), j)
            want = graded_dim(dctx.input, j)
            assert h0_basis(dctx, E).dim == want, (fx.name, j)


def test_image_at_degree_m_is_z():
    # T^m clears to z itself for every fixture: H0(floor(mD)) is spanned by
    # one section, R_m by z alone, and the section ring check up to degree m
    # matches the image with it
    for fx in FIXTURES:
        dctx = build_context(fx)
        m = dctx.input.m
        E = dctx.floor_shift(dctx.zero_divisor(), m)
        assert h0_basis(dctx, E).dim == 1, fx.name
        assert dctx.input.degree_split(m) == (1, 0), fx.name
        report = verify_section_ring(dctx, depth=m)
        assert report.all_match, (fx.name, report.mismatches)
        assert report.checked == m + 1


def test_divisorial_module_matches_ideal_component():
    dctx = by_name("cube-two-lines")
    inp = dctx.input
    E0 = dctx.Et(0)
    z = prepare_generator(inp, 1, WPolynomial.one(inp.ring))
    x1 = prepare_generator(inp, 0, WPolynomial.variable(inp.ring, 0))
    got = divisorial_module_component(dctx, E0, 6)
    assert got == ideal_graded_component(inp, z, 6).plus(ideal_graded_component(inp, x1, 6))
    want = [encode_monomial((2, 0)), encode_monomial((1, 1))]
    assert got == Subspace.unit_space(inp.field, want)


def test_divisorial_module_rejects_positive_e0():
    dctx = by_name("cube-two-lines")
    n = dctx.input.n
    with pytest.raises(DegenerateInput):
        divisorial_module_component(dctx, dctx.Et(0).scale(-1), 3)
    # a positive coefficient below 1/n, and one sign of each kind
    small = component_divisor(dctx, 1, Fraction(1, 2 * n))
    mixed = QDivisor(dctx.registry, (Fraction(-1, n), Fraction(1, 7)))
    for E0 in (small, mixed):
        with pytest.raises(DegenerateInput):
            divisorial_module_component(dctx, E0, 3)
    # the nonpositive part alone is accepted
    divisorial_module_component(dctx, QDivisor(dctx.registry, (Fraction(-1, n), 0)), 3)


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
    z = prepare_generator(inp, 1, WPolynomial.one(inp.ring))
    h = prepare_generator(inp, 0, dctx.components[2].form)
    E0 = dctx.Et(0)
    for j in range(0, 40):
        got = divisorial_module_component(dctx, E0, j)
        want = ideal_graded_component(inp, z, j).plus(ideal_graded_component(inp, h, j))
        assert got == want, j


def test_non_monomial_clearing_tail_is_an_internal_error(monkeypatch, capsys):
    # floor(jD) never leaves a factor power behind; plant a two-term tail
    # where the rows of the tails are made and the check must refuse it
    # instead of reporting a mismatch
    tail_row = sections._tail_row

    def two_term_tail(dctx, powers):
        row = tail_row(dctx, powers)
        if row is None:
            ring = dctx.input.ring
            tail = WPolynomial.one(ring) + WPolynomial.variable(ring, 0)
            row = Subspace.prepared_row(dctx.input.field, coded_terms(tail.terms))
            dctx.tail_rows[powers] = row
        return row

    monkeypatch.setattr(sections, "_tail_row", two_term_tail)
    with pytest.raises(InternalInconsistency):
        verify_section_ring(by_name("cube-two-lines"), depth=10)
    assert main(["verify", str(JOBS / "z3_x1x2.json"), "--depth", "10"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["code"] == "INTERNAL_INCONSISTENCY"
    assert "factor power" in out["error"]["message"]


def test_section_ring_asserts_the_degree_of_floor_jd(monkeypatch):
    # deg floor(jD) = v is read off the zero divisor's residue table; a wrong
    # degree for r = 1 on cube-two-lines (n = 3) first shows at j = 4, where
    # v = 0
    dctx = by_name("cube-two-lines")
    table = sections._residue_table(dctx, dctx.zero_divisor())
    degree, offset, row = table.fill(dctx, 1)
    monkeypatch.setitem(table.residues, 1, (degree + 1, offset, row))
    with pytest.raises(InternalInconsistency, match=r"deg floor\(4D\) = 1 but .* v = 0"):
        verify_section_ring(dctx, depth=10)


def test_enumeration_missing_one_vector_is_an_internal_error(monkeypatch, capsys, fresh_caches):
    # both sides of a monomial comparison share one cached key set, so the
    # count of the denumerant table is the enumeration's only independent
    # check: drop one vector of c-degree 4 on unit weights (d = 2), first
    # met at j = 12 of z^3 = x1 x2
    codes = wpoly._codes

    def one_short(weights, v):
        out = codes(weights, v)
        return out[:-1] if (weights, v) == ((1, 1), 4) else out

    monkeypatch.setattr(wpoly, "_codes", one_short)
    with pytest.raises(InternalInconsistency, match="disagrees with its counter"):
        verify_section_ring(by_name("cube-two-lines"), depth=20)
    assert main(["verify", str(JOBS / "z3_x1x2.json"), "--depth", "20"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["code"] == "INTERNAL_INCONSISTENCY"
    assert out["error"]["message"] == "monomial enumeration disagrees with its counter"


def test_default_section_depth():
    # the section ring is checked up to the input's default depth, which
    # also covers n*gamma + m*n
    dctx = by_name("cube-two-lines")
    inp = dctx.input
    gamma = max(factor_cdegree(dctx, t) for t in range(dctx.r))
    expected = max(200, 4 * inp.m * inp.n, inp.n * gamma + inp.m * inp.n)
    report = verify_section_ring(dctx, inp.default_depth())
    assert report.depth == inp.default_depth() == expected
    assert report.checked == expected + 1
    assert report.all_match


def test_shifted_clearing_offset_is_reported_as_mismatch(monkeypatch, capsys):
    # a wrong offset moves every image off the ring basis; the check must
    # list the degrees instead of raising, and verify must exit 1
    clearing = sections._clearing_data

    def shifted(dctx, denominators, j):
        offset, powers = clearing(dctx, denominators, j)
        return offset + x1_code(dctx), powers

    monkeypatch.setattr(sections, "_clearing_data", shifted)
    report = verify_section_ring(by_name("cube-two-lines"), depth=10)
    assert not report.all_match
    assert report.mismatches[0].startswith("j=0: ")
    assert main(["verify", str(JOBS / "z3_x1x2.json"), "--depth", "10"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verification"]["section_ring"]["status"] == "fail"
    assert out["verification"]["status"] == "fail"


def test_leftover_denominator_names_its_component():
    # E above q*g_P on one component cannot be cleared by T^j, whether the
    # component is a variable (offset) or a non-variable factor (tail)
    dctx = by_name("mixed-conic-n3")
    j = 7
    q = dctx.bez.a * j // dctx.input.n
    assert q > 0
    floor = dctx.floor_shift(dctx.zero_divisor(), j)
    for comp in (dctx.components[2], dctx.components[0]):
        E = list(floor)
        E[comp.index] = q * dctx.g_exponents[comp.index] + 1
        if comp.kind == "variable":
            E[comp.index] += dctx.bez.b * j * dctx.svec[comp.index]
        with pytest.raises(InternalInconsistency, match=rf"exponent -1 on {re.escape(comp.label)} "):
            sections._clearing_data(dctx, tuple(E), j)


def test_clearing_tail_is_none_or_the_factor_power():
    # cube-two-lines has only variable factors, so no factor power is ever
    # left; on mixed-conic-n3 the tail is exactly conic**e, and its row is
    # the prepared row of conic**e
    dctx = by_name("cube-two-lines")
    for E0 in (dctx.zero_divisor(), dctx.Et(0), dctx.Et(1)):
        for j in range(41):
            _, powers = sections._clearing_data(dctx, dctx.floor_shift(E0, j), j)
            assert powers == () and sections._tail_row(dctx, powers) is None, (E0, j)
    dctx = by_name("mixed-conic-n3")
    field = dctx.input.field
    conic = dctx.components[dctx.factor_component[2]]
    assert conic.index == dctx.input.ring.d
    E0 = dctx.Et(2)
    seen = set()
    for j in range(41):
        E = dctx.floor_shift(E0, j)
        e = dctx.bez.a * j // dctx.input.n * dctx.g_exponents[conic.index] - E[conic.index]
        _, powers = sections._clearing_data(dctx, E, j)
        assert powers == (e,), j
        want = Subspace.prepared_row(field, coded_terms((conic.form**e).terms)) if e else None
        assert sections._tail_row(dctx, powers) == want, j
        seen.add(e > 0)
    assert seen == {False, True}


def test_factor_powers_are_kept_per_component():
    # on four-factors-n5 the components x1 + x2 and x1 - x2 both need the
    # power e = 1; interleaved on one context, each gets its own
    dctx = by_name("four-factors-n5")
    inp = dctx.input
    d = inp.ring.d
    seen = set()
    for j in range(41):
        q = dctx.bez.a * j // inp.n
        for t in (2, 3):
            comp = dctx.components[dctx.factor_component[t]]
            E = dctx.floor_shift(dctx.Et(t), j)
            e = q * dctx.g_exponents[comp.index] - E[comp.index]
            _, powers = sections._clearing_data(dctx, E, j)
            want = tuple(e if i == comp.index else 0 for i in range(d, len(dctx.components)))
            assert powers == want, (t, j)
            row = Subspace.prepared_row(inp.field, coded_terms((comp.form**e).terms))
            assert sections._tail_row(dctx, powers) == (row if e else None), (t, j)
            if e > 0:
                seen.add((comp.index, e))
    assert seen == {(2, 1), (3, 1)}


@pytest.mark.parametrize("fx", FIXTURES, ids=[fx.name for fx in FIXTURES])
@pytest.mark.parametrize("walk", ["ascending", "descending"])
def test_residue_table_matches_the_per_degree_route(fx, walk):
    # the table keeps deg floor(E0 + rD) and the clearing data at r for each
    # class j mod n; at every j <= 120 both must equal what floor_shift and
    # _clearing_data give at j itself, whether the module's first piece (the
    # one that builds the table) is asked for at j = 0 or at j = 120.  The
    # last E0 has a denominator 7n, and its table too has period n: after
    # the walk it holds one entry per class j mod n and no other.
    dctx = build_context(fx)
    order = range(121) if walk == "ascending" else range(120, -1, -1)
    Ets = [dctx.Et(t) for t in range(dctx.r)]
    sums = [Ets[s] + Ets[t] for s in range(dctx.r) for t in range(s + 1, dctx.r)]
    foreign = Ets[0] + component_divisor(dctx, 0, Fraction(-3, 7))
    for E0 in (dctx.zero_divisor(), *Ets, *(Et.scale(fx.n) for Et in Ets), *sums, foreign):
        divisorial_module_component(dctx, E0, order[0])
        table = sections._residue_table(dctx, E0)
        for j in order:
            E = dctx.floor_shift(E0, j)
            offset, powers = sections._clearing_data(dctx, E, j)
            row = reference_tail_row(dctx, powers)
            want = integer_divisor_degree(dctx.registry, E), offset, row
            assert table.at(dctx, j) == want, (E0, j)
        assert set(table.residues) == {j % fx.n for j in order}, E0


def test_residue_table_fills_only_the_residues_a_walk_reads(monkeypatch, tmp_path, capsys):
    # at n = 100001 each table has L >= n residues, while a walk to depth 10
    # reads at most 11 of them: floor_shift runs at most once per degree
    # walked and divisor
    calls = Counter()
    floor_shift = DivisorContext.floor_shift

    def counting(self, E0, j):
        calls[E0.den, E0.nums] += 1
        return floor_shift(self, E0, j)

    monkeypatch.setattr(DivisorContext, "floor_shift", counting)
    job = {
        "schema_version": 1, "field": "Q", "n": 100001, "variables": ["x1", "x2"],
        "weights": [1, 1], "factors": ["x1", "x2", "x1^2 + x2^2"], "assume_normal": True,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["verify", str(path), "--depth", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["status"] == "pass"
    assert calls and max(calls.values()) <= 11, calls


# mixed-conic-n3 with its conic scaled: a non-primitive form with negative
# leading coefficient over Q, a non-monic one over F_7
_SCALED_CONICS = tuple(
    dataclasses.replace(
        next(f for f in FIXTURES if f.name == "mixed-conic-n3"),
        name=f"mixed-conic-n3-{conic}-{field}",
        factor_texts=("x1", "x2", conic),
        field=field,
    )
    for conic, field in (("-2*x1^2 - 2*x2^2", "Q"), ("3*x1^2 + 3*x2^2", "F7"))
)


@pytest.mark.parametrize(
    "fx", FIXTURES + _SCALED_CONICS, ids=[fx.name for fx in FIXTURES + _SCALED_CONICS]
)
def test_residue_tables_hold_canonical_rows(fx):
    # every table the walk builds keeps each tail as a nonempty frozenset of
    # the items of a row that `canonical_row` leaves as it is (monic
    # residues over F_p, a primitive integer row with positive pivot over
    # Q), ready for `Subspace.shifted`
    dctx = build_context(fx)
    verify_graded(dctx, 2 * dctx.input.m * dctx.input.n)
    field = dctx.input.field
    rows = [
        row for table in dctx.module_tables.values() for _, _, row in table.residues.values()
    ]
    assert len(dctx.module_tables) == 2 * dctx.r
    for row in rows:
        assert row is None or (
            type(row) is frozenset and row and Subspace.canonical_row(field, dict(row)) == dict(row)
        ), row
    # a factor that is no variable leaves its power behind at some residue
    assert any(rows) == any(c.kind != "variable" for c in dctx.components)


def test_clearing_data_is_computed_once_per_residue(monkeypatch):
    # one floor_shift and one _clearing_data call per residue class of the
    # job, on the zero divisor, however many module divisors the check reads
    # and however deep it goes: every divisor's table corrects that base
    calls = Counter()
    clearing = sections._clearing_data
    floor_shift = DivisorContext.floor_shift

    def counted(dctx, denominators, j):
        calls["clearing", j % dctx.input.n] += 1
        return clearing(dctx, denominators, j)

    def counted_floor(self, E0, j):
        calls["floor", (E0.den, E0.nums), j % self.input.n] += 1
        return floor_shift(self, E0, j)

    monkeypatch.setattr(sections, "_clearing_data", counted)
    monkeypatch.setattr(DivisorContext, "floor_shift", counted_floor)
    seen = []
    for depth in (30, 90):
        calls.clear()
        assert main(["verify", str(JOBS / "z3_x1x2.json"), "--depth", str(depth)]) == 0
        seen.append(dict(calls))
    # z3_x1x2 (n = 3) checks the modules of 0, E_1, E_2, 3*E_1 and 3*E_2
    zero = (1, (0, 0))
    want = {("clearing", r): 1 for r in range(3)} | {("floor", zero, r): 1 for r in range(3)}
    assert seen[0] == seen[1] == want


def test_wrong_offset_in_one_residue_class_fails_only_that_class(monkeypatch, capsys):
    # the clearing data of the class j = 1 (mod 3) is planted wrong where it
    # is computed; every later degree of that class reads it from the table.
    # The ideal side (hyperring) takes no part in the table, so verify must
    # fail at degrees of that class, in several periods, and nowhere else.
    clearing = sections._clearing_data

    def planted(dctx, denominators, j):
        offset, powers = clearing(dctx, denominators, j)
        if j % 3 == 1:
            offset += x1_code(dctx)
        return offset, powers

    monkeypatch.setattr(sections, "_clearing_data", planted)
    assert main(["verify", str(JOBS / "z3_x1x2.json"), "--depth", "30"]) == 1
    ver = json.loads(capsys.readouterr().out)["verification"]
    oracle = ver["oracle"]
    failures = [
        *ver["section_ring"]["mismatches"],
        *(f for ideal in oracle["divisorial_ideals"] for f in ideal["failures"]),
        *oracle["order_relations"]["failures"],
    ]
    degrees = {int(d) for f in failures for d in re.findall(r"\bj=(\d+)", f)}
    assert degrees and all(j % 3 == 1 for j in degrees), sorted(degrees)
    assert max(degrees) >= 25 and len(degrees) >= 5, sorted(degrees)
    assert ver["section_ring"]["status"] == ver["oracle"]["status"] == "fail"


@pytest.mark.parametrize("name", ["cube-two-lines", "four-factors-n5", "mixed-conic-n3"])
def test_planted_residue_base_fails_only_its_class(monkeypatch, name):
    # the job's base entry of one residue r0 < n is planted wrong where it
    # is kept: its clearing offset moves by one in x1.  Every module table
    # (0, the E_t, the n*E_t) corrects that one entry, so the section ring
    # and the oracle must both fail, at degrees j = r0 (mod n) only, over
    # several periods, while the ideal side (hyperring) stays as it is
    dctx = by_name(name)
    n, r0 = dctx.input.n, 1
    base = sections._residue_base

    def planted(dctx, r):
        floor, degree, offset, powers = base(dctx, r)
        if r == r0:
            offset += x1_code(dctx)
            dctx.residue_base[r] = floor, degree, offset, powers
        return floor, degree, offset, powers

    monkeypatch.setattr(sections, "_residue_base", planted)
    depth = 8 * n
    report = verify_section_ring(dctx, depth)
    ideals, relations = verify_graded(dctx, depth)
    for failures in (
        report.mismatches,
        [f for outcome in ideals for f in outcome.failures] + list(relations.failures),
    ):
        degrees = {int(d) for f in failures for d in re.findall(r"\bj=(\d+)", f)}
        assert degrees and all(j % n == r0 for j in degrees), sorted(degrees)
        assert max(degrees) >= 5 * n and len(degrees) >= 4, sorted(degrees)
    # both walks read the base entries, one per residue class
    assert sorted(dctx.residue_base) == list(range(n))


def test_a_cached_piece_is_a_fresh_space(fresh_caches):
    # the module of n*E_t and h_t R (t the conic of mixed-conic-n3) at j = 9
    # translate one row by one key set, so the second piece comes from the
    # entry the first one built: a new space over a copy of the kept rows,
    # which an insert into the first piece leaves as they were
    dctx = by_name("mixed-conic-n3")
    inp = dctx.input
    conic = dctx.components[2].form
    nE = dctx.Et(2).scale(inp.n)
    first = divisorial_module_component(dctx, nE, 9)
    assert isinstance(first, Subspace) and 0 < first.dim < graded_dim(inp, 9)
    kept = {piv: dict(row) for piv, row in first.rows.items()}
    before = linalg._translates.cache_info()
    outside = {(0, 3): 1}
    assert first.insert(outside)
    for again in (
        divisorial_module_component(dctx, nE, 9),
        ideal_graded_component(inp, prepare_generator(inp, 0, conic), 9),
    ):
        assert again is not first and again.rows is not first.rows
        assert again.rows == kept
        assert not again.contains(outside)
    after = linalg._translates.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)


def test_translate_cache_stays_at_its_size_after_a_deep_walk(fresh_caches):
    # a walk to depth 300 on mixed-conic-n3 builds far more translates than
    # the cache keeps; it keeps the TRANSLATE_CACHE_SIZE most recent, which
    # still serve most of the walk's pieces
    verify_graded(by_name("mixed-conic-n3"), 300)
    info = linalg._translates.cache_info()
    assert info.maxsize == linalg.TRANSLATE_CACHE_SIZE == 32
    assert info.currsize == linalg.TRANSLATE_CACHE_SIZE
    assert info.misses > 4 * linalg.TRANSLATE_CACHE_SIZE
    assert info.hits > info.misses
