"""Independent recomputation routes: every oracle here must agree with the
main pipeline on inputs where both are defined, and the oracles themselves
are pinned to hand-checked values.
"""

import builtins
import dataclasses
from collections import Counter

import pytest

from divclass import linalg, oracle, sections
from divclass.errors import DegenerateInput, GcdViolation, SearchSpaceTooLarge
from divclass.exactmath import cokernel_with_generator_images
from divclass.fields import FieldSpec
from divclass.hyperring import graded_dim, ideal_graded_component, prepare_generator
from divclass.linalg import MonomialSpace, Subspace
from divclass.oracle import (
    MonomialModel,
    cyclotomic_product_check,
    diagonal_d2_crosscheck,
    exhaustive_fp_factor_count,
    monomial_model_classgroup,
    quotient_invariants_bruteforce,
    verify_divisorial_ideal_graded,
    verify_graded,
    verify_order_relations_graded,
)
from divclass.sections import verify_section_ring
from divclass.wpoly import WPolynomial, encode_monomial, enumerate_monomials_of_degree

from conftest import FIXTURES, build_context


def _labels(inp, v):
    """The labels of the pieces' coordinates in c-degree v: the codes of the
    monomials of that degree."""
    return [encode_monomial(e) for e in enumerate_monomials_of_degree(inp.ring, v)]

Q = FieldSpec.rationals()


# ---------------------------------------------------------------------------
# graded identities

def test_divisorial_ideal_identity_all_fixtures():
    for fx in FIXTURES:
        dctx = build_context(fx)
        for t in range(dctx.r):
            outcome = verify_divisorial_ideal_graded(dctx, t, depth=40)
            assert outcome.ok, (fx.name, t, outcome.failures[:2])
            assert outcome.depth == 40
            assert outcome.t == t


def test_order_relations_all_fixtures():
    for fx in FIXTURES:
        dctx = build_context(fx)
        outcome = verify_order_relations_graded(dctx, depth=40)
        assert outcome.ok, (fx.name, outcome.failures[:2])
        assert outcome.order_ok and outcome.intersection_ok
        want = "intersection" if dctx.r >= 2 else "single-factor"
        assert outcome.variant == want


def test_single_factor_variant():
    fx = next(f for f in FIXTURES if f.name == "factorial-two-exponents")
    outcome = verify_order_relations_graded(build_context(fx), depth=60)
    assert outcome.variant == "single-factor"
    assert outcome.ok


def test_same_dimension_error_is_caught(monkeypatch):
    # Plant an error that keeps the dimension: at the first degree where the
    # module piece is a general row space strictly inside R_j, swap one of
    # its rows for a unit row outside its span.
    fx = next(f for f in FIXTURES if f.name == "four-factors-n5")
    dctx = build_context(fx)
    real = oracle.divisorial_module_component
    planted = []

    def module_with_planted_error(dctx, E0, j):
        space = real(dctx, E0, j)
        if planted or not isinstance(space, Subspace):
            return space
        if not 0 < space.dim < graded_dim(dctx.input, j):
            return space
        labels = _labels(dctx.input, dctx.input.degree_split(j)[1])
        outside = next(k for k in labels if not space.contains({k: 1}))
        kept = [row for _, row in sorted(space.rows.items())[1:]]
        planted.append(j)
        return Subspace(space.field, kept + [{outside: 1}])

    monkeypatch.setattr(oracle, "divisorial_module_component", module_with_planted_error)
    outcome = verify_divisorial_ideal_graded(dctx, 2, 60)
    assert not outcome.ok
    assert planted == [5]
    (failure,) = outcome.failures
    assert failure.startswith("t=2 j=5: module dim ")
    assert failure.endswith("; module not inside ideal, ideal not inside module")


def test_factor_index_out_of_range():
    dctx = build_context(FIXTURES[0])
    with pytest.raises(DegenerateInput):
        verify_divisorial_ideal_graded(dctx, dctx.r, depth=10)


@pytest.mark.parametrize(
    "name, j_order, j_sum, failures, variant",
    [
        (
            "cube-two-lines",
            3,
            6,
            ("order t=0 j=3", "intersection j=6"),
            "intersection",
        ),
        (
            "factorial-two-exponents",
            30,
            15,
            ("order t=0 j=30", "containment j=15"),
            "single-factor",
        ),
    ],
)
def test_relation_failures_name_their_degrees(
    monkeypatch, name, j_order, j_sum, failures, variant
):
    # empty the module piece of n*E_0 at one degree and of E_0 at another;
    # each check must report exactly its own degree
    dctx = build_context(next(f for f in FIXTURES if f.name == name))
    E0, nE0 = dctx.Et(0), dctx.Et(0).scale(dctx.input.n)
    real = oracle.divisorial_module_component

    def planted(dctx, E, j):
        if (E, j) in ((nE0, j_order), (E0, j_sum)):
            return MonomialSpace(dctx.input.field)
        return real(dctx, E, j)

    monkeypatch.setattr(oracle, "divisorial_module_component", planted)
    outcome = verify_order_relations_graded(dctx, depth=40)
    assert outcome.failures == failures
    assert not outcome.order_ok and not outcome.intersection_ok
    assert outcome.variant == variant
    ideal = verify_divisorial_ideal_graded(dctx, 0, depth=40)
    (failure,) = ideal.failures
    assert failure.startswith(f"t=0 j={j_sum}: module dim 0 vs ideal dim ")


@pytest.mark.parametrize(
    "name, t, kind", [("cube-two-lines", 0, MonomialSpace), ("four-factors-n5", 2, Subspace)]
)
def test_moved_module_offset_fails_at_its_degree(monkeypatch, name, t, kind):
    # move E_t's clearing offset by one in x1 at a single degree j0; the
    # ideal side derives its own shifts from the generators' exponents, so
    # the walk must fail at j0 and nowhere else.  E_0 of cube-two-lines has
    # monomial pieces; E_2 of four-factors-n5 (factor x1 + x2) has rows
    # with a factor tail at some degrees, and j0 is taken among those.  The
    # offset is moved in the entry of E_t's residue table that the walk
    # reads at j0, the entry of j0 mod n; the table serves every degree of
    # that class, so the moved entry is in place only while E_t's piece at
    # j0 is built
    dctx = build_context(next(f for f in FIXTURES if f.name == name))
    E = dctx.Et(t)
    pieces = {j: sections.divisorial_module_component(dctx, E, j) for j in range(7, 40)}
    j0 = next(j for j, piece in pieces.items() if isinstance(piece, kind) and piece.dim)
    table = sections._residue_table(dctx, E)
    r0 = j0 % dctx.input.n
    degree, offset, row = table.residues[r0]
    x1 = encode_monomial((1,) + (0,) * (dctx.input.ring.d - 1))
    real = oracle.divisorial_module_component

    def moved_at_j0(dctx, E0, j):
        if j != j0 or E0 != E:
            return real(dctx, E0, j)
        monkeypatch.setitem(table.residues, r0, (degree, offset + x1, row))
        try:
            return real(dctx, E0, j)
        finally:
            table.residues[r0] = (degree, offset, row)

    monkeypatch.setattr(oracle, "divisorial_module_component", moved_at_j0)
    ideals, relations = verify_graded(dctx, 40)
    (failure,) = ideals[t].failures
    assert failure.startswith(f"t={t} j={j0}: module dim ")
    assert all(outcome.ok for s, outcome in enumerate(ideals) if s != t)
    assert relations.order_ok
    assert all(f.endswith(f" j={j0}") for f in relations.failures)


def _bumped(c: int, p: int) -> int:
    """c + 1, or c + 2 where c + 1 is zero in the field of characteristic p."""
    for new in (c + 1, c + 2):
        new = new % p if p else new
        if new:
            return new


@pytest.mark.parametrize("field", ["Q", "F7"])
def test_changed_coefficient_under_the_same_pivots_fails_at_its_degree(monkeypatch, field):
    # change one non-leading coefficient of one row of H_t (t the factor
    # x1^2 + x2^2) at the first u = 0 degree j0 where H_t is a general row
    # space strictly inside R_j, on a label whose unit row lies outside H_t:
    # the pivots and the dimension stay, so the spans differ although no
    # shortcut on pivots, dimensions or row dicts can tell, and the walk
    # must fail at j0 on the ideal and the order check, and nowhere else
    fx = next(f for f in FIXTURES if f.name == "mixed-conic-n3")
    dctx = build_context(dataclasses.replace(fx, name=f"{fx.name}-{field}", field=field))
    inp, p = dctx.input, dctx.input.field.char
    forms = [dctx.components[c].form for c in dctx.factor_component]
    (t,) = [s for s, form in enumerate(forms) if len(form.terms) > 1]
    generator = prepare_generator(inp, 0, forms[t])
    ideals, relations = verify_graded(dctx, 40)
    assert all(outcome.ok for outcome in ideals) and relations.ok

    def changed(j):
        split = inp.degree_split(j)
        if split is None or split[0] != 0:
            return None
        piece = ideal_graded_component(inp, generator, j)
        if not isinstance(piece, Subspace) or not 0 < piece.dim < graded_dim(inp, j):
            return None
        for piv, row in sorted(piece.rows.items()):
            for k, c in sorted(row.items()):
                if k != piv and not piece.contains({k: 1}):
                    out = Subspace(piece.field)
                    out.rows = {key: dict(r) for key, r in piece.rows.items()}
                    out.rows[piv][k] = _bumped(c, p)
                    return out
        return None

    j0 = next(j for j in range(41) if changed(j) is not None)
    planted = changed(j0)
    real = oracle.ideal_graded_component
    assert real(inp, generator, j0).dim == planted.dim
    assert real(inp, generator, j0).rows.keys() == planted.rows.keys()

    def with_changed_row(inp, gen, j):
        return planted if (gen, j) == (generator, j0) else real(inp, gen, j)

    monkeypatch.setattr(oracle, "ideal_graded_component", with_changed_row)
    ideals, relations = verify_graded(dctx, 40)
    (failure,) = ideals[t].failures
    assert failure.startswith(f"t={t} j={j0}: module dim ")
    assert all(outcome.ok for s, outcome in enumerate(ideals) if s != t)
    assert relations.failures == (f"order t={t} j={j0}",)
    assert relations.intersection_ok


@pytest.mark.parametrize("field", ["Q", "F7"])
def test_changed_tail_coefficient_fails_past_a_warm_translate_cache(
    monkeypatch, fresh_caches, field
):
    # the pattern of the test above on the module side, with the translate
    # cache of `Subspace.shifted` warm: on mixed-conic-n3 the residue table
    # of n*E_t (t the conic) keeps the conic's row at a zero offset in every
    # class, the row and key set of h_t R at the same degree, so the clean
    # walk serves N_t and H_t from one entry per degree.  A non-leading
    # coefficient of the row of the class r = 1 is then changed in the
    # table, with the entries of the clean walk still kept: N_t must fail at
    # each degree of that class where H_t is a general row space strictly
    # inside R_j, on the order check only, and nowhere else
    fx = next(f for f in FIXTURES if f.name == "mixed-conic-n3")
    dctx = build_context(dataclasses.replace(fx, name=f"{fx.name}-{field}", field=field))
    inp, p = dctx.input, dctx.input.field.char
    forms = [dctx.components[c].form for c in dctx.factor_component]
    (t,) = [s for s, form in enumerate(forms) if len(form.terms) > 1]
    generator = prepare_generator(inp, 0, forms[t])
    ideals, relations = verify_graded(dctx, 40)
    assert all(outcome.ok for outcome in ideals) and relations.ok
    warm = linalg._translates.cache_info()
    # nothing was evicted, so every clean entry is still kept
    assert 0 < warm.misses == warm.currsize < linalg.TRANSLATE_CACHE_SIZE

    table = sections._residue_table(dctx, dctx.Et(t).scale(inp.n))
    r = 1
    degree, offset, row = table.residues[r]
    assert row == generator.row and offset == 0
    changed = dict(row)
    k = min(changed)  # a label below the pivot
    changed[k] = _bumped(changed[k], p)
    monkeypatch.setitem(table.residues, r, (degree, offset, frozenset(changed.items())))

    want = []
    for j in range(41):
        piece = ideal_graded_component(inp, generator, j)
        if j % inp.n == r and isinstance(piece, Subspace) and 0 < piece.dim < graded_dim(inp, j):
            want.append(j)
    assert len(want) >= 5, want
    ideals, relations = verify_graded(dctx, 40)
    assert all(outcome.ok for outcome in ideals)
    assert relations.failures == tuple(f"order t={t} j={j}" for j in want)
    assert relations.intersection_ok
    # the walk read the clean entries it had kept
    assert linalg._translates.cache_info().hits > warm.hits + 40


def _count_calls(monkeypatch, run) -> Counter:
    """Pieces and intersections built while `run()` executes."""
    calls = Counter()
    for module, fn in (
        (oracle, "divisorial_module_component"),
        (oracle, "ideal_graded_component"),
        (oracle, "intersect_all"),
        (sections, "divisorial_module_component"),
    ):
        def counted(*args, _real=getattr(module, fn), _fn=fn):
            calls[_fn] += 1
            return _real(*args)

        monkeypatch.setattr(module, fn, counted)
    try:
        run()
    finally:
        monkeypatch.undo()
    return calls


def _ideal_generators(dctx):
    """The prepared generators of zR and of each h_t R, as `verify_graded` has them."""
    inp = dctx.input
    zgen = prepare_generator(inp, 1, WPolynomial.one(inp.ring))
    forms = [dctx.components[c].form for c in dctx.factor_component]
    return zgen, [prepare_generator(inp, 0, form) for form in forms]


def _some_ideal_is_not_z(dctx, j) -> bool:
    """Whether some (z, h_t) differs from zR in degree j, that is h_t R is not inside zR."""
    zgen, hgens = _ideal_generators(dctx)
    Z = ideal_graded_component(dctx.input, zgen, j)
    return any(not Z.contains_space(ideal_graded_component(dctx.input, h, j)) for h in hgens)


def test_verify_work_is_counted_per_degree(monkeypatch):
    # one walk builds, per degree, M_t and N_t for each t (2r module pieces)
    # and Z and each H_t (r + 1 ideal pieces); when r >= 2 it intersects the
    # M_t only at the degrees where some ideal (z, h_t) is not zR, since
    # elsewhere the passing M_t all equal Z.  The section ring adds one
    # module piece per degree, and each standalone check, a view of the
    # walk, builds exactly the pieces of one walk
    depth = 20
    for fx in FIXTURES:
        dctx = build_context(fx)
        r, d = dctx.r, depth
        meets = sum(_some_ideal_is_not_z(dctx, j) for j in range(d + 1))
        walk = Counter(
            divisorial_module_component=2 * r * (d + 1),
            ideal_graded_component=(r + 1) * (d + 1),
            intersect_all=meets if r >= 2 else 0,
        )
        # zR is all of R_j at every u >= 1 degree, so only u = 0 degrees meet
        inp = dctx.input
        assert meets <= sum(j * inp.m_inv % inp.n == 0 for j in range(d + 1)), fx.name

        def one_walk():
            ideals, relations = verify_graded(dctx, depth)
            assert all(outcome.ok for outcome in ideals) and relations.ok
            assert verify_section_ring(dctx, depth).all_match

        assert _count_calls(monkeypatch, one_walk) == walk + Counter(
            divisorial_module_component=d + 1
        ), fx.name
        for standalone in (
            lambda: verify_divisorial_ideal_graded(dctx, r - 1, depth),
            lambda: verify_order_relations_graded(dctx, depth),
        ):
            assert _count_calls(monkeypatch, standalone) == walk, fx.name


def _full_intersections(monkeypatch):
    """Make `verify_graded` intersect at every degree.

    `MonomialSpace.plus` returns an equal copy where it would return an
    operand, so no Z + H_t is Z itself and no degree skips its intersection."""
    real = MonomialSpace.plus

    def copied(self, other):
        out = real(self, other)
        if out is self or out is other:
            return MonomialSpace(out.field, out.keys)
        return out

    monkeypatch.setattr(MonomialSpace, "plus", copied)


def _walk_both_ways(monkeypatch, dctx, depth):
    """(fast outcomes, intersections) and the same with an intersection at every degree."""
    calls = Counter()
    real = oracle.intersect_all

    def counted(spaces):
        calls["intersect_all"] += 1
        return real(spaces)

    monkeypatch.setattr(oracle, "intersect_all", counted)
    fast = verify_graded(dctx, depth), calls["intersect_all"]
    calls.clear()
    with monkeypatch.context() as full:
        _full_intersections(full)
        reference = verify_graded(dctx, depth), calls["intersect_all"]
    monkeypatch.setattr(oracle, "intersect_all", real)
    return fast, reference


def test_skipped_intersections_leave_every_outcome_as_it_is(monkeypatch):
    depth = 40
    for fx in FIXTURES:
        dctx = build_context(fx)
        (fast, met), (reference, met_all) = _walk_both_ways(monkeypatch, dctx, depth)
        assert fast == reference, fx.name
        assert all(outcome.ok for outcome in fast[0]) and fast[1].ok, fx.name
        if dctx.r >= 2:
            assert met_all == depth + 1 and met < met_all, fx.name


@pytest.mark.parametrize("u_zero", [False, True], ids=["u>=1", "u=0"])
def test_skipped_intersections_see_a_planted_module_error(monkeypatch, u_zero):
    # empty M_0 at the first degree j1 >= 4 with the chosen kind of split
    # where zR is not 0: both walks must report the same failures, which
    # are the module check of E_0 and the intersection (or, for r = 1,
    # containment) check at j1 and nothing else
    depth = 40
    for fx in FIXTURES:
        dctx = build_context(fx)
        inp = dctx.input
        zgen, _ = _ideal_generators(dctx)
        j1 = next(
            j for j in range(4, depth + 1)
            if inp.degree_split(j) is not None
            and (inp.degree_split(j)[0] == 0) == u_zero
            and ideal_graded_component(inp, zgen, j).dim
        )
        real = oracle.divisorial_module_component
        E0 = dctx.Et(0)

        def emptied(dctx, E, j):
            if (E, j) == (E0, j1):
                return MonomialSpace(dctx.input.field)
            return real(dctx, E, j)

        monkeypatch.setattr(oracle, "divisorial_module_component", emptied)
        (fast, _), (reference, _) = _walk_both_ways(monkeypatch, dctx, depth)
        monkeypatch.setattr(oracle, "divisorial_module_component", real)
        assert fast == reference, fx.name
        ideals, relations = fast
        (failure,) = ideals[0].failures
        assert failure.startswith(f"t=0 j={j1}: module dim 0 vs ideal dim "), fx.name
        assert all(outcome.ok for outcome in ideals[1:]), fx.name
        label = "intersection" if dctx.r >= 2 else "containment"
        assert relations.failures == (f"{label} j={j1}",), fx.name


def test_skipped_intersections_see_modules_that_equal_larger_ideals(monkeypatch):
    # at the first u = 0 degree j2 >= 4 where zR is not all of R_j, make
    # every H_t and every M_t all of R_j: each M_t then equals its ideal
    # Z + H_t, which is not Z, so the M_t must still be intersected, and
    # for r >= 2 they meet in R_j, not in Z
    depth = 40
    for fx in FIXTURES:
        dctx = build_context(fx)
        inp = dctx.input
        zgen, _ = _ideal_generators(dctx)
        j2 = next(
            j for j in range(4, depth + 1)
            if inp.degree_split(j) is not None and inp.degree_split(j)[0] == 0
            and ideal_graded_component(inp, zgen, j).dim < graded_dim(inp, j)
        )
        whole = MonomialSpace(inp.field, _labels(inp, inp.degree_split(j2)[1]))
        Ets = [dctx.Et(t) for t in range(dctx.r)]
        real_module, real_ideal = oracle.divisorial_module_component, oracle.ideal_graded_component

        def module(dctx, E, j):
            return whole if j == j2 and E in Ets else real_module(dctx, E, j)

        def ideal(inp, gen, j):
            return whole if j == j2 and gen.u == 0 else real_ideal(inp, gen, j)

        monkeypatch.setattr(oracle, "divisorial_module_component", module)
        monkeypatch.setattr(oracle, "ideal_graded_component", ideal)
        (fast, _), (reference, _) = _walk_both_ways(monkeypatch, dctx, depth)
        monkeypatch.undo()
        assert fast == reference, fx.name
        ideals, relations = fast
        assert all(outcome.ok for outcome in ideals), fx.name
        assert relations.intersection_ok == (dctx.r == 1), fx.name
        if dctx.r >= 2:
            assert f"intersection j={j2}" in relations.failures, fx.name


def test_verify_graded_compares_fields_by_identity(monkeypatch):
    # every piece of one walk holds the job's one FieldSpec, so no comparison
    # in the walk needs the value equality of `FieldSpec.__eq__`
    calls = Counter()
    real = FieldSpec.__eq__

    def counted(self, other):
        calls["eq"] += 1
        return real(self, other)

    contexts = [build_context(fx) for fx in FIXTURES]
    monkeypatch.setattr(FieldSpec, "__eq__", counted)
    for dctx in contexts:
        ideals, relations = verify_graded(dctx, 20)
        assert all(outcome.ok for outcome in ideals) and relations.ok
    monkeypatch.undo()
    assert calls["eq"] == 0
    # the count does see a value comparison
    monkeypatch.setattr(FieldSpec, "__eq__", counted)
    assert MonomialSpace(Q, [(1,)]) == MonomialSpace(FieldSpec(0), [(1,)])
    monkeypatch.undo()
    assert calls["eq"] == 1


def _standalone(dctx, depth):
    ideals = tuple(
        verify_divisorial_ideal_graded(dctx, t, depth) for t in range(dctx.r)
    )
    return ideals, verify_order_relations_graded(dctx, depth)


def test_one_walk_equals_the_standalone_checks():
    for fx in FIXTURES:
        dctx = build_context(fx)
        assert verify_graded(dctx, 30) == _standalone(dctx, 30), fx.name


def test_one_walk_equals_the_standalone_checks_under_planted_errors(monkeypatch):
    # the planted errors of the two tests above, made stateless so that both
    # routes see the same pieces: a same-dimension swap in every general row
    # piece of E_2 strictly inside R_j, and emptied pieces of n*E_0 and E_0
    fx = next(f for f in FIXTURES if f.name == "four-factors-n5")
    dctx = build_context(fx)
    real = oracle.divisorial_module_component
    E2 = dctx.Et(2)

    def swapped(dctx, E0, j):
        space = real(dctx, E0, j)
        if E0 != E2 or not isinstance(space, Subspace):
            return space
        if not 0 < space.dim < graded_dim(dctx.input, j):
            return space
        labels = _labels(dctx.input, dctx.input.degree_split(j)[1])
        outside = next(k for k in labels if not space.contains({k: 1}))
        kept = [row for _, row in sorted(space.rows.items())[1:]]
        return Subspace(space.field, kept + [{outside: 1}])

    monkeypatch.setattr(oracle, "divisorial_module_component", swapped)
    ideals, relations = verify_graded(dctx, 30)
    assert (ideals, relations) == _standalone(dctx, 30)
    assert [outcome.ok for outcome in ideals] == [True, True, False, True]
    assert ideals[2].failures[0].startswith("t=2 j=5: module dim ")
    assert relations.order_ok and not relations.intersection_ok

    for name, j_order, j_sum in (
        ("cube-two-lines", 3, 6),
        ("factorial-two-exponents", 30, 15),
    ):
        dctx = build_context(next(f for f in FIXTURES if f.name == name))
        E0, nE0 = dctx.Et(0), dctx.Et(0).scale(dctx.input.n)

        def emptied(dctx, E, j, _planted=((nE0, j_order), (E0, j_sum))):
            if (E, j) in _planted:
                return MonomialSpace(dctx.input.field)
            return real(dctx, E, j)

        monkeypatch.setattr(oracle, "divisorial_module_component", emptied)
        ideals, relations = verify_graded(dctx, 40)
        assert (ideals, relations) == _standalone(dctx, 40), name
        assert not ideals[0].ok and not relations.order_ok, name


# ---------------------------------------------------------------------------
# the two-variable monomial model

def test_monomial_model_membership():
    model = MonomialModel(n=3, bound=9)
    members = model.members(2)
    assert (2, 2) in members and (2, 5) in members
    assert all((i - l) % 3 == 0 and i >= 2 for i, l in members)


def test_principal_generator_minima_equal_the_member_minima():
    # the minima read off at most n points equal those over the whole
    # member list, which stays the reference; bounds below n and negative
    # j included
    for n in range(2, 13):
        for bound in (0, n - 1, 3 * n, 6 * n):
            model = MonomialModel(n=n, bound=bound)
            for j in range(-n, 2 * n + 1):
                members = model.members(j)
                want = None
                if members:
                    p = min(i for i, _ in members)
                    q = min(l for _, l in members)
                    want = (p, q) if (p - q) % n == 0 else None
                assert model.principal_generator(j) == want, (n, bound, j)


def test_monomial_model_orders():
    for n in range(2, 9):
        report = monomial_model_classgroup(n)
        assert report.conclusive
        assert report.order == n, n
        assert report.principal_iff_multiple, n


def test_monomial_model_entries_are_witnessed():
    report = monomial_model_classgroup(4)
    by_j = {j: (principal, gen) for j, principal, gen in report.entries}
    assert by_j[0] == (True, (0, 0))
    assert by_j[4] == (True, (4, 0))
    assert by_j[8] == (True, (8, 0))
    assert not by_j[1][0] and by_j[1][1] is None


def test_monomial_model_small_bound_is_inconclusive():
    report = monomial_model_classgroup(4, bound=10)
    assert not report.conclusive
    assert report.order is None


def test_monomial_model_rejects_tiny_n():
    with pytest.raises(DegenerateInput):
        monomial_model_classgroup(1)


def test_monomial_model_work_bounds_the_scan(monkeypatch):
    # `principal_generator` reads the points i of one `range` per ideal;
    # count them through the module's name `range`
    read = []

    def counted_range(*args):
        points = builtins.range(*args)
        read.append(len(points))
        return points

    monkeypatch.setattr(oracle, "range", counted_range, raising=False)
    for n in range(2, 12):
        for bound in (0, 1, n - 1, 10, 3 * n, 6 * n, 10**6):
            model = MonomialModel(n=n, bound=bound)
            read.clear()
            for j in range(2 * n + 1):
                model.principal_generator(j)
            assert len(read) == 2 * n + 1, (n, bound)
            assert sum(read) <= oracle.monomial_model_work(n, bound), (n, bound)


def test_monomial_model_is_refused_on_its_estimate_alone(monkeypatch):
    # the largest n at the default bound 6n is 706; past it no point is
    # visited: `principal_generator` is the scan, and a scan would raise here
    def unreachable(*args):
        raise AssertionError("the monomial model scanned past its work bound")

    assert oracle.monomial_model_work(706, 6 * 706) <= oracle.MAX_MONOMIAL_MODEL_WORK
    assert oracle.monomial_model_work(707, 6 * 707) > oracle.MAX_MONOMIAL_MODEL_WORK
    assert monomial_model_classgroup(706).order == 706
    assert monomial_model_classgroup(4, 10**6).order == 4
    monkeypatch.setattr(MonomialModel, "principal_generator", unreachable)
    with pytest.raises(AssertionError, match="scanned past"):
        monomial_model_classgroup(706)
    for n in (707, 1009, 10**9):
        with pytest.raises(SearchSpaceTooLarge, match="above the limit"):
            monomial_model_classgroup(n)


# ---------------------------------------------------------------------------
# factor counting cross-checks

def test_cyclotomic_product_identity():
    for c in range(1, 51):
        assert cyclotomic_product_check(c), c
    with pytest.raises(DegenerateInput):
        cyclotomic_product_check(0)


def test_exhaustive_fp_counts():
    # (c, p, count) triples verified by hand against the factorizations
    pinned = [
        (1, 3, 1),   # t + 1
        (2, 3, 1),   # t^2 + 1 irreducible mod 3
        (2, 5, 2),   # (t + 2)(t + 3) mod 5
        (3, 7, 3),   # (t + 1)(t + 3)(t + 5) mod 7
        (4, 3, 2),   # two quadratics mod 3
        (3, 2, 2),   # (t + 1)(t^2 + t + 1) mod 2
    ]
    for c, p, want in pinned:
        assert exhaustive_fp_factor_count(c, p) == want, (c, p)


def test_exhaustive_fp_budget_guard():
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_fp_factor_count(36, 97, budget=1_000)


# ---------------------------------------------------------------------------
# diagonal two-variable crosscheck

class TestDiagonalCrosscheck:
    def test_rational_single_factor(self):
        # c = gcd(4, 6) = 2: 1 + t^2 stays irreducible, trivial group
        chk = diagonal_d2_crosscheck(4, 6, 5, Q)
        assert chk.c == 2
        assert chk.predicted_count == 1
        assert chk.invariant_factors == ()
        assert chk.consistent

    def test_rational_two_factors(self):
        # c = 6: 1 + t^6 = Phi_4 Phi_12 over Q
        chk = diagonal_d2_crosscheck(6, 12, 5, Q)
        assert chk.predicted_count == 2
        assert chk.invariant_factors == (5,)
        assert chk.consistent

    def test_closed_field_splits_completely(self):
        chk = diagonal_d2_crosscheck(4, 6, 5, Q.closure())
        assert chk.predicted_count == 2
        assert chk.invariant_factors == (5,)
        assert chk.consistent

        chk = diagonal_d2_crosscheck(6, 12, 5, Q.closure())
        assert chk.predicted_count == 6
        assert chk.invariant_factors == (5,) * 5
        assert chk.consistent

    def test_finite_field(self):
        chk = diagonal_d2_crosscheck(4, 8, 3, FieldSpec.prime(5))
        assert chk.c == 4
        assert chk.invariant_factors == (3,) * (chk.predicted_count - 1)
        assert chk.consistent

    def test_characteristic_dividing_c_is_rejected(self):
        chk = diagonal_d2_crosscheck(6, 9, 5, FieldSpec.prime(3))
        assert chk.rejection is not None
        assert chk.invariant_factors is None
        assert chk.consistent

    def test_gcd_violation_propagates(self):
        with pytest.raises(GcdViolation):
            diagonal_d2_crosscheck(4, 6, 3, Q)

    def test_bad_arguments(self):
        with pytest.raises(DegenerateInput):
            diagonal_d2_crosscheck(0, 6, 3, Q)


# ---------------------------------------------------------------------------
# quotient invariants by enumeration

def test_bruteforce_invariants_examples():
    assert quotient_invariants_bruteforce((4, 4), [(2, 0), (0, 2)]) == (2, 2)
    assert quotient_invariants_bruteforce((9, 9), [(3, 3)]) == (3, 9)
    assert quotient_invariants_bruteforce((5,), [(1,)]) == ()
    assert quotient_invariants_bruteforce((6, 4), []) == (2, 12)


def test_bruteforce_agrees_with_smith_route():
    for moduli, gen in [
        ((3, 3, 3), (2, 2, 2)),
        ((8, 4), (4, 2)),
        ((12,), (8,)),
        ((7, 7), (1, 3)),
    ]:
        want = cokernel_with_generator_images(list(gen), list(moduli))[0].invariant_factors
        got = quotient_invariants_bruteforce(moduli, [gen])
        assert got == want, (moduli, gen)


def test_bruteforce_multiple_generators():
    # (Z/2)^3 modulo the plane spanned by (1,1,0) and (0,1,1)
    got = quotient_invariants_bruteforce((2, 2, 2), [(1, 1, 0), (0, 1, 1)])
    assert got == (2,)


def test_bruteforce_limit():
    with pytest.raises(SearchSpaceTooLarge):
        quotient_invariants_bruteforce((101, 101), [], limit=100)
