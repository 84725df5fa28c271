"""Independent recomputation routes: every oracle here must agree with the
main pipeline on inputs where both are defined, and the oracles themselves
are pinned to hand-checked values.
"""

from collections import Counter

import pytest

from divclass import oracle, sections
from divclass.errors import DegenerateInput, GcdViolation, SearchSpaceTooLarge
from divclass.exactmath import cokernel_with_generator_images
from divclass.fields import FieldSpec
from divclass.hyperring import graded_dim
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
from divclass.wpoly import enumerate_monomials_of_degree

from conftest import FIXTURES, build_context

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
        labels = enumerate_monomials_of_degree(
            dctx.input.ring, dctx.input.degree_split(j)[1]
        )
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


def test_verify_work_is_counted_per_degree(monkeypatch):
    # one walk builds, per degree, M_t and N_t for each t (2r module pieces),
    # Z and each H_t (r + 1 ideal pieces) and one intersection when r >= 2;
    # the section ring adds one module piece per degree, and each standalone
    # check, a view of the walk, builds exactly the pieces of one walk
    depth = 20
    for fx in FIXTURES:
        dctx = build_context(fx)
        r, d = dctx.r, depth
        walk = Counter(
            divisorial_module_component=2 * r * (d + 1),
            ideal_graded_component=(r + 1) * (d + 1),
            intersect_all=(d + 1) if r >= 2 else 0,
        )

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
        labels = enumerate_monomials_of_degree(
            dctx.input.ring, dctx.input.degree_split(j)[1]
        )
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
