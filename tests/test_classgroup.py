"""End-to-end class group computation and hypothesis gating."""

from dataclasses import replace

import pytest

from divclass import classgroup
from divclass.classgroup import (
    choose_x0_weight,
    compute_class_group,
    x0_extension_mode,
    validate_hypotheses,
)
from divclass.cli import JobFile, run_job
from divclass.errors import (
    DegenerateInput,
    GcdViolation,
    NormalityUnverified,
)
from divclass.fields import FieldSpec
from divclass.hyperring import HypersurfaceInput
from divclass.parser import parse_polynomial
from divclass.wpoly import WeightedRing, validate_factorization

from conftest import FIXTURES, build_input

Q = FieldSpec.rationals()


def make_input(variables, weights, n, factor_texts, field=Q):
    ring = WeightedRing(tuple(variables), tuple(weights), field)
    factors = [parse_polynomial(t, ring) for t in factor_texts]
    return HypersurfaceInput(validate_factorization(factors, ring, n), n)


def oracle_payload(variables, weights, n, factor_texts, field="Q", depth=10):
    """The oracle part of the `verify` report for a job built from the data."""
    job = JobFile(
        field=FieldSpec.parse(field),
        n=n,
        variables=tuple(variables),
        weights=tuple(weights),
        factors=tuple(factor_texts),
        assume_normal=True,
        verify_depth=depth,
    )
    payload, code = run_job(job, verify=True)
    assert code == 0, payload
    assert payload["verification"]["depth"] == depth
    return payload["verification"]["oracle"]


def assert_oracle_passes(fx, r, depth):
    oracle = oracle_payload(
        fx.variables, fx.weights, fx.n, fx.factor_texts, fx.field, depth
    )
    assert oracle["status"] == "pass"
    assert [e["t"] for e in oracle["divisorial_ideals"]] == list(range(r))
    for ideal in oracle["divisorial_ideals"]:
        assert ideal == {"t": ideal["t"], "status": "pass", "failures": []}
    relations = oracle["order_relations"]
    assert relations["order_ok"] and relations["intersection_ok"]
    assert relations["failures"] == []


def test_fixture_groups():
    for fx in FIXTURES:
        result = compute_class_group(build_input(fx), assume_normal=fx.assume_normal)
        assert result.group.invariant_factors == fx.invariants, fx.name
        assert result.mode == "hypersurface"


def test_generator_metadata():
    fx = next(f for f in FIXTURES if f.name == "four-factors-n5")
    result = compute_class_group(build_input(fx), assume_normal=True)
    assert result.r == 4
    assert len(result.generators) == 3
    for gen, label in zip(result.generators, ("x1", "x2", "x1 + x2")):
        assert gen.pair == ("z", label)
        assert gen.order == 5
        assert gen.degree_z == result.context.input.m
        assert gen.degree_h == 5  # n * cdegree of a unit-weight line
    assert all(rel.identity_holds for rel in result.relations)
    assert len(result.relations) == result.r + 1


def test_normality_gate_requires_attestation():
    fx = next(f for f in FIXTURES if f.name == "cube-two-lines")
    with pytest.raises(NormalityUnverified):
        compute_class_group(build_input(fx))


def test_normality_statuses():
    diag = make_input(("x1", "x2"), (5, 3), 2, ("x1^3 + x2^5",))
    assert validate_hypotheses(diag).normality_status == "verified-diagonal"

    attested = make_input(("x1", "x2"), (1, 1), 3, ("x1", "x2"))
    rep = validate_hypotheses(attested, assume_normal=True)
    assert rep.normality_status == "attested"
    assert any("attested" in note for note in rep.notes)

    degenerate = make_input(("x1", "x2"), (1, 1), 1, ("x1",))
    assert (
        validate_hypotheses(degenerate).normality_status == "verified-degenerate"
    )


def test_diagonal_check_respects_characteristic():
    # x1^3 + x2^5 over F_3: the x1 exponent is divisible by p, so the
    # Jacobian shortcut is off and attestation is required again
    inp = make_input(("x1", "x2"), (5, 3), 2, ("x1^3 + x2^5",), field=FieldSpec.prime(3))
    with pytest.raises(NormalityUnverified):
        validate_hypotheses(inp)
    rep = validate_hypotheses(inp, assume_normal=True)
    assert rep.normality_status == "attested"


def test_gcd_violation():
    inp = make_input(
        ("x1", "x2", "x3"), (1, 1, 1), 3, ("x1^3 + x2^3 + x3^3",)
    )
    with pytest.raises(GcdViolation) as exc:
        compute_class_group(inp, assume_normal=True)
    assert "gcd(3, 3)" in str(exc.value)


def test_weight_rescaling_is_invisible_downstream():
    doubled = make_input(("x1", "x2"), (2, 2), 3, ("x1", "x2"))
    result = compute_class_group(doubled, assume_normal=True)
    assert result.group.invariant_factors == (3,)
    assert result.context.input is doubled
    assert doubled.ring.weights == (1, 1)
    assert doubled.factored.degrees == (1, 1)
    assert result.report.notes[0] == "weights rescaled from (2, 2) to (1, 1)"
    assert doubled.m == 2


def _count_validations(monkeypatch):
    calls = []
    real = classgroup.validate_factorization

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(classgroup, "validate_factorization", spy)
    return calls


@pytest.mark.parametrize("weights", [(1, 1), (2, 2)])
def test_factors_are_validated_once(monkeypatch, weights):
    inp = make_input(("x1", "x2"), weights, 2, ("x1", "x1^2 + x2^2"))
    calls = _count_validations(monkeypatch)
    assert compute_class_group(inp, assume_normal=True).group.invariant_factors == (2,)
    assert len(calls) == 0


@pytest.mark.parametrize("scale", [2, 3])
@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: fx.name)
def test_rescaled_form_equals_a_fresh_validation(fx, scale):
    field = FieldSpec.parse(fx.field)
    weights = tuple(scale * w for w in fx.weights)
    inp = make_input(fx.variables, weights, fx.n, fx.factor_texts, field)
    ring2 = inp.ring
    assert ring2.weights == fx.weights
    fresh = validate_factorization(
        [parse_polynomial(t, ring2) for t in fx.factor_texts], ring2, fx.n
    )
    note = f"weights rescaled from {weights} to {fx.weights}"
    assert inp.factored.warnings == (note,) + fresh.warnings
    assert replace(inp.factored, warnings=fresh.warnings) == fresh


def test_x0_mode_validates_factors_once(monkeypatch):
    ring = WeightedRing(("x1", "x2"), (1, 1), Q)
    calls = _count_validations(monkeypatch)
    x0_extension_mode(ring, 3, [parse_polynomial("x1^2 + x2^2", ring)], assume_normal=True)
    assert len(calls) == 1


def test_form_validated_for_n_one_is_checked_again_for_larger_n():
    # the n = 1 rules tolerate what n >= 2 rejects, so such a form is
    # refused for a larger n rather than validated a second time
    ring = WeightedRing(("x1", "x2"), (1, 1), Q)
    x1 = parse_polynomial("x1", ring)
    factored = validate_factorization([x1, x1], ring, 1)  # tolerated for n = 1
    assert factored.tolerant
    with pytest.raises(DegenerateInput, match="validated for n = 1"):
        HypersurfaceInput(factored, 3)


def test_n_equal_one_is_trivial():
    inp = make_input(("x1", "x2"), (1, 1), 1, ("x1", "x2"))
    result = compute_class_group(inp)
    assert result.group.is_trivial
    assert result.generators == ()
    assert result.relations == ()
    oracle = oracle_payload(("x1", "x2"), (1, 1), 1, ("x1", "x2"))
    assert oracle == {"status": "skipped", "note": "n = 1, nothing to verify"}


def test_closed_field_splits_enlarge_the_group():
    closed = Q.closure()
    inp = make_input(("x1", "x2"), (1, 1), 3, ("x1", "x2", "x1^2 + x2^2"), field=closed)
    result = compute_class_group(inp, assume_normal=True)
    assert result.closure_splits == (1, 1, 2)
    assert result.splits_over_closure
    assert result.r == 4
    assert result.group.invariant_factors == (3, 3, 3)
    labels = [gen.pair[1] for gen in result.generators]
    assert labels[:2] == ["x1", "x2"]
    assert labels[2].startswith("closure component 1 of 2 of")
    # graded identities have no exact basis for the split components
    oracle = oracle_payload(
        ("x1", "x2"), (1, 1), 3, ("x1", "x2", "x1^2 + x2^2"), field="Qbar"
    )
    assert oracle == {
        "status": "skipped",
        "note": "closure components have no exact representation",
    }


def test_no_split_closed_field_still_verifies():
    fx = next(f for f in FIXTURES if f.name == "cube-two-lines-closed")
    result = compute_class_group(build_input(fx), assume_normal=True)
    assert result.closure_splits == (1, 1)
    assert not result.splits_over_closure
    assert_oracle_passes(fx, result.r, depth=20)


def test_oracle_passes_on_rational_fixture():
    fx = next(f for f in FIXTURES if f.name == "mixed-conic-n3")
    result = compute_class_group(build_input(fx), assume_normal=True)
    assert_oracle_passes(fx, result.r, depth=24)


class TestX0ExtensionMode:
    def test_single_factor(self):
        ring = WeightedRing(("x1", "x2"), (3, 2), Q)
        g = parse_polynomial("x1^2 + x2^3", ring)
        result = x0_extension_mode(ring, 3, [g], assume_normal=True)
        assert result.mode == "x0-extension"
        assert result.x0_weight == 1
        assert result.group.invariant_factors == (3,)
        assert len(result.generators) == 1
        assert result.generators[0].pair == ("z", "x1^2 + x2^3")

    def test_two_monomial_factors(self):
        ring = WeightedRing(("x1", "x2"), (1, 1), Q)
        factors = [parse_polynomial(t, ring) for t in ("x1", "x2")]
        result = x0_extension_mode(ring, 4, factors, assume_normal=True)
        assert result.group.invariant_factors == (4, 4)
        assert result.x0_weight == 1
        # x0 is listed last so the visible generators are the h_t classes
        assert [g.pair[1] for g in result.generators] == ["x1", "x2"]

    def test_three_factors_even_n(self):
        ring = WeightedRing(("x1", "x2", "x3"), (1, 1, 1), Q)
        factors = [parse_polynomial(t, ring) for t in ("x1", "x2", "x3")]
        result = x0_extension_mode(ring, 2, factors, assume_normal=True)
        # m_g = 3 forces the auxiliary weight to 2 to stay coprime to n
        assert result.x0_weight == 2
        assert result.group.invariant_factors == (2, 2, 2)

    def test_closed_split(self):
        ring = WeightedRing(("x1", "x2"), (1, 1), Q.closure())
        g = parse_polynomial("x1^2 + x2^2", ring)
        result = x0_extension_mode(ring, 2, [g], assume_normal=True)
        assert result.group.invariant_factors == (2, 2)

    def test_rejects_name_collision(self):
        ring = WeightedRing(("x0", "x1"), (1, 1), Q)
        g = parse_polynomial("x1", ring)
        with pytest.raises(DegenerateInput):
            x0_extension_mode(ring, 2, [g], x0="x0")

    def test_choose_x0_weight_frozen(self):
        assert choose_x0_weight(6, 3) == 1
        assert choose_x0_weight(2, 4) == 1
        assert choose_x0_weight(3, 2) == 2
        assert choose_x0_weight(1, 5) == 1
        assert choose_x0_weight(5, 6) == 2
