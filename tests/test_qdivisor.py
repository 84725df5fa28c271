"""Q-divisors on the hypersurface: the registry, D, and its floors."""

import copy
import dataclasses
import gc
import weakref
from fractions import Fraction
from functools import cache
from math import floor, gcd, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from divclass.classgroup import _relations, compute_class_group
from divclass.cli import JobFile, run_job
from divclass.errors import DegenerateInput, InternalInconsistency
from divclass.qdivisor import DivisorContext, QDivisor, integer_divisor_degree

from conftest import FIXTURES, build_context, build_input, factor_cdegree


def by_name(name):
    return build_context(next(f for f in FIXTURES if f.name == name))


def test_registry_cube_two_lines():
    dctx = by_name("cube-two-lines")
    assert [c.label for c in dctx.components] == ["V(x1)", "V(x2)"]
    assert [c.kind for c in dctx.components] == ["variable", "variable"]
    assert dctx.factor_component == (0, 1)
    assert dctx.r == 2


def test_registry_merges_variable_factors():
    # x1 and x2 appear both as coordinate axes and as factors of g; the
    # registry must not duplicate them
    dctx = by_name("mixed-conic-n3")
    assert [c.label for c in dctx.components] == [
        "V(x1)",
        "V(x2)",
        "V(x1^2 + x2^2)",
    ]
    assert dctx.factor_component == (0, 1, 2)


def test_bezout_data_cube_two_lines():
    dctx = by_name("cube-two-lines")
    assert (dctx.bez.a, dctx.bez.b) == (2, -1)
    assert dctx.svec == (1, 0)
    assert dctx.D.coeffs == (Fraction(-1, 3), Fraction(2, 3))


def test_d_frozen_factorial_two_exponents():
    # weights (5, 3), n = 2, m = 15: a = 1, b = -7, s = (-1, 2)
    dctx = by_name("factorial-two-exponents")
    assert (dctx.bez.a, dctx.bez.b) == (1, -7)
    assert dctx.svec == (-1, 2)
    assert dctx.D.coeffs == (Fraction(7), Fraction(-14), Fraction(1, 2))
    assert [c.label for c in dctx.components] == [
        "V(x1)",
        "V(x2)",
        "V(x1^3 + x2^5)",
    ]


def test_degree_of_d_is_one_over_n():
    for fx in FIXTURES:
        dctx = build_context(fx)
        assert dctx.D.degree() == Fraction(1, fx.n), fx.name
        assert dctx.D.den == fx.n


def test_floor_examples_cube_two_lines():
    dctx = by_name("cube-two-lines")
    assert dctx.D.scale(2).floor() == (-1, 1)
    assert dctx.D.scale(6).floor() == (-2, 4)
    assert dctx.D.scale(0).floor() == (0, 0)


def test_floor_of_jd_degree_identity():
    # floor(jD) is the floor of the zero divisor, and its degree is the v of
    # the split j = u m + v n whenever v >= 0
    for fx in FIXTURES:
        dctx = build_context(fx)
        zero = dctx.zero_divisor()
        for j in range(0, 4 * fx.n * dctx.input.m + 1):
            E = dctx.floor_shift(zero, j)
            assert E == dctx.D.scale(j).floor()
            split = dctx.input.degree_split(j)
            if split is not None:
                assert integer_divisor_degree(dctx.registry, E) == split[1]


def test_floor_shift_matches_fraction_floor_on_fixtures():
    # the integer route through n*D against the Fraction route, for every
    # divisor the oracle and the section-ring check take floors of
    for fx in FIXTURES:
        dctx = build_context(fx)
        n, m = fx.n, dctx.input.m
        Ets = [dctx.Et(t) for t in range(dctx.r)]
        total = dctx.zero_divisor()
        for Et in Ets:
            total = total + Et
        E0s = [dctx.zero_divisor(), *Ets, *(Et.scale(n) for Et in Ets), total]
        for E0 in E0s:
            for j in range(max(200, 4 * m * n) + 1):
                want = (E0 + dctx.D.scale(j)).floor()
                assert dctx.floor_shift(E0, j) == want, (fx.name, E0, j)


def test_floor_data_is_kept_per_den_and_nums():
    # E_t and n*E_t have equal nums and differ only in den; interleaved on
    # one context, each keeps its own floors
    dctx = by_name("four-factors-n5")
    n = dctx.input.n
    assert dctx.Et(2).nums == dctx.Et(2).scale(n).nums == (0, 0, -1, 0)
    assert (dctx.Et(2).den, dctx.Et(2).scale(n).den) == (5, 1)
    pairs = [(dctx.Et(t), dctx.Et(t).scale(n)) for t in range(dctx.r)]
    for j in range(61):
        for Et, nEt in pairs:
            for E0 in (Et, nEt):
                assert dctx.floor_shift(E0, j) == (E0 + dctx.D.scale(j)).floor(), (E0, j)


cached_context = cache(build_context)


@settings(max_examples=200, deadline=None)
@given(
    fx=st.sampled_from(FIXTURES),
    data=st.data(),
    j=st.integers(min_value=0, max_value=500),
)
def test_floor_shift_matches_fraction_floor_on_foreign_denominators(fx, data, j):
    # nonpositive E0 whose denominators need not divide n, so that the common
    # denominator lcm(n, den E0) is larger than n
    dctx = cached_context(fx)
    n = fx.n
    fixed = [Fraction(-1, 2 * n), Fraction(-3, 7)]
    coeffs = [
        data.draw(
            st.one_of(
                st.sampled_from(fixed),
                st.builds(Fraction, st.integers(-100, 0), st.integers(1, 30)),
            )
        )
        for _ in dctx.components
    ]
    E0 = QDivisor(dctx.registry, coeffs)
    assert E0.den == lcm(*(c.denominator for c in coeffs))
    for a, c in zip(E0.nums, E0.coeffs):
        assert Fraction(a, E0.den) == c
    assert dctx.floor_shift(E0, j) == (E0 + dctx.D.scale(j)).floor()


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=24)


def assert_integer_form(E, coeffs):
    # den is the lcm of the reduced denominators, so (den, nums) is reduced
    assert E.den == lcm(*(c.denominator for c in coeffs))
    assert gcd(E.den, *E.nums) == 1
    assert E.coeffs == tuple(coeffs)


@settings(max_examples=200, deadline=None)
@given(fx=st.sampled_from(FIXTURES), data=st.data(), k=rationals)
def test_integer_arithmetic_matches_fractions(fx, data, k):
    dctx = cached_context(fx)
    size = len(dctx.components)
    u = data.draw(st.lists(rationals, min_size=size, max_size=size))
    v = data.draw(st.one_of(st.just(u), st.lists(rationals, min_size=size, max_size=size)))
    A, B = QDivisor(dctx.registry, u), QDivisor(dctx.registry, v)
    assert_integer_form(A, u)
    assert_integer_form(A + B, [a + b for a, b in zip(u, v)])
    assert_integer_form(A.scale(k), [k * a for a in u])
    assert_integer_form(A.scale(k.numerator), [k.numerator * a for a in u])
    assert A.floor() == tuple(floor(a) for a in u)
    assert A.degree() == sum(a * c for a, c in zip(u, dctx.registry.cdegrees))
    assert (A == B) == (u == v)
    assert A == QDivisor(dctx.registry, u)


def test_order_relation_rejects_a_non_integral_multiple():
    # (n - 1)*E_t + (n - 1)*gamma_t*D has degree 0 but is not integral, so
    # only the integer test F.den == 1 rejects it
    for fx in FIXTURES:
        if fx.n < 3:
            continue
        dctx = build_context(fx)
        assert all(rel.identity_holds for rel in _relations(dctx, fx.n)), fx.name
        order = _relations(dctx, fx.n - 1)[: dctx.r]
        assert not any(rel.identity_holds for rel in order), fx.name


def reference_relations(dctx, k):
    """The relation verdicts of `_relations`, taken on QDivisor sums."""
    holds = []
    for t in range(dctx.r):
        F = dctx.Et(t).scale(k) + dctx.D.scale(k * factor_cdegree(dctx, t))
        holds.append(F.den == 1 and integer_divisor_degree(dctx.registry, F.nums) == 0)
    total = dctx.zero_divisor()
    for t in range(dctx.r):
        total = total + dctx.Et(t)
    mD = dctx.D.scale(dctx.input.m)
    F = total + mD
    floor_m = mD.floor()
    holds.append(
        F.den == 1
        and F.nums == floor_m
        and integer_divisor_degree(dctx.registry, floor_m) == 0
    )
    return holds


@settings(max_examples=200, deadline=None)
@given(fx=st.sampled_from(FIXTURES), data=st.data(), k=st.integers(1, 12))
def test_relations_match_qdivisor_sums_for_any_d(fx, data, k):
    # D as built, moved by an integral divisor, an integral divisor or any
    # rational divisor: the last two have denominators other than n
    dctx = copy.copy(cached_context(fx))
    size = len(dctx.components)
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    planted = data.draw(st.lists(rationals, min_size=size, max_size=size))
    dctx.D = data.draw(
        st.sampled_from(
            [
                dctx.D,
                dctx.D + QDivisor(dctx.registry, shift),
                QDivisor(dctx.registry, shift),
                QDivisor(dctx.registry, planted),
            ]
        )
    )
    relations = _relations(dctx, k)
    assert [rel.identity_holds for rel in relations] == reference_relations(dctx, k)


def test_d_guards_reject_corrupt_bezout_data():
    # cube-two-lines: n = 3, m = 2, (a, b) = (2, -1), s = (1, 0)
    dctx = by_name("cube-two-lines")
    # s = (0, 0): deg(D) = a*m/n = 4/3, not b + a*m/n = 1/3
    with pytest.raises(InternalInconsistency, match="degree of D does not match b \\+ \\(a/n\\)m"):
        dataclasses.replace(dctx, svec=(0, 0))
    # a + n in place of a: deg(D) = b + (a + n)*m/n, but that is not 1/n
    bez = SimpleNamespace(a=dctx.bez.a + 3, b=dctx.bez.b)
    with pytest.raises(InternalInconsistency, match="degree of D is not 1/n; Bezout data corrupt"):
        dataclasses.replace(dctx, bez=bez)


def test_d_guard_rejects_a_common_factor_of_n_and_n_times_d():
    # For integer c-degrees, deg(n*D) = 1 forces gcd(n, *n*D) = 1, so this
    # guard is reached only through planted fractional c-degrees.
    # two-square-three-lines: n = 2, m = 3, (a, b) = (1, -1); each factor
    # listed twice and s = 0 give n*D = (2, 2, 2), of degree 1 at c = 1/6
    dctx = by_name("two-square-three-lines")
    components = tuple(
        dataclasses.replace(comp, cdegree=Fraction(1, 6)) for comp in dctx.components
    )
    with pytest.raises(InternalInconsistency, match="denominators of D do not have lcm n"):
        dataclasses.replace(
            dctx,
            svec=(0, 0, 0),
            components=components,
            factor_component=(0, 0, 1, 1, 2, 2),
        )


def _shift_d_keeping_its_degree(dctx):
    """cube-two-lines with n*D moved from (-1, 2) to (0, 1): the degree and
    the denominator n stay, so every order relation still holds."""
    assert dctx.D.nums == (-1, 2) and dctx.registry.cdegrees == (1, 1)
    dctx.D = QDivisor.from_ints(dctx.registry, 3, (0, 1))
    return dctx


def test_sum_relation_fails_on_a_corrupt_d():
    dctx = _shift_d_keeping_its_degree(by_name("cube-two-lines"))
    relations = _relations(dctx, 3)
    assert [rel.identity_holds for rel in relations] == [True, True, False]
    assert relations[-1].statement == "sum of all [(z, h_t)] = 0"


def test_class_group_refuses_a_failed_relation_check(monkeypatch):
    build = DivisorContext.build
    monkeypatch.setattr(
        DivisorContext,
        "build",
        staticmethod(lambda inp: _shift_d_keeping_its_degree(build(inp))),
    )
    fx = next(f for f in FIXTURES if f.name == "cube-two-lines")
    with pytest.raises(InternalInconsistency) as exc:
        compute_class_group(build_input(fx), assume_normal=True)
    assert str(exc.value) == (
        "divisor-level relation check failed: "
        "sum_t E_t + m*D equals floor(m*D), integral of degree 0"
    )


def test_floor_shift_foreign_denominator_examples():
    # cube-two-lines: D = (-1/3, 2/3); E0 = (-1/6, -3/7) needs L = 42
    dctx = by_name("cube-two-lines")
    E0 = QDivisor(dctx.registry, (Fraction(-1, 6), Fraction(-3, 7)))
    assert dctx.floor_shift(E0, 0) == (-1, -1)
    assert dctx.floor_shift(E0, 1) == (-1, 0)  # -1/2, 5/21
    assert dctx.floor_shift(E0, 2) == (-1, 0)  # -5/6, 19/21
    assert dctx.floor_shift(E0, 5) == (-2, 2)  # -11/6, 61/21
    for j in range(60):
        assert dctx.floor_shift(E0, j) == (E0 + dctx.D.scale(j)).floor()


def test_floor_superadditivity():
    dctx = by_name("four-factors-n5")
    for j1 in range(0, 15):
        for j2 in range(0, 15):
            lo = [
                a + b
                for a, b in zip(dctx.D.scale(j1).floor(), dctx.D.scale(j2).floor())
            ]
            hi = dctx.D.scale(j1 + j2).floor()
            assert all(x >= y for x, y in zip(hi, lo))


def test_et_divisors():
    dctx = by_name("cube-two-lines")
    E0 = dctx.Et(0)
    assert E0.coeffs == (Fraction(-1, 3), Fraction(0))
    assert dctx.Et(1).coeffs == (Fraction(0), Fraction(-1, 3))
    with pytest.raises(DegenerateInput):
        dctx.Et(2)
    with pytest.raises(DegenerateInput):
        dctx.Et(-1)


def test_et_degree_scales_with_factor_degree():
    for fx in FIXTURES:
        dctx = build_context(fx)
        for t in range(dctx.r):
            want = Fraction(-factor_cdegree(dctx, t), fx.n)
            assert dctx.Et(t).degree() == want


def test_sum_relation_n_et_plus_principal():
    # n * sum_t E_t has integer coefficients and degree -m/n * ... ; check
    # instead the exact identity the pipeline uses: sum of all E_t scaled by
    # -n equals the divisor of g, whose coefficient at each factor is 1
    for fx in FIXTURES:
        dctx = build_context(fx)
        total = dctx.zero_divisor()
        for t in range(dctx.r):
            total = total + dctx.Et(t).scale(-fx.n)
        for comp, c in total.items():
            assert c == 1
            assert comp.index in set(dctx.factor_component)


def test_qdivisor_is_immutable():
    dctx = by_name("cube-two-lines")
    with pytest.raises(AttributeError):
        dctx.D.coeffs = ()
    with pytest.raises(DegenerateInput):
        QDivisor(dctx.registry, (1,))


def test_qdivisor_algebra():
    dctx = by_name("cube-two-lines")
    D = dctx.D
    assert D + dctx.zero_divisor() == D
    assert D.scale(3) + D.scale(-3) == dctx.zero_divisor()
    assert D.scale(Fraction(1, 2)).degree() == Fraction(1, 6)


def test_divisors_on_distinct_registries_do_not_mix():
    a = by_name("cube-two-lines")
    b = by_name("cube-two-lines")
    with pytest.raises(DegenerateInput):
        a.D + b.D
    assert a.D != b.D  # same numbers, different registry identity


def test_divisors_refer_to_the_registry_not_the_context():
    dctx = by_name("four-factors-n5")
    registry = dctx.registry
    assert dctx.D.registry is registry
    assert dctx.Et(0).registry is registry
    assert QDivisor(registry, (0,) * len(dctx.components)) == dctx.zero_divisor()
    assert registry.components is dctx.components
    assert registry.cdegrees == tuple(c.cdegree for c in dctx.components)


def test_finished_job_context_is_freed_by_reference_counting(monkeypatch):
    # no DivisorContext <-> QDivisor cycle: with the cyclic collector off,
    # dropping the job's last reference frees its context
    contexts = []
    build = DivisorContext.build

    def recording_build(inp):
        dctx = build(inp)
        contexts.append(weakref.ref(dctx))
        return dctx

    monkeypatch.setattr(DivisorContext, "build", staticmethod(recording_build))
    job_path = Path(__file__).resolve().parent.parent / "jobs" / "z3_x1x2.json"
    job = dataclasses.replace(JobFile.load(str(job_path)), verify_depth=20)
    enabled = gc.isenabled()
    gc.disable()
    try:
        payload, code = run_job(job, verify=True)
        assert code == 0 and payload["verification"]["status"] == "pass"
        (ref,) = contexts
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
