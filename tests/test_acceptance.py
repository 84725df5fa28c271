"""Acceptance gate: one test per criterion, all exact, with wall-time budgets.

Each test prints a single [criterion N] PASS/FAIL line (visible with -s or in
the failure report); under pytest -v the test names themselves give the
per-criterion pass/fail listing.  Nothing here tolerates approximation: every
comparison is on exact integers, tuples, or byte strings.
"""

import json
import random
import subprocess
import sys
import time
import warnings
from math import gcd
from pathlib import Path

from divclass.classgroup import compute_class_group, x0_extension_mode
from divclass.cli import JobFile, main, run_job
from divclass.exactmath import (
    BezoutPair,
    cokernel_with_generator_images,
    divisors,
    integer_determinant,
    smith_normal_form,
    xgcd,
)
from divclass.fields import FieldSpec
from divclass.hyperring import graded_dim, hilbert_coefficients
from divclass.oracle import (
    diagonal_d2_crosscheck,
    exhaustive_fp_factor_count,
    monomial_model_classgroup,
    quotient_invariants_bruteforce,
    verify_divisorial_ideal_graded,
    verify_order_relations_graded,
)
from divclass.parser import parse_polynomial
from divclass.sections import h0_basis, verify_section_ring
from divclass.univariate import (
    cyclotomic,
    fp_distinct_factor_count,
    int_mul,
    one_plus_tc,
)
from divclass.wpoly import WeightedRing, count_factors_one_plus_tc, weighted_degree

from conftest import FIXTURES, build_context, build_input

JOBS = Path(__file__).resolve().parent.parent / "jobs"
Q = FieldSpec.rationals()


def _stamp(num, detail):
    print(f"[criterion {num}] PASS: {detail}")


def test_criterion_1_fixture_catalogue_groups():
    assert len(FIXTURES) >= 8
    for fx in FIXTURES:
        t0 = time.monotonic()
        result = compute_class_group(build_input(fx), assume_normal=fx.assume_normal)
        n, r = fx.n, result.r
        assert result.group.invariant_factors == (n,) * (r - 1), fx.name
        assert result.group.invariant_factors == fx.invariants, fx.name
        assert len(result.generators) == r - 1
        for gen in result.generators:
            assert gen.pair[0] == "z"
            assert gen.order == n
        # independent route 1: the cokernel presentation through SNF
        a = result.context.bez.a
        snf = cokernel_with_generator_images([a] * r, [n] * r)[0]
        assert snf.invariant_factors == result.group.invariant_factors, fx.name
        # independent route 2: brute-force enumeration of the quotient
        if n**r <= 10**4:
            brute = quotient_invariants_bruteforce((n,) * r, [(a,) * r])
            assert brute == result.group.invariant_factors, fx.name
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, (fx.name, elapsed)
    _stamp(1, f"{len(FIXTURES)} fixtures reproduce (Z/n)^(r-1), SNF and "
              "brute-force routes agree, < 1 s each")


def test_criterion_2_monomial_model_agreement():
    ring = WeightedRing(("x1",), (1,), Q)
    x1 = parse_polynomial("x1", ring)
    for n in range(2, 9):
        t0 = time.monotonic()
        result = x0_extension_mode(ring, n, [x1], assume_normal=True)
        assert result.group.invariant_factors == (n,), n
        report = monomial_model_classgroup(n)
        assert report.bound == 6 * n
        assert report.conclusive
        assert report.principal_iff_multiple, n
        assert report.order == n, n
        elapsed = time.monotonic() - t0
        assert elapsed < 2.0, (n, elapsed)
    _stamp(2, "z^n - x0 x1 gives Z/n for n = 2..8 and the principality "
              "table confirms order n at bound 6n")


def test_criterion_3_x0_extension_groups():
    t0 = time.monotonic()
    cases = [
        # (base variables, weights, n, factor expressions, expected r)
        (("x1", "x2"), (3, 2), 3, ("x1^2 + x2^3",), 1),
        (("x1", "x2"), (1, 1), 4, ("x1", "x2"), 2),
        (("x1", "x2", "x3"), (1, 1, 1), 2, ("x1", "x2", "x3"), 3),
    ]
    for variables, weights, n, factor_texts, r in cases:
        ring = WeightedRing(variables, weights, Q)
        factors = [parse_polynomial(t, ring) for t in factor_texts]
        result = x0_extension_mode(ring, n, factors, assume_normal=True)
        assert result.group.invariant_factors == (n,) * r, (n, r)
        assert result.mode == "x0-extension"
        g = factors[0]
        for f in factors[1:]:
            g = g * f
        m_g = weighted_degree(g)
        c0 = next(c for c in range(1, 2 * n + 1) if gcd(c + m_g, n) == 1)
        assert result.x0_weight == c0, (n, r)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, elapsed
    _stamp(3, "x0-extension fixtures give (Z/n)^r for r = 1, 2, 3 with the "
              "smallest valid auxiliary weight")


def test_criterion_4_gcd_violation_rejection():
    job = JobFile.from_dict(
        {
            "schema_version": 1,
            "field": "Q",
            "n": 3,
            "variables": ["x1", "x2", "x3"],
            "weights": [1, 1, 1],
            "factors": ["x1^3 + x2^3 + x3^3"],
        }
    )
    payload, code = run_job(job)
    assert code == 2
    assert payload["error"]["code"] == "GCD_VIOLATION"
    assert "gcd(3, 3)" in payload["error"]["message"]
    assert "class_group" not in payload
    assert main(["classgroup", str(JOBS / "fermat_cubic.json")]) == 2
    _stamp(4, "Fermat cubic rejected with GCD_VIOLATION and exit code 2, "
              "no group emitted")


def test_criterion_5_section_ring_and_hilbert():
    for fx in FIXTURES:
        dctx = build_context(fx)
        inp = dctx.input
        t0 = time.monotonic()
        report = verify_section_ring(dctx, 200)
        assert report.all_match, (fx.name, report.mismatches[:2])
        series = hilbert_coefficients(inp, 200)
        zero = dctx.zero_divisor()
        for j in range(201):
            E = dctx.floor_shift(zero, j)
            assert h0_basis(dctx, E).dim == series[j], (fx.name, j)
            assert graded_dim(inp, j) == series[j], (fx.name, j)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, (fx.name, elapsed)
    _stamp(5, "section bases map bijectively onto ring monomials and match "
              "the Hilbert series for j <= 200, < 5 s per fixture")


def test_criterion_6_divisorial_ideal_graded_suite():
    for fx in FIXTURES:
        dctx = build_context(fx)
        depth = max(200, 4 * dctx.input.m * dctx.input.n)
        t0 = time.monotonic()
        for t in range(dctx.r):
            outcome = verify_divisorial_ideal_graded(dctx, t, depth)
            assert outcome.ok, (fx.name, t, outcome.failures[:2])
        relations = verify_order_relations_graded(dctx, depth)
        assert relations.ok, (fx.name, relations.failures[:2])
        if dctx.r >= 2:
            assert relations.variant == "intersection"
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, (fx.name, elapsed)
    _stamp(6, "E_t modules equal (z, h_t), n E_t equal h_t R, intersections "
              "equal z R up to max(200, 4mn), < 10 s per fixture")


def _primes_upto(bound):
    known = []
    for p in range(2, bound + 1):
        if all(p % q for q in known):
            known.append(p)
    return known


def test_criterion_7_factor_count_table():
    # rationals against the cyclotomic construction
    for c in range(1, 51):
        es = [e for e in divisors(2 * c) if c % e]
        product = [1]
        for e in es:
            product = int_mul(product, list(cyclotomic(e)))
        assert product == one_plus_tc(c), c
        assert count_factors_one_plus_tc(c, Q) == len(es), c

    # finite fields against exhaustive factorization for p * c <= 200; the
    # degree-partition count (gcds with t^(p^k) - t) covers every pair, and
    # plain trial division re-checks the pairs whose candidate space is small
    for p in _primes_upto(200):
        for c in range(1, 200 // p + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                counted = count_factors_one_plus_tc(c, FieldSpec.prime(p))
            assert counted == fp_distinct_factor_count(one_plus_tc(c), p), (c, p)
    trial_subset = (
        [(c, 2) for c in range(1, 21)]
        + [(c, 3) for c in range(1, 21)]
        + [(c, 5) for c in range(1, 13)]
        + [(c, 7) for c in range(1, 11)]
        + [(c, 11) for c in range(1, 9)]
        + [(c, 13) for c in range(1, 8)]
    )
    for c, p in trial_subset:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            counted = count_factors_one_plus_tc(c, FieldSpec.prime(p))
        assert counted == exhaustive_fp_factor_count(c, p), (c, p)

    # algebraically closed: c distinct roots in characteristic zero
    for c in (1, 2, 5, 12, 30, 50):
        assert count_factors_one_plus_tc(c, Q.closure()) == c

    # diagonal two-variable cross-checks, closed and not
    for m1, m2, n, field in [
        (4, 6, 5, Q),
        (6, 12, 5, Q),
        (3, 5, 2, Q),
        (4, 8, 3, FieldSpec.prime(5)),
        (6, 9, 5, FieldSpec.prime(3)),  # p | c: rejection is the consistent outcome
    ]:
        chk = diagonal_d2_crosscheck(m1, m2, n, field)
        assert chk.consistent, (m1, m2, n, str(field))
    for m1, m2, n in [(4, 6, 5), (6, 12, 5)]:
        chk = diagonal_d2_crosscheck(m1, m2, n, Q.closure())
        assert chk.consistent, (m1, m2, n)
        assert chk.predicted_count == chk.c
        assert chk.invariant_factors == (n,) * (chk.c - 1)
    _stamp(7, "factor counter matches cyclotomic products (c <= 50), "
              "exhaustive F_p factorizations (p*c <= 200), closed-field "
              "root counts, and the d = 2 diagonal pipeline")


def test_criterion_8_exactmath_property_suite():
    rng = random.Random(20260814)
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        U, S, V = smith_normal_form(M)
        UM = [
            [sum(U[i][k] * M[k][j] for k in range(rows)) for j in range(cols)]
            for i in range(rows)
        ]
        UMV = [
            [sum(UM[i][k] * V[k][j] for k in range(cols)) for j in range(cols)]
            for i in range(rows)
        ]
        assert UMV == S
        assert abs(integer_determinant(U)) == 1
        assert abs(integer_determinant(V)) == 1
        diag = [S[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0 if x else y == 0

    for _ in range(10**4):
        m = rng.randint(-10**9, 10**9)
        n = rng.randint(-10**9, 10**9)
        if m == 0 and n == 0:
            continue
        g, a, b = xgcd(m, n)
        assert a * m + b * n == g
        assert g > 0 and m % g == 0 and n % g == 0

    checked = 0
    while checked < 2000:
        m = rng.randint(1, 10**6)
        n = rng.randint(2, 10**6)
        if gcd(m, n) != 1:
            continue
        pair = BezoutPair.make(m, n)
        assert pair.a * m + pair.b * n == 1
        assert 1 <= pair.a <= n - 1
        checked += 1
    _stamp(8, "500 random Smith forms, 10^4 xgcd identities, 2000 canonical "
              "Bezout pairs, all exact")


def test_criterion_9_determinism():
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "divclass.cli", *args], capture_output=True
        )

    job_files = sorted(JOBS.glob("*.json"))
    assert job_files
    for path in job_files:
        first = run(["classgroup", str(path)])
        second = run(["classgroup", str(path)])
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout, path.name
        assert first.stdout.endswith(b"\n")
    # the verification report, with the oracle on, must also be stable
    first = run(["verify", str(JOBS / "z3_x1x2.json"), "--depth", "40"])
    second = run(["verify", str(JOBS / "z3_x1x2.json"), "--depth", "40"])
    assert first.stdout == second.stdout and first.returncode == 0
    # and the in-process payloads agree with themselves run to run
    job = JobFile.load(str(JOBS / "z3_x1x2.json"))
    assert json.dumps(run_job(job, verify=True), sort_keys=True) == json.dumps(
        run_job(job, verify=True), sort_keys=True
    )
    _stamp(9, f"{len(job_files)} job files re-run byte-identically, "
              "classgroup and verify modes")
