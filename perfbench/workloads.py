"""Seeded operation streams for the workloads, with expected answers.

An operation is either a CLI call (argv plus the text of the job file it
reads) or one Smith normal form of an integer matrix.  Each carries the
answer the benchmark expects, computed here with `arith` and never with
divclass: class groups (Z/n)^(r-1) and their degree data, verify status,
rejection codes, factor counts of 1 + t^c and the rank and determinantal
divisors of each matrix.

The same (workload, seed) always yields the same stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd

import arith

# The workloads BENCHMARK.json lists.
WORKLOADS = ("verify-monomial", "verify-forms", "cli-batch")
# Runnable by hand, but not listed: the current Smith form does not finish
# on about 0.15% of these matrices (31 of 20 000 ran past 2 s), so its
# operations fail, and a listed workload must have none that fail.
UNLISTED = ("snf-random",)

# Seconds an operation may take before it counts as failed.  Far above the
# slowest passing operation each workload generates; a Smith form past its
# deadline is the coefficient blow-up of the current algorithm.
DEADLINE_S = {
    "verify-monomial": 5.0,
    "verify-forms": 5.0,
    "cli-batch": 2.0,
    "snf-random": 0.02,
}

# Verify depth is chosen per job so that a cost model stays near a budget,
# which keeps operations of different shapes comparable in cost: each degree
# j <= depth costs (2r + 2) module or ideal comparisons plus PER_DIM times
# (r + 2) dim R_j for the rows built.  PER_DIM is about 0.05 for unit rows
# and 1 for general rows (least squares over 60 jobs of each workload).
VERIFY_COST = {"verify-monomial": (0.05, 750), "verify-forms": (1.0, 900)}
DEPTH_RANGE = (8, 150)

NAMES = ("x1", "x2", "x3")
JOB = "{job}"  # placeholder in argv for the job file path

# reduced coprime weights of the two form variables
FORM_WEIGHTS = ((1, 1), (1, 1), (1, 1), (2, 1), (1, 2), (3, 2), (5, 3))


@dataclass
class Op:
    argv: tuple[str, ...] = ()
    job: str | None = None
    matrix: list[list[int]] | None = None
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if self.matrix is not None:
            return f"snf {self.matrix}"
        return " ".join(self.argv) + (f" <job {self.job}>" if self.job else "")


@dataclass
class Spec:
    """A hypersurface job: z^n = (x0 *) prod factors over a field."""

    weights: tuple[int, ...]
    p: int
    closed: bool
    factors: list[dict]
    degrees: list[int]  # s-degree of each factor; 1 for a variable
    n: int = 0
    x0: bool = False

    @property
    def names(self) -> tuple[str, ...]:
        return NAMES[: len(self.weights)]

    @property
    def field_name(self) -> str:
        return ("Q" if self.p == 0 else f"F{self.p}") + ("bar" if self.closed else "")

    def base_m(self) -> int:
        """deg g after dividing the weights by their gcd."""
        return sum(arith.weighted_degree(f, self.weights) for f in self.factors) // gcd(*self.weights)

    def job_dict(self) -> dict:
        job = {
            "schema_version": 1,
            "field": self.field_name,
            "n": self.n,
            "variables": list(self.names),
            "weights": list(self.weights),
            "factors": [arith.render(f, self.names) for f in self.factors],
            "assume_normal": True,
        }
        if self.x0:
            job["x0"] = "x0"
        return job


def _is_variable(f: dict) -> bool:
    return len(f) == 1 and sum(next(iter(f))) == 1


def _pick_n(rng: random.Random, spec: Spec) -> int | None:
    """n in 2..7, prime to the characteristic, with gcd(m, n) = 1 when the
    job can meet it (the x0 weight is chosen to make it so)."""
    m = spec.base_m()
    ok = [
        n
        for n in range(2, 8)
        if (spec.p == 0 or n % spec.p) and (spec.x0 or gcd(n, m) == 1)
    ]
    return rng.choice(ok) if ok else None


def _x0_weight(m_g: int, n: int) -> int:
    c0 = 1
    while gcd(c0 + m_g, n) != 1:
        c0 += 1
    return c0


def expect_group(spec: Spec) -> dict:
    """Report facts of an accepted classgroup job: (Z/n)^(r-1) and its data."""
    w = gcd(*spec.weights)
    weights = [x // w for x in spec.weights]
    gammas = [arith.weighted_degree(f, spec.weights) // w for f in spec.factors]
    splits = list(spec.degrees) if spec.closed else [1] * len(spec.factors)
    m = sum(gammas)
    c0 = None
    if spec.x0:
        c0 = _x0_weight(m, spec.n)
        m += c0
        weights.append(c0)
        gammas.append(c0)
        splits.append(1)
    components = [g // s for g, s in zip(gammas, splits) for _ in range(s)]
    r = len(components)
    n = spec.n
    variables = [i for i, f in enumerate(spec.factors) if _is_variable(f)]
    return {
        "kind": "group",
        "exit": 0,
        "mode": "x0-extension" if spec.x0 else "hypersurface",
        "n": n,
        "m": m,
        "weights": weights,
        "invariants": [n] * (r - 1),
        "r": r,
        "relations": len(spec.factors) + spec.x0 + 1,
        "degree_h": [n * c for c in components[: r - 1]],
        "x0_weight": c0,
        "closure_splits": splits if spec.closed else None,
        # the lattice model covers z^n = x_i x_j in exactly two variables
        "monomial_model": len(weights) == 2
        and r == 2
        and len(variables) + spec.x0 == 2,
    }


def _choose_depth(spec: Spec, expect: dict, per_dim: float, budget: int) -> int:
    lo, hi = DEPTH_RANGE
    dims = arith.graded_dims(tuple(expect["weights"]), spec.n, expect["m"], hi)
    r = expect["r"]
    rows = 0
    depth = lo
    for j, dim in enumerate(dims):
        rows += dim
        if j >= lo and j * (2 * r + 2) + per_dim * (r + 2) * rows > budget:
            break
        depth = max(lo, j)
    return depth


# ---------------------------------------------------------------------------
# job shapes


def monomial_spec(rng: random.Random, x0: bool, d: int, r: int, p: int) -> Spec:
    """z^n = x_i ... x_k (or x0 x_i ... x_k): r of the d variables, random weights."""
    weights = tuple(rng.randint(1, 3) for _ in range(d))
    chosen = sorted(rng.sample(range(d), r))
    factors = [{tuple(int(i == k) for i in range(d)): 1} for k in chosen]
    return Spec(weights, p, False, factors, [1] * r, x0=x0)


def any_monomial_spec(rng: random.Random, x0: bool, fields=(0, 0, 2, 3, 5, 7)) -> Spec:
    d = rng.choice((1, 2)) if x0 else rng.choice((2, 3))
    r = rng.randint(1, d) if x0 else rng.randint(2, d)
    return monomial_spec(rng, x0, d, r, rng.choice(fields))


def _random_coeffs(rng: random.Random, p: int, K: int) -> list[int]:
    if p:
        ends = range(1, p)
        return [rng.choice(ends) if k in (0, K) else rng.randrange(p) for k in range(K + 1)]
    ends = (-3, -2, -1, 1, 2, 3)
    return [rng.choice(ends) if k in (0, K) else rng.randint(-3, 3) for k in range(K + 1)]


def irreducible_form(rng: random.Random, p: int, K: int, c1: int, c2: int) -> dict:
    while True:
        coeffs = _random_coeffs(rng, p, K)
        if K == 1 or not arith.has_root(coeffs, p):
            return arith.binary_form(coeffs, c1, c2)


def forms_spec(rng: random.Random, p: int, r: int, closed: bool = False) -> Spec:
    """Two-variable jobs whose factors include non-monomial binary forms.

    Every form is irreducible of s-degree K <= 3 (a root test decides it),
    no two of the r factors are proportional, and at least one factor is not
    a variable.  The reduced weights (c1, c2) are scaled by 2 in a quarter of
    the jobs so that weight normalization runs too.
    """
    while True:
        c1, c2 = rng.choice(FORM_WEIGHTS)
        scale = rng.choice((1, 1, 1, 2))
        top = 3 if c1 * c2 <= 2 else 2
        factors: list[dict] = []
        degrees: list[int] = []
        for _ in range(40):
            if len(factors) == r:
                break
            if rng.random() < 0.25:
                f = {(1, 0): 1} if rng.random() < 0.5 else {(0, 1): 1}
                K = 1
            else:
                K = rng.randint(1, top)
                f = irreducible_form(rng, p, K, c1, c2)
            if any(arith.proportional(f, h, p) for h in factors):
                continue
            factors.append(f)
            degrees.append(K)
        if len(factors) == r and not all(map(_is_variable, factors)):
            return Spec((c1 * scale, c2 * scale), p, closed, factors, degrees)


def any_forms_spec(rng: random.Random, fields, closed: bool = False) -> Spec:
    return forms_spec(rng, rng.choice(fields), rng.randint(2, 4), closed)


def _with_n(rng: random.Random, make) -> Spec:
    while True:
        spec = make()
        n = _pick_n(rng, spec)
        if n is not None:
            spec.n = n
            return spec


# ---------------------------------------------------------------------------
# operations


def classgroup_op(spec: Spec, job: dict | None = None, expect: dict | None = None) -> Op:
    text = json.dumps(job if job is not None else spec.job_dict())
    return Op(("classgroup", JOB), text, expect=expect or expect_group(spec))


def verify_op(spec: Spec, cost: tuple[float, int]) -> Op:
    expect = expect_group(spec)
    depth = _choose_depth(spec, expect, *cost)
    expect.update(kind="verify", depth=depth)
    return Op(("verify", JOB, "--depth", str(depth)), json.dumps(spec.job_dict()), expect=expect)


def factors_count_op(c: int, p: int, closed: bool) -> Op:
    name = ("Q" if p == 0 else f"F{p}") + ("bar" if closed else "")
    count = arith.one_plus_tc_factor_count(c, p, closed)
    return Op(
        ("factors-count", "--c", str(c), "--field", name),
        expect={"kind": "count", "exit": 0, "stdout": f"{count}\n"},
    )


def _error(code: str) -> dict:
    return {"kind": "error", "exit": 2, "code": code}


def _planted(rng: random.Random, code: str) -> Op:
    """A classgroup job with exactly one defect that the CLI must name."""
    fields = (0, 0, 3, 5, 7)
    if code == "GCD_VIOLATION":
        while True:
            spec = any_forms_spec(rng, fields) if rng.random() < 0.7 else any_monomial_spec(rng, False)
            m = spec.base_m()
            shared = [n for n in range(2, 13) if gcd(n, m) > 1 and (spec.p == 0 or n % spec.p)]
            if shared:
                spec.n = rng.choice(shared)
                return classgroup_op(spec, expect=_error(code))
    spec = _with_n(rng, lambda: any_forms_spec(rng, fields))
    job = spec.job_dict()
    if code == "REPEATED_FACTOR":
        t = rng.randrange(len(spec.factors))
        scalar = rng.choice((-1, 2, 3)) if spec.p == 0 else rng.randrange(1, spec.p)
        twin = {e: (c * scalar) % spec.p if spec.p else c * scalar for e, c in spec.factors[t].items()}
        spec.factors.append(twin)
        spec.degrees.append(spec.degrees[t])
        return _renumbered(rng, spec, code)
    if code == "NOT_IRREDUCIBLE":
        # (s - a)(s - b) with a != b nonzero: squarefree, not divisible by
        # a variable, and reducible over the base field
        w = gcd(*spec.weights)
        c1, c2 = spec.weights[0] // w, spec.weights[1] // w
        while True:
            a, b = rng.sample((1, 2, 3, -1, -2, -3), 2)
            if spec.p == 0 or (a * b % spec.p and (a - b) % spec.p):
                break
        coeffs = [a * b, -(a + b), 1]
        if spec.p:
            coeffs = [x % spec.p for x in coeffs]
        spec.factors.append(arith.binary_form(coeffs, c1, c2))
        spec.degrees.append(2)
        return _renumbered(rng, spec, code)
    if code == "PRODUCT_MISMATCH":
        product = arith.poly_product(spec.factors, spec.p)
        lead = max(product)
        texts = [arith.render(f, spec.names) for f in spec.factors]
        job["g"] = "(" + ")*(".join(texts) + ") + " + arith.render({lead: product[lead]}, spec.names)
        return classgroup_op(spec, job, _error(code))
    if code == "POLYNOMIAL_SYNTAX_ERROR":
        t = rng.randrange(len(job["factors"]))
        text = job["factors"][t]
        job["factors"][t] = rng.choice(
            (text + " +", "(" + text, text + ")", text + " $")
        )
        return classgroup_op(spec, job, _error(code))
    if code == "JOB_FILE_ERROR":
        how = rng.randrange(6)
        if how == 0:
            del job["factors"]
        elif how == 1:
            job["colour"] = "red"
        elif how == 2:
            job["n"] = str(job["n"])
        elif how == 3:
            job["schema_version"] = 2
        elif how == 4:
            job["weights"][0] = True
        else:
            return Op(("classgroup", JOB), json.dumps(job)[:-2], expect=_error(code))
        return classgroup_op(spec, job, _error(code))
    raise ValueError(code)


def _renumbered(rng: random.Random, spec: Spec, code: str) -> Op:
    """Re-pick n for the grown factor list so the planted defect is the only one."""
    n = _pick_n(rng, spec)
    if n is None:
        return _planted(rng, code)
    spec.n = n
    return classgroup_op(spec, expect=_error(code))


PLANTED = (
    "GCD_VIOLATION",
    "REPEATED_FACTOR",
    "NOT_IRREDUCIBLE",
    "PRODUCT_MISMATCH",
    "POLYNOMIAL_SYNTAX_ERROR",
    "JOB_FILE_ERROR",
)


def _cli_batch_op(rng: random.Random) -> Op:
    roll = rng.random()
    if roll < 0.25:
        return factors_count_op(
            rng.randint(1, 48),
            rng.choice((0, 0, 2, 3, 5, 7, 11)),
            rng.random() < 0.25,
        )
    if roll < 0.6:
        return _planted(rng, rng.choice(PLANTED))
    shape = rng.randrange(4)
    if shape == 0:
        spec = _with_n(rng, lambda: any_monomial_spec(rng, rng.random() < 0.4))
    elif shape == 1:
        spec = _with_n(rng, lambda: any_forms_spec(rng, (0, 0, 3, 5, 7), closed=rng.random() < 0.3))
    else:
        spec = _with_n(rng, lambda: any_forms_spec(rng, (0, 0, 2, 3, 5, 7)))
        spec.x0 = shape == 3
    return classgroup_op(spec)


def snf_op(rng: random.Random) -> Op:
    """One matrix from the acceptance suite's distribution: 1-5 x 1-5, entries in [-30, 30]."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    M = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
    rank, d1, top = arith.smith_invariants(M)
    return Op(matrix=M, expect={"kind": "snf", "rank": rank, "d1": d1, "product": top})


# Shapes of the verify workloads.  Each round of a stream visits every shape
# once in a fresh random order, so any run of a few rounds holds each shape
# in the same proportion whatever the seed.
MONOMIAL_SHAPES = tuple(
    (x0, d, r, p)
    for x0, d, r in ((False, 2, 2), (False, 3, 2), (False, 3, 3)) * 2
    + ((True, 1, 1), (True, 2, 1), (True, 2, 2))
    for p in (0, 0, 2, 3, 5, 7)
)
FORMS_SHAPES = tuple((p, r) for p in (0, 0, 3, 5, 7, 11) for r in (2, 3, 4))


def _rounds(rng: random.Random, shapes):
    while True:
        order = list(shapes)
        rng.shuffle(order)
        yield from order


def stream(workload: str, seed: int):
    """Endless seeded operation stream of one workload."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-monomial":
        for shape in _rounds(rng, MONOMIAL_SHAPES):
            spec = _with_n(rng, lambda: monomial_spec(rng, *shape))
            yield verify_op(spec, VERIFY_COST[workload])
    elif workload == "verify-forms":
        for shape in _rounds(rng, FORMS_SHAPES):
            spec = _with_n(rng, lambda: forms_spec(rng, *shape))
            yield verify_op(spec, VERIFY_COST[workload])
    elif workload == "cli-batch":
        while True:
            yield _cli_batch_op(rng)
    elif workload == "snf-random":
        while True:
            yield snf_op(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> list[Op]:
    """Fixed operations run before timing starts, the same for every seed.

    They import every module the workload touches, including sympy on the
    Q-form paths, so the timed loop measures warm operations only.
    """
    x12 = [{(1, 0): 1}, {(0, 1): 1}]
    q_forms = Spec((1, 1), 0, False, [{(1, 0): 1, (0, 1): 1}, {(2, 0): 1, (0, 2): 1}], [1, 2], n=2)
    if workload == "verify-monomial":
        return [
            verify_op(Spec((1, 1), 0, False, x12, [1, 1], n=3), (1.0, 300)),
            verify_op(Spec((1,), 0, False, [{(1,): 1}], [1], n=5, x0=True), (1.0, 300)),
        ]
    if workload == "verify-forms":
        f7 = Spec((1, 1), 7, False, q_forms.factors + [{(1, 0): 1}], [1, 2, 1], n=3)
        return [verify_op(q_forms, (1.0, 300)), verify_op(f7, (1.0, 300))]
    if workload == "cli-batch":
        rng = random.Random(0)
        return [
            classgroup_op(q_forms),
            factors_count_op(6, 3, False),
            _planted(rng, "GCD_VIOLATION"),
        ]
    if workload == "snf-random":
        rng = random.Random(0)
        return [
            Op(matrix=M, expect=dict(zip(("rank", "d1", "product"), arith.smith_invariants(M))))
            for M in (
                [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)] for k in (1, 2, 3, 2, 3)
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks: None when the output is right, else the reason it is wrong


def check_cli(expect: dict, code: int, stdout: str) -> str | None:
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if expect["kind"] == "count":
        return None if stdout == expect["stdout"] else f"printed {stdout!r}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    if expect["kind"] == "error":
        got = report.get("error", {}).get("code")
        return None if got == expect["code"] else f"error code {got}, expected {expect['code']}"
    wrong = _check_group(expect, report)
    if wrong or expect["kind"] == "group":
        return wrong
    return _check_verification(expect, report.get("verification") or {})


def _check_group(expect: dict, report: dict) -> str | None:
    hyp = report.get("hypotheses", {})
    group = report.get("class_group", {})
    n, r = expect["n"], expect["r"]
    facts = {
        "mode": (report.get("mode"), expect["mode"]),
        "n": (hyp.get("n"), n),
        "m": (hyp.get("m"), expect["m"]),
        "gcd_m_n": (hyp.get("gcd_m_n"), 1),
        "weights": (hyp.get("weights"), expect["weights"]),
        "invariant_factors": (group.get("invariant_factors"), expect["invariants"]),
        "order": (group.get("order"), n ** (r - 1)),
        "effective_factors": (report.get("effective_factors"), r),
        "x0_weight": (report.get("x0_weight"), expect["x0_weight"]),
        "closure_splits": (report.get("closure_splits"), expect["closure_splits"]),
        "generator orders": ([g.get("order") for g in report.get("generators", [])], [n] * (r - 1)),
        "generator degree_z": (
            [g.get("degree_z") for g in report.get("generators", [])],
            [expect["m"]] * (r - 1),
        ),
        "generator degree_h": (
            [g.get("degree_h") for g in report.get("generators", [])],
            expect["degree_h"],
        ),
        "relations": (
            [rel.get("identity_holds") for rel in report.get("relations", [])],
            [True] * expect["relations"],
        ),
    }
    for name, (got, want) in facts.items():
        if got != want:
            return f"{name} is {got!r}, expected {want!r}"
    return None


def _check_verification(expect: dict, ver: dict) -> str | None:
    depth = expect["depth"]
    oracle = ver.get("oracle") or {}
    facts = {
        "status": (ver.get("status"), "pass"),
        "depth": (ver.get("depth"), depth),
        "section_ring": (
            (ver.get("section_ring", {}).get("status"), ver.get("section_ring", {}).get("checked")),
            ("pass", depth + 1),
        ),
        "hilbert": (ver.get("hilbert", {}).get("status"), "pass"),
        "oracle": (oracle.get("status"), "pass"),
        "ideals": (
            [i.get("status") for i in oracle.get("divisorial_ideals", [])],
            ["pass"] * expect["r"],
        ),
        "order_relations": (
            oracle.get("order_relations", {}).get("variant"),
            "intersection" if expect["r"] >= 2 else "single-factor",
        ),
        "monomial_model": (oracle.get("monomial_model") is not None, expect["monomial_model"]),
    }
    for name, (got, want) in facts.items():
        if got != want:
            return f"verification {name} is {got!r}, expected {want!r}"
    return None


def check_snf(expect: dict, M: list[list[int]], result) -> str | None:
    """Certificate check: U M V = S in Smith form with U, V unimodular, and
    S agrees with the rank and determinantal divisors of M."""
    U, S, V = result
    rows, cols = len(M), len(M[0])
    if len(U) != rows or len(V) != cols or len(S) != rows or len(S[0]) != cols:
        return "transform shapes do not match the input"
    if arith.mat_mul(arith.mat_mul(U, M), V) != S:
        return "U*M*V != S"
    diag = [S[i][i] for i in range(min(rows, cols))]
    if any(S[i][j] for i in range(rows) for j in range(cols) if i != j):
        return "S is not diagonal"
    if any(d < 0 for d in diag):
        return "negative invariant factor"
    for x, y in zip(diag, diag[1:]):
        if (y % x if x else y) != 0:
            return f"divisibility chain broken at {x}, {y}"
    if abs(arith.determinant(U)) != 1 or abs(arith.determinant(V)) != 1:
        return "transform is not unimodular"
    nonzero = [d for d in diag if d]
    product = 1
    for d in nonzero:
        product *= d
    got = (len(nonzero), nonzero[0] if nonzero else 0, product)
    want = (expect["rank"], expect["d1"], expect["product"])
    return None if got == want else f"(rank, d1, product) {got}, expected {want}"
