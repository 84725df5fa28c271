"""The exit-code contract of the CLI over seeded random job files.

README: exit 0 is a result, exit 1 an internal inconsistency or a failed
verification, exit 2 a rejected input.  A fixed generator draws about 400
job files that mix valid and invalid fields: n from -1 to 10, one to three
variables, factors from a small grammar (variables, scalar multiples of
variable powers, binary and ternary forms, now and then cut short), an
optional x0 and g, and `classgroup`, `verify` and `hilbert` at small
depths.  It leans toward n = 1 and x0, where the rules differ by n.  Each
job runs in-process through `cli.main`.  An input that breaks an internal
invariant would surface here as exit 1 with `INTERNAL_INCONSISTENCY`.

A second seeded draw of 200 `verify` jobs at depths 0..40 leans toward
accepted jobs instead: variables and binary forms in x1, x2 under weights
(1, 1), (2, 1), (3, 2) and (5, 3), n in 2..7 prime to m and to p, over Q
and F_p, with `assume_normal`.  Only an irreducible form that happens to
split, or a repeated factor, is rejected.  Every accepted draw is run
again as isomorphic jobs (factors reversed, variables reordered, x1 and x2
swapped, weights scaled), which must keep its group and its verdicts.
"""

import json
import random
import time
from math import gcd

from divclass.cli import main

JOBS = 400
JOB_BUDGET_S = 2.0
TOTAL_BUDGET_S = 10.0

HILBERT_HEADER = "      j   series   direct"


def _factor(rng: random.Random, names: list[str]) -> str:
    x = rng.choice(names)
    y = rng.choice([name for name in names if name != x] or names)
    c = rng.choice((1, 2, 7, -3))
    text = rng.choice(
        (
            x,
            f"{c}*{x}",
            f"{c}*{x}^{rng.randint(2, 4)}",
            f"{x}^2",
            f"2*{x}^1*{x}^2",
            f"{x} + {y}",
            f"{x}^2 + {y}^2",
            f"{x}^2 - {y}^2",
            f"{x}*{y} + {y}^2",
            f"{x}^3 + 2*{y}^3",
            f"{x}*{y}",
            " + ".join(names),
        )
    )
    if rng.random() < 0.05:
        text = text[: rng.randrange(len(text) + 1)]
    return text


def _job(rng: random.Random) -> tuple[dict, list[str]]:
    """One job dict and the command line that runs it."""
    d = rng.choice((1, 2, 2, 3))
    names = ["x1", "x2", "x3"][:d]
    weights = [1] * d if rng.random() < 0.7 else [rng.choice((1, 2, 3)) for _ in names]
    if rng.random() < 0.05:
        weights[0] = rng.choice((0, -1))
    job = {
        "schema_version": 1 if rng.random() < 0.97 else 2,
        "field": rng.choice(("Q", "Q", "Q", "F2", "F3", "F5", "F7", "Qbar", "F5bar", "R")),
        "n": rng.choice((-1, 0, 1, 1, 1, 1, 1, 2, 2, 3, 4, 5, 7, 10)),
        "variables": names,
        "weights": weights,
        "factors": [_factor(rng, names) for _ in range(rng.randint(1, 3))],
    }
    if rng.random() < 0.35:
        job["x0"] = rng.choice(("x0", "x0", "x0", "x1", "0x"))
    if rng.random() < 0.1:
        job["g"] = "*".join(f"({f})" for f in job["factors"])
    if rng.random() < 0.7:
        job["assume_normal"] = rng.random() < 0.8
    command = rng.choice(("classgroup", "verify", "verify", "hilbert"))
    argv = [command, "{job}"]
    if command != "classgroup":
        argv += ["--depth", str(rng.randint(0, 12))]
    return job, argv


def _run(path, job: dict, argv: list[str], capsys) -> tuple[int, dict | None]:
    """Run one job through `cli.main` under the contract: its exit code and
    its JSON report, None for a hilbert table."""
    path.write_text(json.dumps(job))
    argv = [str(path) if a == "{job}" else a for a in argv]
    began = time.perf_counter()
    code = main(argv)
    took = time.perf_counter() - began
    out = capsys.readouterr().out
    where = (job, argv[0], code)
    assert code in (0, 1, 2), where
    assert took < JOB_BUDGET_S, (where, took)
    if argv[0] == "hilbert" and code != 2 and out.startswith(HILBERT_HEADER + "\n"):
        rows = out.splitlines()[1:]
        assert rows and all(len(row.split()) == 3 for row in rows), (where, out)
        report = None
    else:
        report = json.loads(out)
        assert isinstance(report, dict), (where, out)
    error = (report or {}).get("error", {})
    assert error.get("code") != "INTERNAL_INCONSISTENCY", (where, error)
    if code == 1:
        assert report is not None and report["verification"]["status"] == "fail", where
    if code == 2:
        assert error.get("code"), where
    return code, report


def test_random_jobs_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(1)
    path = tmp_path / "job.json"
    codes = {0: 0, 1: 0, 2: 0}
    started = time.perf_counter()
    for _ in range(JOBS):
        job, argv = _job(rng)
        code, _ = _run(path, job, argv, capsys)
        codes[code] += 1
    assert time.perf_counter() - started < TOTAL_BUDGET_S
    # the draws reach results as well as rejections
    assert codes[0] >= 40 and codes[2] >= 40, codes


# Weights of the two variables of an accepted draw.  (2, 1), (3, 2) and
# (5, 3) leave most degrees j with no monomial, so most pieces are empty.
ACCEPTED_WEIGHTS = ((1, 1), (2, 1), (3, 2), (5, 3))
ACCEPTED_JOBS = 200


def _binary_form(rng: random.Random, weights: tuple[int, int], p: int) -> tuple[str, int]:
    """A form in x1, x2 with nonzero end terms, and its degree.

    With coprime weights (c1, c2) the monomials of degree c1 c2 K are
    x1^(c2 i) x2^(c1 (K - i)), so the form is a binary form of degree K in
    x1^c2 and x2^c1; it may be reducible, which the job then rejects."""
    c1, c2 = weights
    K = rng.randint(1, 3 if weights == (1, 1) else 2)
    ends = [c for c in (1, 2, 3, -1, -2, 5) if not p or c % p]
    terms = []
    for i in range(K + 1):
        c = rng.choice(ends) if i in (0, K) else rng.randint(-2, 2)
        if c:
            terms.append(f"{c}*x1^{c2 * i}*x2^{c1 * (K - i)}")
    return " + ".join(terms), c1 * c2 * K


def _accepted_job(rng: random.Random) -> tuple[dict, list[str]]:
    """A `verify` job over Q or F_p that meets the hypotheses as drawn:
    variables and binary forms in x1, x2, n in 2..7 prime to m and p."""
    while True:
        weights = rng.choice(ACCEPTED_WEIGHTS)
        p = rng.choice((0, 0, 3, 5, 7, 11))
        factors, m = [], 0
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.3:
                factor, degree = "x1", weights[0]
            elif kind < 0.6:
                factor, degree = "x2", weights[1]
            else:
                factor, degree = _binary_form(rng, weights, p)
            if factor not in factors:
                factors.append(factor)
                m += degree
        ns = [n for n in range(2, 8) if gcd(n, m) == 1 and (not p or n % p)]
        if ns:
            break
    job = {
        "schema_version": 1,
        "field": f"F{p}" if p else "Q",
        "n": rng.choice(ns),
        "variables": ["x1", "x2"],
        "weights": list(weights),
        "factors": factors,
        "assume_normal": True,
    }
    return job, ["verify", "{job}", "--depth", str(rng.randint(0, 40))]


def _accepted_draws() -> list[tuple[dict, list[str]]]:
    rng = random.Random(2)
    return [_accepted_job(rng) for _ in range(ACCEPTED_JOBS)]


def test_random_accepted_jobs_verify(tmp_path, capsys):
    # jobs drawn to be accepted, where the oracle walks pieces that are
    # mostly empty: every result is a passing verification, and the oracle
    # passes on at least half of the draws
    path = tmp_path / "job.json"
    codes = {0: 0, 1: 0, 2: 0}
    oracle_passed = 0
    started = time.perf_counter()
    for job, argv in _accepted_draws():
        code, report = _run(path, job, argv, capsys)
        codes[code] += 1
        if code == 0:
            verification = report["verification"]
            assert verification["status"] == "pass", (job, argv)
            oracle_passed += verification["oracle"]["status"] == "pass"
    assert time.perf_counter() - started < TOTAL_BUDGET_S
    assert codes[1] == 0, codes
    assert oracle_passed >= 100, (oracle_passed, codes)


def _verdicts(report: dict) -> tuple:
    """The group and the status of every verification block of a report."""
    verification = report["verification"]
    oracle = verification["oracle"]
    return (
        report["class_group"]["invariant_factors"],
        verification["status"],
        verification["section_ring"]["status"],
        verification["hilbert"]["status"],
        oracle["status"],
        sorted(ideal["status"] for ideal in oracle.get("divisorial_ideals", ())),
    )


def _swap_names(text: str) -> str:
    return text.replace("x1", "#").replace("x2", "x1").replace("#", "x2")


def test_accepted_jobs_keep_their_verdicts_under_isomorphisms(tmp_path, capsys):
    # each accepted draw, rewritten into an isomorphic job, verifies alike:
    # the factors listed in reverse; the variables listed in the other
    # order; x1 and x2 swapped in the weights and the factor texts; and
    # both weights multiplied by a k prime to n, whose report is the
    # draw's with one more note, the rescale
    rng = random.Random(3)
    path = tmp_path / "job.json"
    accepted = 0
    for job, argv in _accepted_draws():
        code, report = _run(path, job, argv, capsys)
        if code != 0:
            continue
        accepted += 1
        weights = job["weights"]
        isomorphic = [
            dict(job, factors=job["factors"][::-1]),
            dict(job, variables=job["variables"][::-1], weights=weights[::-1]),
            dict(
                job,
                weights=weights[::-1],
                factors=[_swap_names(text) for text in job["factors"]],
            ),
        ]
        for other in isomorphic:
            code, other_report = _run(path, other, argv, capsys)
            assert code == 0 and _verdicts(other_report) == _verdicts(report), (job, other)
        k = rng.choice([k for k in range(2, 8) if gcd(k, job["n"]) == 1])
        scaled = [k * c for c in weights]
        code, rescaled = _run(path, dict(job, weights=scaled), argv, capsys)
        notes = rescaled["hypotheses"]["notes"]
        note = f"weights rescaled from ({scaled[0]}, {scaled[1]}) to ({weights[0]}, {weights[1]})"
        assert code == 0 and note in notes, (job, k, notes)
        notes.remove(note)
        assert rescaled == report, (job, k)
    assert accepted >= 100, accepted
