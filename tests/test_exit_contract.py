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
"""

import json
import random
import time

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


def test_random_jobs_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(1)
    path = tmp_path / "job.json"
    codes = {0: 0, 1: 0, 2: 0}
    started = time.perf_counter()
    for _ in range(JOBS):
        job, argv = _job(rng)
        path.write_text(json.dumps(job))
        argv = [str(path) if a == "{job}" else a for a in argv]
        began = time.perf_counter()
        code = main(argv)
        took = time.perf_counter() - began
        out = capsys.readouterr().out
        where = (job, argv[0], code)
        assert code in codes, where
        codes[code] += 1
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
    assert time.perf_counter() - started < TOTAL_BUDGET_S
    # the draws reach results as well as rejections
    assert codes[0] >= 40 and codes[2] >= 40, codes
