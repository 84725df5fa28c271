"""In-process A/B timing of two divclass source trees on a perfbench stream.

    python scripts/ab_inprocess.py OLD/src/divclass src/divclass \
        --workload verify-monomial --seed 1 --ops 600

Both trees are imported into one process under two package names, so each
keeps its own caches.  The workload's warm-up operations run through both
first; then each of the first --ops operations of the seeded stream
(perfbench/workloads.py, read only) runs through both trees' `cli.main` on
the same job file, the tree that goes first alternating per operation.
Each call is timed as wall time, not scaled to the host speed.  The report
counts the operations whose exit code or stdout differ between the trees
and gives, per tree, the mean, p50 and p90 time per operation, the
operations on which it was the faster one (`wins`, and as `faster_frac` a
share of all operations) and, apart, the `ties`, the operations timed
equal on both trees, which count for neither.  The last stdout line is the
report as JSON; the exit code is 1 when an operation mismatched.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def load_tree(package_dir: str, name: str):
    """Import the divclass package at `package_dir` as `name`; its cli."""
    init = Path(package_dir) / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv: list[str]) -> tuple[float, tuple[int, str]]:
    """(seconds, (exit code, stdout)) of one `cli.main` call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code
        elapsed = time.perf_counter() - start
    return elapsed, (code, out.getvalue())


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def compare(clis, ops, job_path: str) -> tuple[tuple[list, list], list[str]]:
    """Run every op through both trees: the times in microseconds per tree
    and the labels of the ops whose results differ."""
    times = ([], [])
    mismatches = []
    for i, op in enumerate(ops):
        if op.job is not None:
            Path(job_path).write_text(op.job, encoding="utf-8")
        argv = [job_path if a == workloads.JOB else a for a in op.argv]
        results = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            elapsed, results[side] = run(clis[side], argv)
            times[side].append(elapsed * 1e6)
        if results[0] != results[1]:
            mismatches.append(op.label)
    return times, mismatches


def summary(times: tuple[list[float], list[float]], mismatches: list[str]) -> dict:
    a, b = times
    wins = [sum(ta < tb for ta, tb in zip(a, b)), sum(tb < ta for ta, tb in zip(a, b))]
    out = {"ops": len(a), "mismatches": len(mismatches)}
    for key, fn in (("mean_us", statistics.fmean), ("p50_us", statistics.median)):
        out[key] = [round(fn(a), 1), round(fn(b), 1)]
    out["p90_us"] = [round(p90(a), 1), round(p90(b), 1)]
    out["mean_change"] = round(out["mean_us"][1] / out["mean_us"][0] - 1, 4)
    out["p50_change"] = round(out["p50_us"][1] / out["p50_us"][0] - 1, 4)
    out["wins"] = wins
    out["ties"] = len(a) - sum(wins)
    out["faster_frac"] = [round(w / len(a), 3) for w in wins]
    if mismatches:
        out["first_mismatch"] = mismatches[0]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="the first tree's package directory (.../src/divclass)")
    ap.add_argument("b", help="the second tree's package directory")
    ap.add_argument("--workload", default="verify-monomial", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=600)
    args = ap.parse_args(argv)
    clis = (load_tree(args.a, "divclass_a"), load_tree(args.b, "divclass_b"))
    with tempfile.TemporaryDirectory() as tmp:
        job_path = os.path.join(tmp, "job.json")
        compare(clis, workloads.warmup(args.workload), job_path)
        ops = list(islice(workloads.stream(args.workload, args.seed), args.ops))
        times, mismatches = compare(clis, ops, job_path)
    report = {"workload": args.workload, "seed": args.seed, **summary(times, mismatches)}
    print(f"{args.workload} seed {args.seed}: {report['ops']} ops, "
          f"{report['mismatches']} mismatches")
    for key in ("mean_us", "p50_us", "p90_us", "wins", "faster_frac"):
        print(f"  {key:12s} a {report[key][0]}  b {report[key][1]}")
    print(f"  {'ties':12s} {report['ties']}")
    print(json.dumps(report))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
