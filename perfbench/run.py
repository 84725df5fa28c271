"""divclass benchmark: one seeded workload, one result line.

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 the workload runs untimed set-up several times in fresh
processes (the median is `setup_s`), then one fresh process runs the closed
loop for --seconds and reports the end-to-end metrics, every time scaled
to a nominal host speed (see hostspeed.py).  With --trace 1 one
process runs a fixed prefix of the stream with per-layer spans and reports
the per-layer metrics.  The last stdout line is the JSON result; the lines
before it give the run context and each metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7  # fresh processes timed to "ready", the measured one included
RUN_TIMEOUT_S = 170  # for all the processes of one run together

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_context() -> dict:
    # only the checkout's own repository, not one that happens to enclose it
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if sha else None
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "sympy": sympy,
        "gc_threshold": list(gc.get_threshold()),
    }


def spawn(args: argparse.Namespace, stop: float, *extra: str) -> tuple[float, dict | None]:
    """Start a fresh worker and wait for it until `stop` (time.monotonic());
    return (seconds until it was ready, scaled to the nominal host speed,
    its result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    before = hostspeed.median_sample()
    started = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(stop - started, 1))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    lines = done.stdout.splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise RuntimeError("worker never reported ready")
    _, ready_at, after = lines[0].split()
    ready = (float(ready_at) - started) * hostspeed.factor((before + float(after)) / 2)
    return ready, (json.loads(lines[-1]) if len(lines) > 1 else None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + workloads.UNLISTED)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "divclass" / "cli.py").is_file():
        print(f"no divclass sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    stop = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace:
            _, result = spawn(args, stop)
            units = dict(tracer.per_layer_metrics())
        else:
            setups = [spawn(args, stop, "--setup-only")[0] for _ in range(SETUP_RUNS - 1)]
            ready, result = spawn(args, stop)
            setups.append(ready)
            result["metrics"]["setup_s"] = statistics.median(setups)
            units = END_TO_END_UNITS
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    correct = result["wrong"] == 0 and not result["warmup_problems"]
    for note in result["warmup_problems"] + result["reasons"]:
        print(f"failure: {note}", file=sys.stderr)
    print("context " + json.dumps(run_context(), sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed}: {result['attempted']} ops attempted, "
        f"{result['wrong']} wrong, {result['timeouts']} past the "
        f"{workloads.DEADLINE_S[args.workload]} s deadline"
    )
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:58s} {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
