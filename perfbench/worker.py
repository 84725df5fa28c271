"""One workload process: set up, warm up, then run the closed loop.

Started by run.py, never by hand.  A single client runs one operation at a
time in this single-threaded process; each operation is an in-process call
to divclass.cli.main (or to exactmath.smith_normal_form for snf-random)
under a SIGALRM deadline.  Inputs are generated and outputs checked outside
the timed interval.

Protocol on stdout: one line `ready <time.monotonic()> <reference seconds>`
once the workload's warm-up operations are done (the second figure is the
host-speed reference sampled just after), then (unless --setup-only) one JSON line with
the run's results.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import signal
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import hostspeed
import workloads
from tracer import Deadline

# Operations per traced run: a fixed prefix of the seed's stream, so counts
# repeat exactly for a seed.  Each runs twice (traced and untraced).
TRACE_OPS = {
    "verify-monomial": 40,
    "verify-forms": 40,
    "cli-batch": 1500,
    "snf-random": 15000,
}


def _on_alarm(signum, frame):
    raise Deadline()


def timed(fn, deadline: float):
    """(seconds, value, timed_out); a missed deadline counts at the deadline."""
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            start = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return deadline, None, True
    return elapsed, value, False


class Runner:
    """Executes and checks operations of one workload."""

    def __init__(self, workload: str, workdir: str):
        from divclass import cli, exactmath

        self.cli = cli
        self.exactmath = exactmath
        self.deadline = workloads.DEADLINE_S[workload]
        self.job_path = os.path.join(workdir, "job.json")

    def prepare(self, op: workloads.Op):
        """Write the job file and return the zero-argument call to time."""
        if op.matrix is not None:
            return lambda: self.exactmath.smith_normal_form(op.matrix)
        if op.job is not None:
            with open(self.job_path, "w", encoding="utf-8") as fh:
                fh.write(op.job)
        argv = [self.job_path if a == workloads.JOB else a for a in op.argv]
        return lambda: self._main(argv)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv this way
                code = exc.code
        return code, out.getvalue()

    def execute(self, op: workloads.Op):
        try:
            return timed(self.prepare(op), self.deadline)
        finally:
            # a deadline can land inside redirect_stdout's exit
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__

    @staticmethod
    def check(op: workloads.Op, value) -> str | None:
        if op.matrix is not None:
            return workloads.check_snf(op.expect, op.matrix, value)
        return workloads.check_cli(op.expect, *value)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Tally:
    def __init__(self):
        self.attempted = self.wrong = self.timeouts = 0
        self.reasons: list[str] = []

    def record(self, op, timed_out: bool, reason: str | None) -> None:
        self.attempted += 1
        if timed_out:
            self.timeouts += 1
            self._note(f"deadline missed: {op.label}")
        elif reason is not None:
            self.wrong += 1
            self._note(f"{reason}: {op.label}")

    def _note(self, text: str) -> None:
        if len(self.reasons) < 5:
            self.reasons.append(text[:400])

    def payload(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.wrong + self.timeouts,
            "wrong": self.wrong,
            "timeouts": self.timeouts,
            "reasons": self.reasons,
        }


def warm_up(runner: Runner, workload: str) -> list[str]:
    problems = []
    for op in workloads.warmup(workload):
        _, value, timed_out = runner.execute(op)
        reason = "deadline missed" if timed_out else runner.check(op, value)
        if reason is not None:
            problems.append(f"warm-up {reason}: {op.label}")
    return problems


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    tally = Tally()
    clock = hostspeed.Clock()
    timings: list[tuple[float, float]] = []  # (start, seconds) of each op
    completed = 0
    ops = workloads.stream(workload, seed)
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        op = next(ops)
        clock.tick()
        at = time.perf_counter()
        elapsed, value, timed_out = runner.execute(op)
        reason = None if timed_out else runner.check(op, value)
        tally.record(op, timed_out, reason)
        timings.append((at, elapsed))
        completed += not timed_out
    clock.tick()
    durations = [clock.scale(at, elapsed) for at, elapsed in timings]
    busy = sum(durations)
    result = tally.payload()
    result["metrics"] = {
        "op_s.p50": percentile(durations, 0.5),
        "op_s.p90": percentile(durations, 0.9),
        "ops_per_s": completed / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (tally.attempted - result["failed"]) / tally.attempted,
    }
    return result


def trace(runner: Runner, workload: str, seed: int, spans_path: str) -> dict:
    """Run the fixed prefix twice per op, traced and untraced in alternating
    order; the two reports must be byte-identical."""
    from tracer import Tracer

    tracer = Tracer()
    tally = Tally()
    traced_s = untraced_s = 0.0
    ops = workloads.stream(workload, seed)
    for i in range(TRACE_OPS[workload]):
        op = next(ops)
        runs = {}
        for traced in (True, False) if i % 2 == 0 else (False, True):
            if traced:
                tracer.begin(i)
                try:
                    runs[traced] = runner.execute(op)
                finally:
                    tracer.finish()
            else:
                runs[traced] = runner.execute(op)
        (t_s, t_value, t_out), (u_s, u_value, u_out) = runs[True], runs[False]
        reason = None
        if not (t_out or u_out):
            traced_s += t_s
            untraced_s += u_s
            if t_value != u_value:
                reason = "traced output differs from the untraced output"
        reason = reason or (None if t_out else runner.check(op, t_value))
        tally.record(op, t_out or u_out, reason)
    tracer.write_spans(spans_path)
    result = tally.payload()
    result["metrics"] = tracer.metrics(traced_s / untraced_s - 1 if untraced_s else 0.0)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + workloads.UNLISTED)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    outdir = os.path.join(args.root, "perfbench", "out")
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as workdir:
        runner = Runner(args.workload, workdir)
        problems = warm_up(runner, args.workload)
        ready = time.monotonic()
        print(f"ready {ready!r} {hostspeed.median_sample()!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            spans = os.path.join(outdir, f"spans-{args.workload}-{args.seed}.tsv")
            result = trace(runner, args.workload, args.seed, spans)
        else:
            result = measure(runner, args.workload, args.seed, args.seconds)
    result["warmup_problems"] = problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
