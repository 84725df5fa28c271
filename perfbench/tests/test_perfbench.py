"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import signal
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import arith  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _prefix(workload: str, seed: int, count: int) -> list:
    ops = workloads.stream(workload, seed)
    return [next(ops) for _ in range(count)]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for workload in workloads.WORKLOADS + workloads.UNLISTED:
            with self.subTest(workload=workload):
                self.assertEqual(_prefix(workload, 7, 30), _prefix(workload, 7, 30))
                self.assertNotEqual(_prefix(workload, 7, 30), _prefix(workload, 8, 30))

    def test_cli_batch_plants_every_rejection(self):
        codes = {op.expect.get("code") for op in _prefix("cli-batch", 3, 400)}
        self.assertLessEqual(set(workloads.PLANTED), codes)

    def test_factor_counts_by_orbits(self):
        # 1 + t^6 = (1 + t^2)(1 - t^2 + t^4) over Q; 1 + t^3 = (1 + t)(1 + t + t^2) over F2;
        # t^2 + 1 is irreducible over F3 and splits over F5
        cases = {(6, 0, False): 2, (3, 0, False): 2, (4, 0, False): 1, (3, 2, False): 2,
                 (2, 3, False): 1, (2, 5, False): 2, (9, 3, False): 1, (12, 0, True): 12,
                 (12, 3, True): 4}
        for (c, p, closed), want in cases.items():
            with self.subTest(c=c, p=p, closed=closed):
                self.assertEqual(arith.one_plus_tc_factor_count(c, p, closed), want)


class CheckTest(unittest.TestCase):
    def setUp(self):
        signal.signal(signal.SIGALRM, worker._on_alarm)
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def _tally(self, workload: str, op) -> worker.Tally:
        runner = worker.Runner(workload, self.tmp.name)
        _, value, timed_out = runner.execute(op)
        tally = worker.Tally()
        tally.record(op, timed_out, None if timed_out else runner.check(op, value))
        return tally

    def test_planted_wrong_expectation_is_a_failure(self):
        op = next(op for op in _prefix("cli-batch", 1, 50) if op.expect["kind"] == "group")
        self.assertEqual(self._tally("cli-batch", op).payload()["failed"], 0)
        op.expect["invariants"] = op.expect["invariants"] + [op.expect["n"]]
        tally = self._tally("cli-batch", op).payload()
        self.assertEqual((tally["failed"], tally["wrong"]), (1, 1))

    def test_planted_wrong_rejection_code_is_a_failure(self):
        op = next(op for op in _prefix("cli-batch", 1, 50) if op.expect["kind"] == "error")
        op.expect["code"] = "NOT_A_CODE"
        self.assertEqual(self._tally("cli-batch", op).payload()["wrong"], 1)

    def test_planted_wrong_smith_invariant_is_a_failure(self):
        op = _prefix("snf-random", 1, 1)[0]
        self.assertEqual(self._tally("snf-random", op).payload()["failed"], 0)
        op.expect["product"] += 1
        self.assertEqual(self._tally("snf-random", op).payload()["wrong"], 1)

    def test_missed_deadline_is_a_failure(self):
        op = _prefix("verify-monomial", 1, 1)[0]
        runner = worker.Runner("verify-monomial", self.tmp.name)
        self.assertEqual(worker.warm_up(runner, "verify-monomial"), [])
        runner.deadline = 1e-4
        elapsed, _, timed_out = runner.execute(op)
        self.assertTrue(timed_out)
        self.assertEqual(elapsed, 1e-4)


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        # 0: root [0, 100]; 1: child [10, 40]; 2: grandchild [15, 25];
        # 3: child [50, 90]; 4: child running past its parent [95, 110]
        starts = [0, 10, 15, 50, 95]
        ends = [100, 40, 25, 90, 110]
        parents = [-1, 0, 1, 0, 0]
        self.assertEqual(tracer.self_times(starts, ends, parents), [100 - 30 - 40 - 5, 20, 10, 40, 15])

    def test_busy_time_counts_nested_calls_once(self):
        self.assertEqual(tracer.busy_time([0, 10, 200], [100, 40, 250]), 150)


class HostSpeedTest(unittest.TestCase):
    def test_scale_uses_the_samples_around_the_interval(self):
        nominal = hostspeed.REFERENCE_NOMINAL_S
        clock = hostspeed.Clock()
        clock.times = [0.0, 0.1, 0.2, 10.0, 10.1]
        clock.samples = [nominal, nominal, nominal, 2 * nominal, 2 * nominal]
        self.assertAlmostEqual(clock.scale(0.05, 0.1), 0.1)
        # a slower host (reference twice as slow) halves the reported time
        self.assertAlmostEqual(clock.scale(10.0, 0.1), 0.05)
        # far from every sample: the nearest ones on either side
        self.assertAlmostEqual(clock.scale(5.0, 0.2), 0.2 * 2 / 3)


class TracerTest(unittest.TestCase):
    def test_missing_binding_fails_loudly(self):
        wrong = tracer.Traced("sections", "divisorial_module_component", ())
        layers = tracer.LAYERS
        tracer.LAYERS = (wrong,)
        try:
            with self.assertRaisesRegex(RuntimeError, "oracle"):
                tracer.Tracer()
        finally:
            tracer.LAYERS = layers

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], tracer.per_layer_metrics()
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
