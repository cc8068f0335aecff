"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The schedule and metric tests build the runner first (as run.py does).
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import trace_summary  # noqa: E402


def span(span_id, parent, start, end, name="bench.x"):
    return {"id": span_id, "parent": parent, "start_ns": start,
            "end_ns": end, "name": name, "request": 0}


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            span(1, 0, 0, 100, "bench.round"),
            span(2, 1, 10, 40, "sim.run_monte_carlo"),
            span(3, 1, 30, 60, "sim.run_monte_carlo"),  # overlaps 2
            span(4, 2, 15, 25, "util.rng_fill"),
            span(5, 1, 90, 130, "ckpt.restore"),        # runs past parent
        ]
        self_ns = trace_summary.self_times(spans)
        # Parent: 100 minus the union [10, 60] and [90, 100].
        self.assertEqual(self_ns[1], 100 - 50 - 10)
        self.assertEqual(self_ns[2], 30 - 10)
        self.assertEqual(self_ns[3], 30)
        self.assertEqual(self_ns[4], 10)
        self.assertEqual(self_ns[5], 40)
        layers = trace_summary.layer_self_times(spans)
        self.assertEqual(layers["bench"], (40, 1))
        self.assertEqual(layers["sim"], (50, 2))
        self.assertEqual(layers["util"], (10, 1))
        self.assertEqual(layers["ckpt"], (40, 1))

    def test_layer_names(self):
        self.assertEqual(trace_summary.layer_of("sim.service.handle_line"),
                         "sim.service")
        self.assertEqual(trace_summary.layer_of("ckpt.content_hash"), "ckpt")
        self.assertEqual(trace_summary.layer_of("plain"), "plain")


class RunnerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def schedule(self, seed):
        done = subprocess.run([str(run.RUNNER), "--dump-schedule", "300",
                               "--seed", str(seed)], capture_output=True,
                              text=True, check=True)
        return done.stdout.splitlines()

    def test_schedule_is_a_function_of_the_seed(self):
        first = self.schedule(7)
        self.assertEqual(len(first), 300)
        self.assertEqual(first, self.schedule(7))
        self.assertNotEqual(first, self.schedule(8))
        due = [float(line.split(" ", 1)[0]) for line in first]
        self.assertEqual(due, sorted(due))
        kinds = {line.split("kind=")[1].split(" ")[0] for line in first}
        self.assertEqual(kinds, {"waste", "period", "risk", "sim"})

    def test_every_metric_is_declared_with_its_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(run.WORKLOAD_LAYERS),
                         {w["name"] for w in spec["workloads"]})
        for workload in run.WORKLOAD_LAYERS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [sys.executable, str(HERE / "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)],
                        capture_output=True, text=True, cwd=run.ROOT,
                        check=False)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    key = "per_layer" if trace else "end_to_end"
                    declared = {m["name"]: m["unit"] for m in spec[key]}
                    printed = {name: metric["unit"] for name, metric in
                               result["metrics"].items()}
                    self.assertEqual(printed, declared)

    def test_engine_override_is_refused(self):
        env = dict(os.environ, DCKPT_ENGINE="scalar")
        done = subprocess.run([str(run.RUNNER), "--workload", "serve-mix",
                               "--seed", "1", "--seconds", "1",
                               "--trace", "0"], capture_output=True,
                              text=True, env=env, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")
        self.assertIn("DCKPT_ENGINE", done.stderr)

    def test_unknown_workload_fails(self):
        done = subprocess.run([sys.executable, str(HERE / "run.py"),
                               "--workload", "nope", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=run.ROOT,
                              check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
