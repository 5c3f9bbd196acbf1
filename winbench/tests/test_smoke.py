"""Smoke test of the defended-window benchmark.

Runs every workload briefly, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit; then alters one
replay record and checks that the self-check catches it and counts it
as failed.

    python3 -m unittest discover -s winbench/tests -v

The first run builds the benchmark program and prepares the inputs
(about a minute on 4 cores); later runs reuse them.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "winbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for m in spec:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                result = run(workload, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=workload, trace=1):
                result = run(workload, 1)
                self.check_metrics(result, SPEC["per_layer"])
                # Probes do not change the simulation: traced replays match
                # the untraced reference, and they cover the window.
                self.assertGreaterEqual(result["metrics"]["trace.coverage"]["value"], 0.95)

    def test_altered_replay_record_is_caught(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, trace, "--corrupt-window", "3")
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
