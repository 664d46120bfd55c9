#!/usr/bin/env python3
"""The benchmark's own tests, at tiny input sizes (about 20 seconds):

    python3 perfbench/test_perfbench.py

Every workload in BENCHMARK.json must emit every end-to-end metric (with
--trace 0) and every per-layer metric (with --trace 1) with its declared
unit, and report no failed operation.  A corrupted reference, one flipped
response byte or one dropped clique, must be counted as a failure.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run(workload, trace, corrupt="none"):
    """One tiny run of the benchmark; returns its result JSON."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace), "--size", "tiny", "--corrupt", corrupt],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=0):
                result = run(workload, 0)
                self.check(result, SPEC["end_to_end"])
                for name in result["metrics"]:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                result = run(workload, 1)
                self.check(result, SPEC["per_layer"])
                self.assertEqual(result["metrics"]["error_pct"]["value"], 0)


class CorruptionCounted(unittest.TestCase):
    def test_flipped_response_byte(self):
        result = run("myogenic-cliques", 1, corrupt="response")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["metrics"]["error_pct"]["value"], 0)

    def test_dropped_clique(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = run(workload, 0, corrupt="clique")
                self.assertFalse(result["correct"])
                # Every pipeline run disagrees with the reference.
                self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
