#!/usr/bin/env python3
"""Tests of the repository benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Builds the harness, runs its C++ unit tests (percentiles, due-time
latency accounting, span self times) and a tiny-scale smoke run of the
whole command in both modes.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


BENCHMARK = load(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = load(os.path.join(BENCH_DIR, "workloads.json"))


class HarnessUnitTests(unittest.TestCase):
    def test_cpp_unit_tests_pass(self):
        out = run.build(["perfbench_tests"])
        result = subprocess.run([os.path.join(out, "perfbench_tests")],
                                stdout=subprocess.PIPE, text=True)
        self.assertEqual(result.returncode, 0, result.stdout)


class Definitions(unittest.TestCase):
    def test_every_benchmark_workload_is_defined(self):
        for workload in BENCHMARK["workloads"]:
            self.assertIn(workload["name"], WORKLOADS["workloads"])

    def test_every_layer_claim_names_known_metrics_and_workloads(self):
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        for claim in WORKLOADS["expected_moves"]:
            self.assertIn(claim["per_layer"], per_layer)
            for name in claim["moves"]:
                self.assertIn(name, end_to_end)
            for name in claim["workloads"]:
                self.assertIn(name, WORKLOADS["workloads"])


class SmokeRun(unittest.TestCase):
    """The whole command at a tiny scale: every metric printed with a unit."""

    def smoke(self, trace):
        result = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", "collab-10k", "--seed", "1", "--seconds", "2",
             "--trace", str(trace), "--scale", "0.2"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
        self.assertEqual(result.returncode, 0, result.stdout)
        lines = result.stdout.rstrip("\n").split("\n")
        return lines[:-1], json.loads(lines[-1])

    def check(self, metrics, human, payload):
        self.assertTrue(payload["correct"])
        self.assertGreaterEqual(payload["attempted"], 1)
        self.assertEqual(payload["failed"], 0)
        printed = {line.split()[0]: line.split()[-1]
                   for line in human if len(line.split()) == 3}
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            self.assertIn(name, payload["metrics"])
            self.assertEqual(payload["metrics"][name]["unit"], unit)
            self.assertIsInstance(payload["metrics"][name]["value"],
                                  (int, float))
            self.assertEqual(printed.get(name), unit, name)
        self.assertEqual(printed.get("failed_frac"), "frac")

    def test_untraced_run_prints_every_end_to_end_metric(self):
        human, payload = self.smoke(0)
        self.check(BENCHMARK["end_to_end"], human, payload)

    def test_traced_run_prints_every_per_layer_metric(self):
        human, payload = self.smoke(1)
        self.check(BENCHMARK["per_layer"], human, payload)


if __name__ == "__main__":
    unittest.main()
