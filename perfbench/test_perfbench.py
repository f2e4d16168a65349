#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload at tiny size through run.py, untraced and traced. Each
run must pass its output checks and print exactly the metric names and units
BENCHMARK.json lists, and the traced run's simulated outputs must equal the
untraced run's. Also checks that bad arguments and a tree without the
program's sources fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(args, cwd=ROOT, timeout=900):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def last_line_is_result(stdout):
    lines = stdout.splitlines()
    if not lines:
        return False
    try:
        return isinstance(json.loads(lines[-1]), dict)
    except json.JSONDecodeError:
        return False


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_tiny(self, workload, trace):
        out = run_bench(["--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", str(trace), "--size", "tiny"])
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"], out.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        expected = {(m["name"], m["unit"]) for m in self.spec[kind]}
        printed = {(name, m["unit"]) for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        record_line = [l for l in lines if l.startswith("record: ")][-1]
        with open(os.path.join(ROOT, record_line[len("record: "):])) as f:
            record = json.load(f)
        self.assertEqual(record["workload"], workload)
        self.assertEqual(record["seed"], 3)
        self.assertEqual(record["check_failures"], [])
        for key in ("commit", "build_type", "nproc", "command", "sizes",
                    "attempted", "failed", "metrics"):
            self.assertIn(key, record)
        return result, record

    def check_workload(self, workload):
        result, untraced = self.run_tiny(workload, 0)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)
        _, traced = self.run_tiny(workload, 1)
        self.assertEqual(traced["simulated"], untraced["simulated"])
        self.assertEqual(traced["samples"], untraced["samples"])
        self.assertEqual(traced["attempted"], untraced["attempted"])
        self.assertIn("trace.overhead_share", traced["metrics"])

    def test_census(self):
        self.check_workload("census")

    def test_gateway_day(self):
        self.check_workload("gateway_day")

    def test_publish_retrieve(self):
        self.check_workload("publish_retrieve")


class FailureTest(unittest.TestCase):
    def test_unknown_workload_fails_without_result(self):
        out = run_bench(["--workload", "nope", "--seed", "1", "--seconds",
                         "1", "--trace", "0"])
        self.assertNotEqual(out.returncode, 0)
        self.assertFalse(last_line_is_result(out.stdout))

    def test_tree_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench(["--workload", "census", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], cwd=tmp,
                            timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertFalse(last_line_is_result(out.stdout))


if __name__ == "__main__":
    unittest.main()
