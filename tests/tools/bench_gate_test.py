#!/usr/bin/env python3
"""tools/bench_gate.py against doctored copies of the committed baselines.

Each case copies tools/bench_gate.py and artifacts/ into a temporary
directory laid out like the repository, so the copy reads the doctored
baselines; it derives fresh results from the baselines themselves,
changes one number, and runs the copy.  The route baseline's core count is set to this machine's, so the
unchanged values pass on any machine; one case sets it to another count.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GATE = os.path.join(ROOT, "tools", "bench_gate.py")
ARTIFACTS = os.path.join(ROOT, "artifacts")


def read(name):
    with open(os.path.join(ARTIFACTS, name)) as f:
        return json.load(f)


class BenchGateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="bench_gate_test.")
        shutil.copytree(ARTIFACTS, os.path.join(self.dir, "artifacts"))
        os.mkdir(os.path.join(self.dir, "tools"))
        self.gate_copy = shutil.copy(GATE, os.path.join(self.dir, "tools"))
        self.throughput = read("BENCH_throughput.json")
        self.fig8b = read("BENCH_fig8b.json")
        self.route = read("BENCH_route_100k.json")
        self.route["nproc"] = len(os.sched_getaffinity(0))
        self.route_values = [self.route["ops_per_ref"]] * 5
        self.route_correct = [True] * 5

    def tearDown(self):
        shutil.rmtree(self.dir)

    def write(self, name, doc):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self):
        """Runs every check; returns (exit status, stdout + stderr)."""
        self.write(os.path.join("artifacts", "BENCH_route_100k.json"), self.route)
        logs = []
        for i, (value, correct) in enumerate(zip(self.route_values, self.route_correct)):
            result = {"correct": correct, "attempted": 1, "failed": 0,
                      "metrics": {"ops_per_ref": {"value": value, "unit": "ops/ref"}}}
            path = os.path.join(self.dir, f"route{i}.log")
            with open(path, "w") as f:
                f.write("route_100k seed=1 trace=0 report line\n" + json.dumps(result) + "\n")
            logs.append(path)
        proc = subprocess.run(
            [sys.executable, self.gate_copy,
             "--throughput", self.write("throughput.json", self.throughput),
             "--fig8b", self.write("fig8b.json", self.fig8b), "--route", *logs],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def assert_fails(self, message):
        status, output = self.gate()
        self.assertEqual(status, 1, output)
        self.assertIn(message, output)

    def test_identical_values_pass(self):
        status, output = self.gate()
        self.assertEqual(status, 0, output)
        self.assertIn("throughput ok", output)
        self.assertIn("hot-tree balance ok", output)
        self.assertIn("simulator speed ok", output)

    def test_route_inside_its_bound_passes(self):
        self.route_values = [v * 0.95 for v in self.route_values]
        status, output = self.gate()
        self.assertEqual(status, 0, output)

    def test_one_slow_run_of_five_passes(self):
        self.route_values[2] *= 0.8
        status, output = self.gate()
        self.assertEqual(status, 0, output)

    def test_qps_one_off_fails(self):
        base = self.throughput["sustained_qps"]
        for qps in (base - 1, base + 1):
            with self.subTest(qps=qps):
                self.throughput["sustained_qps"] = qps
                self.assert_fails("throughput changed")

    def test_capped_share_one_off_fails(self):
        base = self.fig8b["zipf_capped_hottest_bp"]
        for share in (base - 1, base + 1):
            with self.subTest(share=share):
                self.fig8b["zipf_capped_hottest_bp"] = share
                self.assert_fails("hot-tree balance changed")

    def test_capped_share_not_twice_under_uncapped_fails(self):
        self.fig8b["zipf_uncapped_hottest_bp"] = 2 * self.fig8b["zipf_capped_hottest_bp"] - 1
        self.assert_fails("not 2x under uncapped")

    def test_query_count_mismatch_fails(self):
        self.fig8b["zipf_queries"] += 1
        self.assert_fails("not comparable")

    def test_ops_per_ref_eleven_percent_low_fails(self):
        self.route_values = [v * 0.89 for v in self.route_values]
        self.assert_fails("simulator speed regression")

    def test_nproc_mismatch_fails(self):
        self.route["nproc"] += 1
        self.assert_fails("record a baseline for this machine")

    def test_a_missing_input_fails(self):
        proc = subprocess.run(
            [sys.executable, self.gate_copy, "--throughput",
             self.write("throughput.json", self.throughput)],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("the gate needs --fig8b --route", proc.stderr)

    def test_incorrect_run_fails(self):
        self.route_correct[3] = False
        self.assert_fails("route_100k run incorrect")


if __name__ == "__main__":
    unittest.main()
