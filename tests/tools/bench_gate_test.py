#!/usr/bin/env python3
"""tools/bench_gate.py against doctored copies of the committed baselines.

Each case copies tools/bench_gate.py and artifacts/ into a temporary
directory laid out like the repository, so the copy reads the doctored
baselines; it derives fresh results from the baselines themselves,
changes one number, and runs the copy.  The speed baselines' core counts
are set to this machine's, so the unchanged values pass on any machine; one
case sets one to another count.
"""

import importlib.util
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
        # Per speed-gated workload: its baseline and five runs' values and
        # correctness.
        self.speed = {}
        for workload in ("route_100k", "count_storm"):
            base = read(f"BENCH_{workload}.json")
            base["nproc"] = len(os.sched_getaffinity(0))
            self.speed[workload] = {"base": base, "values": [base["ops_per_ref"]] * 5,
                                    "correct": [True] * 5}

    def tearDown(self):
        shutil.rmtree(self.dir)

    def write(self, name, doc):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self):
        """Runs every check; returns (exit status, stdout + stderr)."""
        speed_args = []
        for workload, flag in (("route_100k", "--route"), ("count_storm", "--count-storm")):
            runs = self.speed[workload]
            self.write(os.path.join("artifacts", f"BENCH_{workload}.json"), runs["base"])
            speed_args.append(flag)
            for i, (value, correct) in enumerate(zip(runs["values"], runs["correct"])):
                result = {"correct": correct, "attempted": 1, "failed": 0,
                          "metrics": {"ops_per_ref": {"value": value, "unit": "ops/ref"}}}
                path = os.path.join(self.dir, f"{workload}{i}.log")
                with open(path, "w") as f:
                    f.write(f"{workload} seed=1 trace=0 report line\n" + json.dumps(result) + "\n")
                speed_args.append(path)
        proc = subprocess.run(
            [sys.executable, self.gate_copy,
             "--throughput", self.write("throughput.json", self.throughput),
             "--fig8b", self.write("fig8b.json", self.fig8b), *speed_args],
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
        self.assertIn("simulator speed ok: route_100k", output)
        self.assertIn("simulator speed ok: count_storm", output)

    def test_route_inside_its_bound_passes(self):
        runs = self.speed["route_100k"]
        runs["values"] = [v * 0.95 for v in runs["values"]]
        status, output = self.gate()
        self.assertEqual(status, 0, output)

    def test_one_slow_run_of_five_passes(self):
        for workload in self.speed:
            self.speed[workload]["values"][2] *= 0.5
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
        runs = self.speed["route_100k"]
        runs["values"] = [v * 0.89 for v in runs["values"]]
        self.assert_fails("simulator speed regression: route_100k")

    def test_count_storm_just_under_its_floor_fails_and_at_it_passes(self):
        runs = self.speed["count_storm"]
        spec = importlib.util.spec_from_file_location("bench_gate", GATE)
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        _, floor = gate.SPEED_GATES["count_storm"]
        runs["values"] = [runs["base"]["ops_per_ref"] * floor * 1.001] * 5
        status, output = self.gate()
        self.assertEqual(status, 0, output)
        runs["values"] = [runs["base"]["ops_per_ref"] * floor * 0.999] * 5
        self.assert_fails("simulator speed regression: count_storm")

    def test_nproc_mismatch_fails(self):
        for workload, flag in (("route_100k", "--record-route"),
                               ("count_storm", "--record-count-storm")):
            with self.subTest(workload=workload):
                self.speed[workload]["base"]["nproc"] += 1
                self.assert_fails(f"bench_gate.py {flag} LOG")
                self.speed[workload]["base"]["nproc"] -= 1

    def test_a_missing_input_fails(self):
        proc = subprocess.run(
            [sys.executable, self.gate_copy, "--throughput",
             self.write("throughput.json", self.throughput)],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("the gate needs --fig8b --route --count-storm", proc.stderr)

    def test_incorrect_run_fails(self):
        for workload in self.speed:
            with self.subTest(workload=workload):
                self.speed[workload]["correct"][3] = False
                self.assert_fails(f"{workload} run incorrect")
                self.speed[workload]["correct"][3] = True

    def test_record_prints_the_median_with_this_machines_cores(self):
        logs = []
        for i, value in enumerate((3.0, 1.0, 2.0)):
            path = os.path.join(self.dir, f"run{i}.log")
            with open(path, "w") as f:
                f.write(json.dumps({"correct": True,
                                    "metrics": {"ops_per_ref": {"value": value}}}) + "\n")
            logs.append(path)
        proc = subprocess.run([sys.executable, self.gate_copy, "--record-count-storm", *logs],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        baseline = json.loads(proc.stdout)
        self.assertEqual(baseline["bench"], "count_storm")
        self.assertEqual(baseline["ops_per_ref"], 2.0)
        self.assertEqual(baseline["nproc"], len(os.sched_getaffinity(0)))


if __name__ == "__main__":
    unittest.main()
