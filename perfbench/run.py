#!/usr/bin/env python3
"""Host-time benchmark of the RBAY simulator: one command, four workloads.

    python3 perfbench/run.py --workload geo_select --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, untraced then traced
    python3 perfbench/run.py --selftest

Run from the repository root.  Builds perfbench/ (and the simulator
libraries from src/) into .bench_build/ with CMake, runs one workload, and
prints every metric by name and unit.  The last line of standard output is
the result as one JSON object: correct, attempted, failed and the metrics
BENCHMARK.json declares — the end-to-end ones with --trace 0, the
per-layer ones with --trace 1.  The full result, with provenance, and the
traced run's span file and registry snapshot land in .bench_out/.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("geo_select", "count_storm", "attr_churn", "route_100k")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources at {os.path.join(ROOT, 'src')}", code=2)
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout may
    not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload, prints its report, and returns the result line."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["provenance"].update(git_commit=git_commit(), source_sha256=source_digest(),
                                trace=str(trace))
    correct = result["correct"]
    errors = list(result["errors"])
    if trace:
        spans = os.path.join(OUT, f"{workload}.spans.json")
        check = subprocess.run([os.path.join(BUILD, "trace_check"), spans],
                               capture_output=True, text=True)
        result["provenance"]["trace_check"] = (check.stdout + check.stderr).strip()
        if check.returncode != 0:
            correct = False
            errors.append("span file rejected by trace_check")

    measured = result["metrics"]
    metrics = {}
    for entry in spec["per_layer"] if trace else spec["end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: perfbench reports unit {measured[name]['unit']}, "
                     f"BENCHMARK.json declares {unit}")
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}  # layer not on this workload's path
        else:
            fail(f"perfbench did not report end-to-end metric {name}")

    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(f"{workload} seed={seed} trace={trace} correct={correct} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for key, value in sorted(result["provenance"].items()):
        print(f"  provenance {key}: {value}")
    for error in errors:
        print(f"  check failed: {error}")
    for name, metric in sorted(measured.items()):
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    print(json.dumps(line))
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="'all' runs every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead of a workload")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    if args.selftest:
        sys.exit(subprocess.run(["ctest", "--test-dir", BUILD, "--output-on-failure"]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
        return
    correct = [run_workload(spec, workload, args.seed, args.seconds, trace)["correct"]
               for workload in WORKLOADS for trace in (0, 1)]
    sys.exit(0 if all(correct) else 1)


if __name__ == "__main__":
    main()
