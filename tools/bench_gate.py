#!/usr/bin/env python3
"""Trend gates: fresh bench results against the baselines committed in artifacts/.

    tools/bench_gate.py --throughput FRESH_BENCH_throughput.json \\
                        --fig8b FRESH_BENCH_fig8b.json \\
                        --route RUN_LOG [RUN_LOG ...] \\
                        --count-storm RUN_LOG [RUN_LOG ...]
    tools/bench_gate.py --record-route RUN_LOG [RUN_LOG ...] > artifacts/BENCH_route_100k.json
    tools/bench_gate.py --record-count-storm RUN_LOG [RUN_LOG ...] \\
                        > artifacts/BENCH_count_storm.json

A RUN_LOG is the standard output of
`python3 perfbench/run.py --workload WORKLOAD --seed 1 --trace 0`; its last
line is the run's result as JSON.  All four inputs are required and every
check runs; each compares only with its baseline file in artifacts/ (never
with an earlier run's output).  Sustained QPS and the hot-tree shares are
sim-time figures that a seed fixes exactly, so they must equal their
baselines; a change that moves them on purpose re-records the file.

  throughput   sustained_qps equal to BENCH_throughput.json
  fig8b        zipf_queries and zipf_capped_hottest_bp equal to
               BENCH_fig8b.json, and the capped share at least 2x under the
               uncapped share of the same run
  route        simulator speed on route_100k (Pastry routing at 100k nodes)
  count-storm  simulator speed on count_storm (COUNTs served from the size
               table at 12k qps)

A speed check passes when every run is correct, the baseline was recorded
on a machine with this one's core count, and the median ops_per_ref is at
least the workload's floor times its BENCH_<workload>.json baseline.

Prints one line per check and exits 1 if any fails.  --record-route and
--record-count-storm print a new speed baseline: the median ops_per_ref of
the given runs, with this machine's core count.
"""

import argparse
import functools
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Speed-gated perfbench workloads: each one's command-line name and its
# floor, as a fraction of its ten-run baseline.
SPEED_GATES = {
    # Five-run medians of the unchanged code read 2.4% under to 4.0% over
    # their ten-run baseline.  A 94% floor passes all of them and fails
    # every one against a baseline 12% higher; a 90% floor let half of
    # those through.
    "route_100k": ("route", 0.94),
    # Every five-run window of twenty runs of the unchanged code read 4.4%
    # under to 0.8% over their ten-run baseline.  A 92% floor passes all of
    # them and fails every one against a baseline 10% higher.
    "count_storm": ("count-storm", 0.92),
}


class GateError(Exception):
    pass


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise GateError(f"cannot read {path}: {e}")


def field(doc, key, path):
    if key not in doc:
        raise GateError(f"{path} has no field {key}")
    return doc[key]


def nproc():
    """Cores this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def speed_command(workload):
    return f"python3 perfbench/run.py --workload {workload} --seed 1 --trace 0"


def read_runs(workload, paths):
    """(correct, ops_per_ref) of each run.py log: its last line is the result."""
    runs = []
    for path in paths:
        try:
            with open(path) as f:
                lines = [line for line in f.read().splitlines() if line.strip()]
            result = json.loads(lines[-1])
            runs.append((result["correct"] is True, result["metrics"]["ops_per_ref"]["value"]))
        except (OSError, ValueError, IndexError, KeyError, TypeError) as e:
            raise GateError(f"{path} is not a {workload} run.py result log: {e!r}")
    return runs


def check_throughput(fresh_path, base_path):
    new = field(load_json(fresh_path), "sustained_qps", fresh_path)
    base = field(load_json(base_path), "sustained_qps", base_path)
    if new != base:
        raise GateError(f"throughput changed: sustained {new} qps, baseline {base} qps")
    return f"throughput ok: sustained {new} qps, as the baseline"


def check_fig8b(fresh_path, base_path):
    fresh, base = load_json(fresh_path), load_json(base_path)
    queries = field(fresh, "zipf_queries", fresh_path)
    base_queries = field(base, "zipf_queries", base_path)
    capped = field(fresh, "zipf_capped_hottest_bp", fresh_path)
    uncapped = field(fresh, "zipf_uncapped_hottest_bp", fresh_path)
    base_capped = field(base, "zipf_capped_hottest_bp", base_path)
    if queries != base_queries:
        raise GateError(f"hot-tree gate: baseline ran {base_queries} Zipf queries, this run "
                        f"{queries}; shares of runs of different sizes are not comparable")
    if capped * 2 > uncapped:
        raise GateError(f"hot-tree balance regression: capped hottest share {capped}bp "
                        f"not 2x under uncapped {uncapped}bp")
    if capped != base_capped:
        raise GateError(f"hot-tree balance changed: capped hottest share {capped}bp, "
                        f"baseline {base_capped}bp")
    return (f"hot-tree balance ok: hottest share {capped}bp capped vs {uncapped}bp uncapped, "
            f"as the baseline")


def check_speed(workload, run_paths, base_path):
    base = load_json(base_path)
    base_nproc = field(base, "nproc", base_path)
    base_value = field(base, "ops_per_ref", base_path)
    if base_nproc != nproc():
        flag, _ = SPEED_GATES[workload]
        raise GateError(f"simulator speed: {base_path} was recorded on {base_nproc} cores, "
                        f"this machine has {nproc()}; record a baseline for this machine: "
                        f"run `{speed_command(workload)}` ten times into logs, then "
                        f"`tools/bench_gate.py --record-{flag} LOG... > {base_path}`")
    runs = read_runs(workload, run_paths)
    wrong = [path for path, (correct, _) in zip(run_paths, runs) if not correct]
    if wrong:
        raise GateError(f"simulator speed: {workload} run incorrect: {', '.join(wrong)}")
    values = [value for _, value in runs]
    median = statistics.median(values)
    _, floor = SPEED_GATES[workload]
    shown = " ".join(f"{v:.0f}" for v in values)
    if median < floor * base_value:
        raise GateError(f"simulator speed regression: {workload} median {median:.0f} ops/ref "
                        f"< {floor:.0%} of baseline {base_value:.0f} (runs: {shown})")
    return (f"simulator speed ok: {workload} median {median:.0f} ops/ref "
            f"(baseline {base_value:.0f}; runs: {shown})")


def record_speed(workload, run_paths):
    runs = read_runs(workload, run_paths)
    if not all(correct for correct, _ in runs):
        raise GateError(f"cannot record a baseline from an incorrect {workload} run")
    values = [value for _, value in runs]
    baseline = {"bench": workload, "command": speed_command(workload), "nproc": nproc(),
                "ops_per_ref": statistics.median(values), "runs": values}
    return json.dumps(baseline)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--throughput", metavar="JSON", help="fresh BENCH_throughput.json")
    parser.add_argument("--fig8b", metavar="JSON", help="fresh BENCH_fig8b.json")
    for workload, (flag, _) in SPEED_GATES.items():
        parser.add_argument(f"--{flag}", dest=workload, metavar="RUN_LOG", nargs="+",
                            help=f"{workload} run.py logs")
        parser.add_argument(f"--record-{flag}", dest=f"record_{workload}", metavar="RUN_LOG",
                            nargs="+", help=f"print a {workload} baseline from these run.py logs")
    args = vars(parser.parse_args())

    for workload in SPEED_GATES:
        if args[f"record_{workload}"]:
            try:
                print(record_speed(workload, args[f"record_{workload}"]))
            except GateError as e:
                sys.exit(f"bench_gate: {e}")
            return

    # (flag, input, check); each input's baseline is artifacts/BENCH_<input>.json.
    checks = [("throughput", "throughput", check_throughput), ("fig8b", "fig8b", check_fig8b)]
    checks += [(flag, workload, functools.partial(check_speed, workload))
               for workload, (flag, _) in SPEED_GATES.items()]
    missing = [f"--{flag}" for flag, name, _ in checks if args[name] is None]
    if missing:
        parser.error(f"the gate needs {' '.join(missing)} (or a --record-* option)")
    failed = False
    for _, name, check in checks:
        try:
            print(check(args[name], os.path.join(ROOT, "artifacts", f"BENCH_{name}.json")))
        except GateError as e:
            print(e, file=sys.stderr)
            failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
