#!/usr/bin/env sh
# CI entry point: configure, build, and test under ASan/UBSan.
#
#   tools/ci.sh            full Debug+sanitizer build into build-ci/, then ctest
#   tools/ci.sh coverage   gcov build into build-cov/, run the suite, and
#                          print a per-directory line-coverage summary
#
# Equivalent to the CMake presets:
#   cmake --preset ci && cmake --build --preset ci -j && ctest --preset ci
set -eu

cd "$(dirname "$0")/.."

MODE="${1:-full}"
case "$MODE" in
  coverage)
    cmake --preset coverage
    cmake --build --preset coverage -j "$(nproc 2>/dev/null || echo 4)"
    ctest --preset coverage
    tools/coverage_report.sh build-cov
    exit 0
    ;;
  full) ;;
  *)
    echo "usage: tools/ci.sh [full|coverage]" >&2
    exit 2
    ;;
esac

# Docs drift gate: every metric name registered in src/ (and every
# rbay.health.* attribute) must appear in docs/OBSERVABILITY.md.  Static,
# so it runs before the expensive build.
tools/check_metric_docs.sh

cmake --preset ci
cmake --build --preset ci -j "$(nproc 2>/dev/null || echo 4)"

# Every test runs once, here, under the sanitizers: the chaos storms, the
# observability and query-plane suites, and the differential oracle with
# its weather matrix (docs/FAULT_INJECTION.md, "Network weather").  On an
# oracle divergence the failing seed is shrunk and its replayable .rbay
# counterexample (plus report + trace) lands in build-ci/artifacts/ for
# the CI run to archive.
mkdir -p build-ci/artifacts
RBAY_MODEL_ARTIFACTS="$PWD/build-ci/artifacts" ctest --preset ci

# Archive four shipped scenarios' runs (ctest above already ran them as
# tests): the gray-WAN storm, the root-crash failover, the health plane
# and the flash crowd.  Each keeps its transcript and its metrics
# snapshot, or for health_watch its sampled time series and the rendered
# rbay_top dashboard.  A failing run prints its transcript, which for
# the chaos scenarios embeds the flight-recorder failure dump.
for name in gray_wan chaos_root_crash health_watch flash_crowd; do
  out=build-ci/artifacts/$name
  case "$name" in
    health_watch) output="--timeseries ${out}_timeseries.json" ;;
    *) output="--metrics ${out}_metrics.json" ;;
  esac
  # $output is unquoted on purpose: it is a flag and its path.
  if ! build-ci/tools/rbay_sim $output "scenarios/$name.rbay" > "$out.log" 2>&1; then
    echo "$name scenario FAILED; transcript follows" >&2
    cat "$out.log" >&2
    exit 1
  fi
done
build-ci/tools/rbay_top build-ci/artifacts/health_watch_timeseries.json \
  > build-ci/artifacts/health_watch_top.txt

# Exercise the --trace path end to end under the sanitizers, then check the
# exported JSON against the minimal Chrome trace-event schema.
build-ci/tools/rbay_sim --trace build-ci/artifacts/trace_smoke.json scenarios/geo_federation.rbay
build-ci/tools/trace_check build-ci/artifacts/trace_smoke.json

# Archive machine-readable latency summaries for the paper's Fig. 9/10
# (small workload: CI wants the files and the schema, not the full sweep).
build-ci/bench/bench_fig9_latency_cdf --small --json build-ci/artifacts/BENCH_fig9.json
build-ci/bench/bench_fig10_latency_sites --small --json build-ci/artifacts/BENCH_fig10.json

# TSan lane (docs/PARALLEL_ENGINE.md): a separate thread-sanitizer build
# runs the sharded engine for real — RBAY_SIM_THREADS=4 in the test
# preset's environment makes every directly-constructed cluster execute
# on four worker threads — over the engine/determinism, chaos, and
# query-plane labels.  The sim label also carries aal_concurrency_test:
# four threads creating and running scripts over one interned chunk and
# the shared stdlib (the ASan run above covers the chunks' lifetime), and
# pastry_state_test: routing over the shared node table, and node or
# endpoint creation from inside worker events, which must throw, and
# obs_causal_test: causal logs and flight rings written from every shard.
# Suppressions live in .tsan-suppressions.txt
# (expected empty; each entry must be documented there).
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc 2>/dev/null || echo 4)"
ctest --preset tsan -L 'sim|chaos|qplane' --output-on-failure
# The two bench paths that raced or diverged on a multi-core machine, run
# on several workers under TSan: the Fig. 8a thread sweep (one delivery
# recorder shared across site shards), which also fails unless 1, 2, 4
# and 8 workers run the identical schedule, and a control-driven Fig. 10
# query loop on four (a run() that left the clock behind), once traced so
# every shard writes its causal log and flight rings.  The
# throughput bench adds the query-plane path, whose cross-site traffic
# exercises the event pools' return of nodes to their owning shard at
# each barrier.
TSAN_BENCH_OPTIONS="suppressions=$PWD/.tsan-suppressions.txt halt_on_error=1 second_deadlock_stack=1"
TSAN_OPTIONS="$TSAN_BENCH_OPTIONS" build-tsan/bench/bench_fig8a_scale_nodes --small --threads 8
TSAN_OPTIONS="$TSAN_BENCH_OPTIONS" RBAY_SIM_THREADS=4 \
  build-tsan/bench/bench_fig10_latency_sites --small
TSAN_OPTIONS="$TSAN_BENCH_OPTIONS" RBAY_SIM_THREADS=4 \
  build-tsan/bench/bench_fig10_latency_sites --small --trace build-tsan/fig10_trace.json
TSAN_OPTIONS="$TSAN_BENCH_OPTIONS" RBAY_SIM_THREADS=4 \
  build-tsan/bench/bench_throughput --small

# Trend gates against the baselines committed in artifacts/; the rules and
# bounds are in tools/bench_gate.py.  Fig. 8b runs at full size because the
# gate compares its shares only with a run of the baseline's query count.
build-ci/bench/bench_throughput --small --json build-ci/artifacts/BENCH_throughput.json
build-ci/bench/bench_fig8b_scale_queries --json build-ci/artifacts/BENCH_fig8b.json
for workload in route_100k count_storm; do
  for i in 1 2 3 4 5; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --trace 0 \
      > "build-ci/artifacts/$workload.run$i.log"
  done
done
python3 tools/bench_gate.py --throughput build-ci/artifacts/BENCH_throughput.json \
  --fig8b build-ci/artifacts/BENCH_fig8b.json \
  --route build-ci/artifacts/route_100k.run[1-5].log \
  --count-storm build-ci/artifacts/count_storm.run[1-5].log
