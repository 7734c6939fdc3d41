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
ctest --preset ci

# Chaos gate: the seed-matrixed fault-injection storms must pass under
# the sanitizers too (they are part of the full run above; re-running the
# label by itself makes an invariant violation fail CI loudly on its own).
ctest --preset ci -L chaos --output-on-failure

# Observability gate: causal tracing, critical path, and Chrome export.
ctest --preset ci -L obs --output-on-failure

# Differential-oracle gate: the simulator and the centralized reference
# model must agree on every seed of the workload matrix, and the mutation
# self-test must catch the deliberately mis-folded aggregate.  On a
# divergence the failing seed is shrunk and its replayable .rbay
# counterexample (plus report + trace) lands in build-ci/artifacts/ for
# the CI run to archive.
mkdir -p build-ci/artifacts
RBAY_MODEL_ARTIFACTS="$PWD/build-ci/artifacts" \
  ctest --preset ci -L model --output-on-failure

# Weather gate (docs/FAULT_INJECTION.md, "Network weather"): the same
# oracle with the adversarial link conditioner armed — burst loss,
# duplicate storms, reordering, gray links, asymmetric partitions —
# interleaved through every mutation round.  The reference model ignores
# weather, so a divergence here is a protocol that failed to absorb
# duplication, loss, or reordering; its shrunken .rbay counterexample is
# archived like any other model artifact.  The composed gray-WAN storm
# scenario must also ride out the weather with exact answers and green
# invariants, its transcript archived either way.
RBAY_MODEL_ARTIFACTS="$PWD/build-ci/artifacts" \
  ctest --preset ci -R 'WeatherMatrix' --output-on-failure
if ! build-ci/tools/rbay_sim --metrics build-ci/artifacts/gray_wan_metrics.json \
    scenarios/gray_wan.rbay \
    > build-ci/artifacts/gray_wan.log 2>&1; then
  echo "gray_wan scenario FAILED; transcript follows" >&2
  cat build-ci/artifacts/gray_wan.log >&2
  exit 1
fi

# Rendezvous-failover gate: crash a tree root mid-aggregation and storm
# the federation; the run's transcript (degraded reads, invariant verdict,
# and — on a trip — the flight-recorder failure dump the scenario embeds
# in its error output) is archived whether it passes or fails.
mkdir -p build-ci/artifacts
if ! build-ci/tools/rbay_sim --metrics build-ci/artifacts/chaos_root_crash_metrics.json \
    scenarios/chaos_root_crash.rbay \
    > build-ci/artifacts/chaos_root_crash.log 2>&1; then
  echo "chaos_root_crash scenario FAILED; failure dump follows" >&2
  cat build-ci/artifacts/chaos_root_crash.log >&2
  exit 1
fi

# Health-plane gate (docs/HEALTH.md): the self-hosted health scenario —
# rbay.health.* trees answering federation-health queries, watchdog
# episodes opening and healing across a root crash, timeseries alert
# rules — run under the sanitizers, with the sampled time series and its
# rendered dashboard archived either way.
if ! build-ci/tools/rbay_sim \
    --timeseries build-ci/artifacts/health_watch_timeseries.json \
    scenarios/health_watch.rbay \
    > build-ci/artifacts/health_watch.log 2>&1; then
  echo "health_watch scenario FAILED; transcript follows" >&2
  cat build-ci/artifacts/health_watch.log >&2
  exit 1
fi
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

# Query-plane gate: admission control (Erlang-B convergence), probe
# batching, answer-cache TTL/invalidation, and the open-loop driver.
ctest --preset ci -L qplane --output-on-failure

# TSan lane (docs/PARALLEL_ENGINE.md): a separate thread-sanitizer build
# runs the sharded engine for real — RBAY_SIM_THREADS=4 in the test
# preset's environment makes every directly-constructed cluster execute
# on four worker threads — over the engine/determinism, chaos, and
# query-plane labels.  Suppressions live in .tsan-suppressions.txt
# (expected empty; each entry must be documented there).
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc 2>/dev/null || echo 4)"
ctest --preset tsan -L 'sim|chaos|qplane' --output-on-failure
# The two bench paths that raced or diverged on a multi-core machine, run
# on four workers under TSan: the Fig. 8a thread sweep (one delivery
# recorder shared across site shards) and a control-driven Fig. 10 query
# loop (a run() that left the clock behind).
TSAN_BENCH_OPTIONS="suppressions=$PWD/.tsan-suppressions.txt halt_on_error=1 second_deadlock_stack=1"
TSAN_OPTIONS="$TSAN_BENCH_OPTIONS" build-tsan/bench/bench_fig8a_scale_nodes --small --threads 4
TSAN_OPTIONS="$TSAN_BENCH_OPTIONS" RBAY_SIM_THREADS=4 \
  build-tsan/bench/bench_fig10_latency_sites --small

# Flash-crowd scenario: 100x demand spike on one attribute — admission
# sheds deterministically, the cache absorbs the warm wave.  Transcript
# and metrics snapshot are archived either way.
if ! build-ci/tools/rbay_sim --metrics build-ci/artifacts/flash_crowd_metrics.json \
    scenarios/flash_crowd.rbay \
    > build-ci/artifacts/flash_crowd.log 2>&1; then
  echo "flash_crowd scenario FAILED; transcript follows" >&2
  cat build-ci/artifacts/flash_crowd.log >&2
  exit 1
fi

# Fresh clones have no cached artifact dir: seed the trend gates below
# from the committed baselines so a regression fails the very first CI
# run too, not just the second.
for f in BENCH_throughput.json BENCH_fig8b.json BENCH_fig8a.json; do
  if [ ! -f "build-ci/artifacts/$f" ] && [ -f "artifacts/$f" ]; then
    cp "artifacts/$f" "build-ci/artifacts/$f"
  fi
done

# Throughput trend: archive the bench summary and fail if sustained QPS
# regressed more than 10% against the previously archived copy (kept in
# build-ci/artifacts/ across CI runs via the artifact cache).
PREV_QPS=""
if [ -f build-ci/artifacts/BENCH_throughput.json ]; then
  PREV_QPS="$(sed -n 's/.*"sustained_qps":\([0-9][0-9]*\).*/\1/p' \
      build-ci/artifacts/BENCH_throughput.json | head -n 1)"
fi
build-ci/bench/bench_throughput --small --json build-ci/artifacts/BENCH_throughput.json
NEW_QPS="$(sed -n 's/.*"sustained_qps":\([0-9][0-9]*\).*/\1/p' \
    build-ci/artifacts/BENCH_throughput.json | head -n 1)"
if [ -n "$PREV_QPS" ] && [ -n "$NEW_QPS" ]; then
  FLOOR=$((PREV_QPS * 90 / 100))
  if [ "$NEW_QPS" -lt "$FLOOR" ]; then
    echo "throughput regression: sustained ${NEW_QPS} qps < 90% of previous ${PREV_QPS} qps" >&2
    exit 1
  fi
  echo "throughput trend ok: sustained ${NEW_QPS} qps (previous ${PREV_QPS})"
fi

# Hot-tree balance gate (docs/LOAD_BALANCING.md): the Zipf series of the
# Fig. 8b bench must show the balancer cutting the hottest node's
# per-query forward share at least 2x versus the uncapped run (the bench
# itself already fails if any answer differs between the two), and the
# balanced share must never regress more than 10% against the previously
# archived copy.
PREV_HOT=""
if [ -f build-ci/artifacts/BENCH_fig8b.json ]; then
  PREV_HOT="$(sed -n 's/.*"zipf_capped_hottest_bp":\([0-9][0-9]*\).*/\1/p' \
      build-ci/artifacts/BENCH_fig8b.json | head -n 1)"
fi
build-ci/bench/bench_fig8b_scale_queries --small --json build-ci/artifacts/BENCH_fig8b.json
UNCAPPED_HOT="$(sed -n 's/.*"zipf_uncapped_hottest_bp":\([0-9][0-9]*\).*/\1/p' \
    build-ci/artifacts/BENCH_fig8b.json | head -n 1)"
CAPPED_HOT="$(sed -n 's/.*"zipf_capped_hottest_bp":\([0-9][0-9]*\).*/\1/p' \
    build-ci/artifacts/BENCH_fig8b.json | head -n 1)"
if [ -z "$UNCAPPED_HOT" ] || [ -z "$CAPPED_HOT" ]; then
  echo "hot-tree gate: BENCH_fig8b.json missing zipf share fields" >&2
  exit 1
fi
if [ $((CAPPED_HOT * 2)) -gt "$UNCAPPED_HOT" ]; then
  echo "hot-tree balance regression: capped hottest share ${CAPPED_HOT}bp not" \
       "2x under uncapped ${UNCAPPED_HOT}bp" >&2
  exit 1
fi
if [ -n "$PREV_HOT" ]; then
  CEIL=$((PREV_HOT * 110 / 100))
  if [ "$CAPPED_HOT" -gt "$CEIL" ]; then
    echo "hot-tree balance regression: capped hottest share ${CAPPED_HOT}bp > 110% of" \
         "previous ${PREV_HOT}bp" >&2
    exit 1
  fi
fi
echo "hot-tree balance ok: hottest share ${CAPPED_HOT}bp capped vs ${UNCAPPED_HOT}bp uncapped${PREV_HOT:+ (previous ${PREV_HOT}bp)}"

# Parallel-engine trend gate (docs/PARALLEL_ENGINE.md): the fig8a threads
# sweep on the sharded engine — the bench itself fails on any schedule
# divergence across thread counts, and this gate fails if events/sec at
# the peak thread count regressed more than 10% against the previously
# archived copy.  Uses the sanitizer-free default build: ASan timings are
# not comparable to the committed baseline.
PREV_EPS=""
if [ -f build-ci/artifacts/BENCH_fig8a.json ]; then
  PREV_EPS="$(sed -n 's/.*"peak_events_per_sec":\([0-9][0-9]*\).*/\1/p' \
      build-ci/artifacts/BENCH_fig8a.json | head -n 1)"
fi
cmake --preset default
cmake --build --preset default -j "$(nproc 2>/dev/null || echo 4)" --target bench_fig8a_scale_nodes
build/bench/bench_fig8a_scale_nodes --small --threads 8 \
  --json build-ci/artifacts/BENCH_fig8a.json
NEW_EPS="$(sed -n 's/.*"peak_events_per_sec":\([0-9][0-9]*\).*/\1/p' \
    build-ci/artifacts/BENCH_fig8a.json | head -n 1)"
if [ -z "$NEW_EPS" ]; then
  echo "parallel-engine gate: BENCH_fig8a.json missing peak_events_per_sec" >&2
  exit 1
fi
if [ -n "$PREV_EPS" ]; then
  FLOOR=$((PREV_EPS * 90 / 100))
  if [ "$NEW_EPS" -lt "$FLOOR" ]; then
    echo "parallel-engine regression: ${NEW_EPS} events/sec < 90% of previous ${PREV_EPS}" >&2
    exit 1
  fi
fi
echo "parallel engine ok: ${NEW_EPS} events/sec at peak threads${PREV_EPS:+ (previous ${PREV_EPS})}"
