#!/usr/bin/env bash
# Writes every deterministic output a behaviour-preserving change must keep
# byte-identical, so that two builds can be compared with one `diff -r`:
#
#   tools/output_snapshot.sh build-parent snap-parent
#   tools/output_snapshot.sh build        snap-change
#   diff -r snap-parent snap-change
#
# For RBAY_SIM_THREADS=1 and =4, under <out-dir>/threads-<n>/:
#   bench/<name>.{out,metrics.json}  stdout and --metrics of every bench
#                                    at --small (Fig. 10 adds .trace.json)
#   bench/bench_throughput.json      bench_throughput --small --json
#   bench/bench_fig8b_full.{out,json} full-size Fig. 8b with --json
#   scenario/<name>.{out,metrics.json,trace.json}
#                                    rbay_sim on each scenarios/*.rbay
#   status.txt                       every command's exit code
#
# The build and output directories are replaced by <build> and <out> in
# every file, so snapshots taken from different trees compare equal.
# bench_abl_aa_runtime measures interpreter wall-clock time: only its
# per-handler AAL step counts are kept.  Run from the repository root.

set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" || exit 2
out=$(cd "$2" && pwd) || exit 2
repo=$(cd "$(dirname "$0")/.." && pwd)

benches=(bench_table2_rtt bench_fig8a_scale_nodes bench_fig8b_scale_queries
         bench_fig8c_scale_attributes bench_fig9_latency_cdf bench_fig10_latency_sites
         bench_fig11_tree_overhead bench_abl_centralized bench_abl_hybrid_naming
         bench_abl_aa_runtime bench_abl_churn bench_abl_reliability
         bench_abl_past_vs_trees bench_throughput)

# run <status-label> <stdout-file> <command...>: records the exit code.
run() {
  local label=$1 stdout=$2
  shift 2
  "$@" > "$stdout" 2> /dev/null
  echo "$label $?" >> "$dir/status.txt"
}

for threads in 1 4; do
  dir="$out/threads-$threads"
  rm -rf "$dir"
  mkdir -p "$dir/bench" "$dir/scenario"
  export RBAY_SIM_THREADS=$threads

  for name in "${benches[@]}"; do
    base="$dir/bench/$name"
    args=(--small --metrics "$base.metrics.json")
    case $name in
      bench_fig10_latency_sites) args+=(--trace "$base.trace.json") ;;
      bench_throughput) args+=(--json "$base.json") ;;
    esac
    run "$name" "$base.out" "$build/bench/$name" "${args[@]}"
  done
  run bench_fig8b_full "$dir/bench/bench_fig8b_full.out" \
    "$build/bench/bench_fig8b_scale_queries" --json "$dir/bench/bench_fig8b_full.json"

  # The handler table's middle column is wall-clock time; the budget table
  # and the throughput line below it are wall-clock only.
  aa="$dir/bench/bench_abl_aa_runtime.out"
  awk '/^handler / { table = 1; print "handler AAL-steps"; next }
       table && NF == 0 { exit }
       table { $(NF - 1) = "" }
       { print }' "$aa" > "$aa.steps" && mv "$aa.steps" "$aa"

  for scenario in "$repo"/scenarios/*.rbay; do
    name=$(basename "$scenario" .rbay)
    base="$dir/scenario/$name"
    run "scenario_$name" "$base.out" "$build/tools/rbay_sim" \
      --metrics "$base.metrics.json" --trace "$base.trace.json" "$scenario"
  done

  find "$dir" -type f -print0 |
    xargs -0 sed -i -e "s|$out|<out>|g" -e "s|$build|<build>|g" -e "s|$repo|<repo>|g"
done
