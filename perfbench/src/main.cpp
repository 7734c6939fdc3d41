// perfbench — host time and memory to simulate the RBAY workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   perfbench --selftest
//
// Prints one JSON line: correctness, operation counts, provenance and
// metrics (end-to-end with --trace 0, per layer with --trace 1).  run.py
// builds this binary and turns that line into the benchmark's result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

/// Timings from unoptimized or instrumented code say nothing about the
/// program; refuse to produce them.
bool timing_build() {
#if !defined(__OPTIMIZE__) || defined(PERFBENCH_SANITIZED)
  return false;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") == nullptr &&
         std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") != 0;
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload geo_select|count_storm|attr_churn|route_100k "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out" && has_value) {
      options.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (selftest) return perfbench::route_selftest();
  if (!timing_build()) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build with flags '%s'\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 3;
  }

  perfbench::Factory factory = nullptr;
  if (options.workload == "geo_select") factory = perfbench::make_geo_select;
  if (options.workload == "count_storm") factory = perfbench::make_count_storm;
  if (options.workload == "attr_churn") factory = perfbench::make_attr_churn;
  if (options.workload == "route_100k") factory = perfbench::make_route_100k;
  if (factory == nullptr || options.seconds <= 0.0) return usage();
  return perfbench::run(options, factory);
}
