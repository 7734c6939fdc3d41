#pragma once

// The four benchmark workloads (README.md says why each exists).

#include <memory>

#include "harness.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_geo_select(const Options& options, Spans& spans, bool traced);
std::unique_ptr<Workload> make_count_storm(const Options& options, Spans& spans, bool traced);
std::unique_ptr<Workload> make_attr_churn(const Options& options, Spans& spans, bool traced);
std::unique_ptr<Workload> make_route_100k(const Options& options, Spans& spans, bool traced);

/// Worker threads route_100k runs its sharded engine with on this machine.
unsigned route_workers();

/// Delivery recorder self-test: a 16k-node route_100k federation must
/// deliver the same routes with the same hop checksum at 1 worker and at
/// route_workers(), every route at the numerically closest live node.
/// Returns the exit code.
int route_selftest();

}  // namespace perfbench
