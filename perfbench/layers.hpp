// The traced run: per-layer metrics of one workload.
//
// Times come from the benchmark's own clock reads around calls into each
// layer's public functions (scenario build and run, campaign runs, probes
// of the kernel, network, codec, local binding and tag codec) and from the
// program's existing tag/level/reaction span categories. Counts come from
// the obs::Registry snapshot. See README.md for each metric's definition
// and the end-to-end metric it should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct TracedRun {
  std::vector<Metric> metrics;
  /// Scenario-level consistency of the traced run: every repeated
  /// scenario must reproduce its first outcome, with tracing on or off.
  Check consistency;
  /// trace.closure_share within its accepted range: the per-layer split
  /// accounts for the traced wall without double counting.
  Check closure;
  /// Extra detail for the metadata line (JSON object).
  std::string detail;
};

/// Runs the layer-by-layer pass for about `seconds` seconds.
[[nodiscard]] TracedRun run_traced(const WorkloadDef& workload, std::uint64_t seed,
                                   double seconds);

}  // namespace perfbench
