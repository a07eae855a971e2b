// The three benchmark workloads and their timed phases.
//
// A run sets up its deployment several times (setup_s is the median),
// then measures two phases on the last one:
//   * open loop: mix ops due at a fixed rate, each call timed from its
//     due time;
//   * capacity: a closed loop keeping a fixed number of calls in flight.
// Every reply is checked; see METRICS.md for the metric map.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "deployment.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 = a count or ratio, not a sampled timing
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Where the run ran: nproc, WAL filesystem, fabric, seed, build.
  std::vector<std::pair<std::string, std::string>> where;
  /// First few mismatches, for the log.
  std::vector<std::string> problems;
  /// Set when the run could not be measured at all (set-up failure,
  /// sanitizer or debug build); no metrics are reported then.
  std::string fatal;
};

/// Runs one workload end to end (config.trace = false) or its per-layer
/// traced run (config.trace = true). `config.workdir` must exist.
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench
