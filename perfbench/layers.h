// Per-layer numbers of the traced run.
//
// Every layer is measured from outside the program: by timing calls into
// a module's public functions from here, replaying the workload's own
// inputs, or by reading the counters the servers export through
// GetStats. Nothing inside the RLS sources is instrumented for this.
#pragma once

#include <cstdint>
#include <vector>

#include "deployment.h"
#include "engine.h"
#include "workloads.h"

namespace perfbench {

/// What the traced phases hand to the layer measurements.
struct LayerInputs {
  PhaseRecorders* open = nullptr;  // traced open-loop latencies
  double query_p50_us = 0;         // their query_p50_us, as the plain run reports it
  double capacity = 0;             // traced closed-loop calls/s
  double untraced_capacity = 0;    // same phase, flight recorder off
  double max_lag_ms = 0;           // open-loop generator lag
  double steal = 0;                // CPU steal share over the measured time
  uint64_t calls = 0;              // calls issued in the traced phases
  uint64_t calls_before = 0;
  uint64_t bytes_before = 0;       // client bytes sent before them
  uint64_t wal_bytes_before = 0;   // LRC 0's WAL bytes before them
  uint64_t user_bytes_before = 0;  // mapping bytes written before them
  uint64_t wal_commits_before = 0;  // LRC 0's WAL commits and syncs
  uint64_t wal_syncs_before = 0;    // before them
};

/// Sum of bytes the generator's connections have sent.
uint64_t ClientBytesSent(Deployment& d);

void MeasureLayers(const RunConfig& config, Deployment& d, Watchdog& watchdog,
                   Tally& tally, const LayerInputs& in, std::vector<Metric>* out);

}  // namespace perfbench
