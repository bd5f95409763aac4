// Trace replay: build a WorkloadProfile from a measured time series.
//
// A user profiling a real application (e.g. with PAPI at DUF's own 200 ms
// cadence) gets a series of per-interval FLOPS and bandwidth.  This module
// turns such a trace into a phase-graph model by segmenting the series
// wherever the observable behaviour shifts, so controller studies can run
// against measured applications, not just the ten built-in profiles.
#pragma once

#include <string>
#include <vector>

#include "workloads/workload.h"

namespace dufp::workloads {

/// One trace row: one homogeneous slice of execution, `seconds` of wall
/// time at `gflops` FLOP rate and `gbps` DRAM traffic (per socket, at the
/// machine's reference operating point).
struct TraceSample {
  double seconds = 0.0;
  double gflops = 0.0;
  double gbps = 0.0;
  double cpu_activity = 0.9;
  double mem_activity = 0.8;
};

struct ReplayOptions {
  /// Consecutive samples whose FLOPS and bandwidth are both within this
  /// relative distance are merged into one phase.
  double merge_tolerance = 0.10;

  /// Time-decomposition heuristic: bandwidth demand above this fraction
  /// of the machine peak is treated as fully memory-bound; scaled
  /// proportionally below.
  double peak_bw_gbps = 96.0;

  /// Fixed (actuator-invariant) fraction assumed for every phase.
  double w_fixed = 0.08;
};

/// Segments the samples into phases and builds a runnable profile.
/// Throws std::invalid_argument on an empty trace.
WorkloadProfile profile_from_trace(const std::vector<TraceSample>& trace,
                                   const ReplayOptions& options = {},
                                   const std::string& name = "trace");

}  // namespace dufp::workloads
