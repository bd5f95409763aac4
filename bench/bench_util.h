// Shared plumbing for the benches: the uniform banner and the output
// directory.
//
// Environment knobs (all benches, read via harness::BenchOptions):
//   DUFP_REPS=N     runs per cell (default 10, the paper's protocol)
//   DUFP_SOCKETS=N  sockets simulated (default 4 = yeti-2)
//   DUFP_THREADS=N  worker threads for the experiment engine
//                   (default 0 = one per hardware thread)
//   DUFP_QUIET=1    suppress progress notes on stderr
//   DUFP_FAULT_RATE=R / DUFP_FAULT_SEED=S
//                   R > 0 runs the grid under a deterministic fault storm
//                   (see faults::FaultOptions::storm); health counters are
//                   reported alongside the figures
//   DUFP_OUT_DIR=D  directory all CSV / trace / telemetry files land in
//                   (default "out", created on demand)
//   DUFP_TELEMETRY=1
//                   enable the telemetry plane where a bench supports it
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/string_util.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "harness/options.h"
#include "harness/runner.h"
#include "workloads/profiles.h"

namespace dufp::bench {

inline void print_banner(const std::string& what, const std::string& paper_ref) {
  const auto opts = harness::BenchOptions::from_env();
  std::printf("=============================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Machine: simulated Grid'5000 yeti-2 (%d x Xeon Gold 6130), "
              "%d repetitions per cell\n",
              opts.sockets, opts.repetitions);
  if (opts.fault_rate > 0.0) {
    std::printf("Fault injection: storm at rate %g, seed %llu "
                "(DUFP_FAULT_RATE / DUFP_FAULT_SEED)\n",
                opts.fault_rate,
                static_cast<unsigned long long>(opts.fault_seed));
  }
  std::printf("=============================================================\n");
}

/// `<DUFP_OUT_DIR>/<filename>`, creating the directory on demand — every
/// bench output file goes through this.
inline std::string out_path(const std::string& filename) {
  return harness::BenchOptions::from_env().out_path(filename);
}

}  // namespace dufp::bench
