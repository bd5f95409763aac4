// Environment-driven options shared by every bench / example binary.
//
// One struct replaces the scattered *_from_env() free functions so a
// bench reads its whole protocol in one place:
//
//   DUFP_REPS=N        runs per cell (default 10, the paper's protocol)
//   DUFP_SOCKETS=N     sockets simulated (default 4 = yeti-2)
//   DUFP_THREADS=N     worker threads for the experiment engine
//                      (default 0 = one per hardware thread; 1 = serial)
//   DUFP_QUIET=1       suppress progress notes on stderr
//   DUFP_FAULT_RATE=R  per-operation fault probability in [0, 1]; > 0
//                      runs the grid under FaultOptions::storm(R, seed)
//   DUFP_FAULT_SEED=S  seed of the fault decision stream (default 0)
//   DUFP_OUT_DIR=DIR   directory for every CSV / trace / telemetry file
//                      (default "out"; created on first use)
//   DUFP_TELEMETRY=1   run with the telemetry plane enabled and export
//                      Prometheus / Chrome-trace / JSONL alongside the CSVs
//   DUFP_POLICIES=A,B  comma-separated registry policy names for benches
//                      that take a policy list (the tournament); empty /
//                      unset = every registered policy.  Unknown or
//                      duplicate names are configuration errors.
//   DUFP_CHAOS=R       per-record probability in [0, 1] that a shard
//                      worker self-SIGKILLs (torn record + no cleanup) —
//                      the process-level analogue of DUFP_FAULT_RATE,
//                      exercising lease reclaim / salvage / resume
//   DUFP_CHAOS_SEED=S  seed of the chaos kill-decision stream (default 0)
//
// Fleet benches (bench/fleet_scaling, src/fleet) add:
//
//   DUFP_FLEET_RACKS=N        racks in the budget tree (default 2)
//   DUFP_FLEET_NODES=N        nodes per rack (default 2); sockets per
//                             node come from DUFP_SOCKETS
//   DUFP_FLEET_ALLOCATOR=A    fleet allocator registry name; unset =
//                             the bench's default (fleet_scaling ranks
//                             every registered allocator).  Unknown
//                             names are configuration errors listing
//                             the registered names, like DUFP_POLICIES.
//   DUFP_FLEET_BUDGET=W       cluster-wide budget in watts, >= 0
//                             (0 = derive max_cap x socket-count)
//   DUFP_FLEET_TRAFFIC=P      traffic profile (diurnal, heavy-tail, flat)
//   DUFP_FLEET_TRAFFIC_SEED=S traffic stream seed (default 1)
//
// Malformed values (non-numeric, trailing junk, out of range) are
// configuration errors: from_env() throws std::invalid_argument naming
// every bad variable rather than silently falling back to a default —
// a typo in DUFP_REPS must not quietly produce 10-rep paper numbers.
// Variables not listed here are never read, so a retired knob left in
// an environment is ignored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dufp::harness {

struct BenchOptions {
  int repetitions = 10;       ///< DUFP_REPS, >= 1
  int sockets = 4;            ///< DUFP_SOCKETS, >= 1
  int threads = 0;            ///< DUFP_THREADS; 0 = auto (hardware threads)
  bool quiet = false;         ///< DUFP_QUIET
  double fault_rate = 0.0;    ///< DUFP_FAULT_RATE, in [0, 1]
  std::uint64_t fault_seed = 0;  ///< DUFP_FAULT_SEED
  std::string out_dir = "out";   ///< DUFP_OUT_DIR, non-empty
  bool telemetry = false;        ///< DUFP_TELEMETRY
  /// DUFP_POLICIES, canonical registry names in list order; empty =
  /// caller's default (the tournament runs every registered policy).
  std::vector<std::string> policies;
  double chaos_kill_rate = 0.0;     ///< DUFP_CHAOS, in [0, 1]
  std::uint64_t chaos_seed = 0;     ///< DUFP_CHAOS_SEED

  int fleet_racks = 2;           ///< DUFP_FLEET_RACKS, >= 1
  int fleet_nodes_per_rack = 2;  ///< DUFP_FLEET_NODES, >= 1
  /// DUFP_FLEET_ALLOCATOR, canonical registry spelling; empty = caller's
  /// default (fleet_scaling ranks every registered allocator).
  std::string fleet_allocator;
  double fleet_budget_w = 0.0;   ///< DUFP_FLEET_BUDGET, >= 0 (0 = derive)
  std::string fleet_traffic_profile = "diurnal";  ///< DUFP_FLEET_TRAFFIC
  std::uint64_t fleet_traffic_seed = 1;  ///< DUFP_FLEET_TRAFFIC_SEED

  /// Reads every knob from the environment.  Unset variables keep the
  /// defaults above; set-but-malformed variables throw
  /// std::invalid_argument listing *all* problems found.
  static BenchOptions from_env();

  /// `threads` with 0 resolved to the hardware thread count (>= 1).
  int resolved_threads() const;

  /// `<out_dir>/<filename>`, creating out_dir (and parents) on demand —
  /// every bench output goes through this so DUFP_OUT_DIR redirects the
  /// whole run.  Throws std::runtime_error when the directory cannot be
  /// created.
  std::string out_path(const std::string& filename) const;
};

}  // namespace dufp::harness
