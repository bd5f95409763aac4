// Shared plumbing for the figure-reproduction benches: grid execution,
// uniform headers, CSV dumps.
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

/// One-line roll-up of a cell's health counters for fault-storm output.
inline std::string health_summary(const harness::HealthTotals& h) {
  return strf(
      "faults=%llu retries=%llu failures=%llu read_fail=%llu rejected=%llu "
      "degraded=%llu reengaged=%llu degraded_intervals=%llu",
      static_cast<unsigned long long>(h.faults_injected),
      static_cast<unsigned long long>(h.actuation_retries),
      static_cast<unsigned long long>(h.actuation_failures),
      static_cast<unsigned long long>(h.sample_read_failures),
      static_cast<unsigned long long>(h.samples_rejected),
      static_cast<unsigned long long>(h.degradations),
      static_cast<unsigned long long>(h.reengagements),
      static_cast<unsigned long long>(h.intervals_degraded));
}

/// The controllers the paper's Fig. 3 / Fig. 4 compare, by registry name.
inline const std::vector<std::string>& paper_policies() {
  static const std::vector<std::string> names{"DUF", "DUFP"};
  return names;
}

/// Runs the full evaluation grid the paper's Fig. 3 / Fig. 4 share:
/// every application x {DUF, DUFP} x {0, 5, 10, 20} %.  All jobs go
/// through one ExperimentPlan, so DUFP_THREADS parallelises across the
/// whole grid, not just within one app.
inline std::vector<harness::Evaluation> run_full_grid() {
  return harness::evaluate_apps(workloads::all_apps(), paper_policies(),
                                harness::paper_tolerances(),
                                harness::BenchOptions::from_env().repetitions);
}

/// Formats "val [min..max]" for error-bar style cells.
inline std::string with_bar(double val, double lo, double hi) {
  return strf("%6.2f [%6.2f..%6.2f]", val, lo, hi);
}

inline std::string tol_label(double tol) {
  return strf("%d%%", static_cast<int>(tol * 100 + 0.5));
}

/// `<DUFP_OUT_DIR>/<filename>`, creating the directory on demand — every
/// bench output file goes through this.
inline std::string out_path(const std::string& filename) {
  return harness::BenchOptions::from_env().out_path(filename);
}

/// The CSV shape the Fig. 3 / Fig. 4 benches share: one row per
/// app x {DUF, DUFP} x tolerance with `value_headers` extra columns,
/// filled by `cell(eval, mode, tolerance)`.  Writes under DUFP_OUT_DIR
/// and reports the path on stdout.
template <typename CellFn>
void write_grid_csv(const std::string& filename,
                    const std::vector<std::string>& value_headers,
                    const std::vector<harness::Evaluation>& evals,
                    CellFn&& cell) {
  const std::string path = out_path(filename);
  CsvWriter csv(path);
  std::vector<std::string> header{"app", "mode", "tolerance_pct"};
  header.insert(header.end(), value_headers.begin(), value_headers.end());
  csv.write_row(header);
  for (const auto& e : evals) {
    for (const std::string& mode : paper_policies()) {
      for (double t : harness::paper_tolerances()) {
        std::vector<std::string> row{workloads::app_name(e.app()), mode,
                                     fmt_double(t * 100, 0)};
        for (std::string& v : cell(e, mode, t)) row.push_back(std::move(v));
        csv.write_row(row);
      }
    }
  }
  std::printf("Raw series written to %s\n", path.c_str());
}

}  // namespace dufp::bench
