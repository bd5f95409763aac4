// Figure-level experiment results: an application's evaluation under the
// default configuration and a list of policies named by registry name
// (the figures use "DUF" and "DUFP") across tolerated slowdowns, and the
// percentage metrics the paper's figures plot.  Grids are described and
// run as a harness::GridSpec (harness/shard.h).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "harness/plan.h"
#include "harness/runner.h"

namespace dufp::harness {

/// The tolerated-slowdown grid of the paper's evaluation (Sec. V).
const std::vector<double>& paper_tolerances();  // {0, 0.05, 0.10, 0.20}

/// A RunConfig with the yeti-2 machine (socket count from DUFP_SOCKETS),
/// paper-default policy, and 1 ms tick.
RunConfig default_run_config(const workloads::WorkloadProfile& profile);

struct EvaluationCell {
  /// Canonical registry policy name ("DUF", "cuttlefish", ...).
  std::string policy;
  double tolerance = 0.0;
  RepeatedResult result;
};

class Evaluation {
 public:
  Evaluation(workloads::AppId app, RepeatedResult baseline,
             std::vector<EvaluationCell> cells);

  workloads::AppId app() const { return app_; }
  const RepeatedResult& baseline() const { return baseline_; }

  /// Cells are keyed by canonical policy name.
  const RepeatedResult& at(std::string_view policy, double tolerance) const;

  // -- derived percentages (all relative to the default run) -------------------

  /// Execution-time overhead in percent (positive = slower).
  double slowdown_pct(std::string_view policy, double tolerance) const;
  /// Min/max over the kept runs (error bars).
  double slowdown_pct_min(std::string_view policy, double tolerance) const;
  double slowdown_pct_max(std::string_view policy, double tolerance) const;

  /// Processor power savings in percent (positive = saved).
  double pkg_power_savings_pct(std::string_view policy,
                               double tolerance) const;
  /// DRAM power savings in percent.
  double dram_power_savings_pct(std::string_view policy,
                                double tolerance) const;
  /// CPU+DRAM energy change in percent (negative = saved).
  double energy_change_pct(std::string_view policy, double tolerance) const;

 private:
  workloads::AppId app_;
  RepeatedResult baseline_;
  std::vector<EvaluationCell> cells_;
};

// -- grid enumeration shared with the shard layer ----------------------------

/// Cell ids of one application's slice of a grid plan, as laid out by
/// build_plan (harness/shard.h).
struct AppGridCells {
  workloads::AppId app = workloads::AppId::cg;
  ExperimentPlan::CellId baseline = 0;
  std::vector<ExperimentPlan::CellId> cells;  ///< policy-major, tolerances inner
};

/// Reads a finished plan back into per-app Evaluations (inverse of
/// build_plan's layout).
std::vector<Evaluation> assemble_evaluations(
    const ExperimentPlan& plan, const std::vector<AppGridCells>& index,
    const std::vector<std::string>& policies,
    const std::vector<double>& tolerances);

/// Prints a one-line progress note to stderr unless DUFP_QUIET is set.
void note_progress(const std::string& what);

}  // namespace dufp::harness
