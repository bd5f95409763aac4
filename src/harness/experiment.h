// Figure-level experiment orchestration: evaluate an application under
// the default configuration and a list of policies named by registry
// name (the figures use "DUF" and "DUFP") across tolerated slowdowns,
// and derive the percentage metrics the paper's figures plot.
#pragma once

#include <functional>
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

/// Runs the full grid for one application: baseline + {policies} x
/// {tolerances}, `repetitions` runs each.  Thin wrapper over
/// ExperimentPlan — every (config, seed) job of the grid is enumerated up
/// front and executed across DUFP_THREADS workers, with results
/// bit-identical to a serial run.
Evaluation evaluate_app(workloads::AppId app,
                        const std::vector<std::string>& policies,
                        const std::vector<double>& tolerances,
                        int repetitions, std::uint64_t seed = 1);

/// Same grid for several applications scheduled as ONE job set — the
/// whole apps x (baseline + policies x tolerances) x repetitions matrix
/// runs through a single ExperimentPlan, so parallelism spans apps, not
/// just cells.  This is what the figure benches call.
std::vector<Evaluation> evaluate_apps(
    const std::vector<workloads::AppId>& apps,
    const std::vector<std::string>& policies,
    const std::vector<double>& tolerances, int repetitions,
    std::uint64_t seed = 1);

// -- grid enumeration shared with the shard layer ----------------------------

/// Cell ids of one application's slice of a grid plan, as laid out by
/// add_grid_cells.
struct AppGridCells {
  workloads::AppId app = workloads::AppId::cg;
  ExperimentPlan::CellId baseline = 0;
  std::vector<ExperimentPlan::CellId> cells;  ///< policy-major, tolerances inner
};

/// Produces each app's base RunConfig (machine size, faults, telemetry —
/// everything but policy/tolerance/seed, which the grid fills in).
using BaseConfigFn =
    std::function<RunConfig(const workloads::WorkloadProfile&)>;

/// Enumerates the apps x (baseline + policies x tolerances) grid into
/// `plan`, one cell per grid point with `repetitions` jobs each.  Cell
/// order — and hence the job enumeration (see ExperimentPlan::JobRef) —
/// is: per app in list order, baseline first, then policy-major with
/// tolerances inner.  Deterministic: two processes calling this with
/// equal arguments build byte-equal plans, which is what lets shard
/// workers and the gatherer agree on job identities without talking to
/// each other.
std::vector<AppGridCells> add_grid_cells(ExperimentPlan& plan,
                                         const std::vector<workloads::AppId>& apps,
                                         const std::vector<std::string>& policies,
                                         const std::vector<double>& tolerances,
                                         int repetitions, std::uint64_t seed,
                                         const BaseConfigFn& base_config);

/// Reads a finished plan back into per-app Evaluations (inverse of
/// add_grid_cells' layout).
std::vector<Evaluation> assemble_evaluations(
    const ExperimentPlan& plan, const std::vector<AppGridCells>& index,
    const std::vector<std::string>& policies,
    const std::vector<double>& tolerances);

/// Prints a one-line progress note to stderr unless DUFP_QUIET is set.
void note_progress(const std::string& what);

}  // namespace dufp::harness
