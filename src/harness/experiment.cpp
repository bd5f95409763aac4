#include "harness/experiment.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/expect.h"
#include "common/string_util.h"
#include "harness/options.h"
#include "harness/plan.h"

namespace dufp::harness {

const std::vector<double>& paper_tolerances() {
  static const std::vector<double> tols{0.0, 0.05, 0.10, 0.20};
  return tols;
}

RunConfig default_run_config(const workloads::WorkloadProfile& profile) {
  const auto opts = BenchOptions::from_env();
  RunConfig cfg;
  cfg.profile = &profile;
  cfg.machine.sockets = opts.sockets;
  // DUFP_FAULT_RATE > 0 turns any bench into a robustness experiment: the
  // whole grid runs under the storm preset, and health counters surface
  // in the output.
  if (opts.fault_rate > 0.0) {
    cfg.faults = faults::FaultOptions::storm(opts.fault_rate, opts.fault_seed);
  }
  return cfg;
}

Evaluation::Evaluation(workloads::AppId app, RepeatedResult baseline,
                       std::vector<EvaluationCell> cells)
    : app_(app), baseline_(std::move(baseline)), cells_(std::move(cells)) {}

const RepeatedResult& Evaluation::at(std::string_view policy,
                                     double tolerance) const {
  for (const auto& c : cells_) {
    if (c.policy == policy && std::abs(c.tolerance - tolerance) < 1e-9) {
      return c.result;
    }
  }
  throw std::invalid_argument("Evaluation: no cell for policy \"" +
                              std::string(policy) + "\" / tolerance");
}

double Evaluation::slowdown_pct(std::string_view policy,
                                double tolerance) const {
  return percent_over(at(policy, tolerance).exec_seconds.mean,
                      baseline_.exec_seconds.mean);
}

double Evaluation::slowdown_pct_min(std::string_view policy,
                                    double tolerance) const {
  return percent_over(at(policy, tolerance).exec_seconds.min,
                      baseline_.exec_seconds.mean);
}

double Evaluation::slowdown_pct_max(std::string_view policy,
                                    double tolerance) const {
  return percent_over(at(policy, tolerance).exec_seconds.max,
                      baseline_.exec_seconds.mean);
}

double Evaluation::pkg_power_savings_pct(std::string_view policy,
                                         double tolerance) const {
  return -percent_over(at(policy, tolerance).avg_pkg_power_w.mean,
                       baseline_.avg_pkg_power_w.mean);
}

double Evaluation::dram_power_savings_pct(std::string_view policy,
                                          double tolerance) const {
  return -percent_over(at(policy, tolerance).avg_dram_power_w.mean,
                       baseline_.avg_dram_power_w.mean);
}

double Evaluation::energy_change_pct(std::string_view policy,
                                     double tolerance) const {
  return percent_over(at(policy, tolerance).total_energy_j.mean,
                      baseline_.total_energy_j.mean);
}

Evaluation evaluate_app(workloads::AppId app,
                        const std::vector<std::string>& policies,
                        const std::vector<double>& tolerances,
                        int repetitions, std::uint64_t seed) {
  auto evals = evaluate_apps({app}, policies, tolerances, repetitions, seed);
  return std::move(evals.front());
}

std::vector<AppGridCells> add_grid_cells(ExperimentPlan& plan,
                                         const std::vector<workloads::AppId>& apps,
                                         const std::vector<std::string>& policies,
                                         const std::vector<double>& tolerances,
                                         int repetitions, std::uint64_t seed,
                                         const BaseConfigFn& base_config) {
  std::vector<AppGridCells> index;
  index.reserve(apps.size());

  for (workloads::AppId app : apps) {
    const auto& prof = workloads::profile(app);
    RunConfig base = base_config(prof);
    base.seed = seed;

    AppGridCells ac;
    ac.app = app;
    RunConfig def = base;
    def.policy_name.clear();
    ac.baseline = plan.add_cell(def, repetitions,
                                workloads::app_name(app) + ": baseline");
    for (const std::string& policy : policies) {
      for (double tol : tolerances) {
        RunConfig cfg = base;
        cfg.policy_name = policy;
        cfg.tolerated_slowdown = tol;
        ac.cells.push_back(plan.add_cell(
            cfg, repetitions,
            workloads::app_name(app) + ": " + policy + " @ " +
                std::to_string(static_cast<int>(tol * 100 + 0.5)) + "%"));
      }
    }
    index.push_back(std::move(ac));
  }
  return index;
}

std::vector<Evaluation> assemble_evaluations(
    const ExperimentPlan& plan, const std::vector<AppGridCells>& index,
    const std::vector<std::string>& policies,
    const std::vector<double>& tolerances) {
  std::vector<Evaluation> evals;
  evals.reserve(index.size());
  for (const auto& ac : index) {
    std::vector<EvaluationCell> cells;
    std::size_t c = 0;
    for (const std::string& policy : policies) {
      for (double tol : tolerances) {
        EvaluationCell cell;
        cell.policy = policy;
        cell.tolerance = tol;
        cell.result = plan.result(ac.cells[c++]);
        cells.push_back(std::move(cell));
      }
    }
    evals.emplace_back(ac.app, plan.result(ac.baseline), std::move(cells));
  }
  return evals;
}

std::vector<Evaluation> evaluate_apps(
    const std::vector<workloads::AppId>& apps,
    const std::vector<std::string>& policies,
    const std::vector<double>& tolerances, int repetitions,
    std::uint64_t seed) {
  // Enumerate the whole apps x (baseline + policies x tolerances) grid as
  // one job set; cell ids are recorded per app so the evaluations can be
  // reassembled after the single parallel run.
  ExperimentPlan plan;
  const auto index =
      add_grid_cells(plan, apps, policies, tolerances, repetitions, seed,
                     [](const workloads::WorkloadProfile& prof) {
                       return default_run_config(prof);
                     });

  const int threads = BenchOptions::from_env().resolved_threads();
  note_progress(strf("%zu jobs across %zu cells on %d threads",
                     plan.job_count(), plan.cell_count(), threads));
  plan.run(threads);

  return assemble_evaluations(plan, index, policies, tolerances);
}

void note_progress(const std::string& what) {
  if (BenchOptions::from_env().quiet) return;
  std::fprintf(stderr, "[dufp-bench] %s\n", what.c_str());
}

}  // namespace dufp::harness
