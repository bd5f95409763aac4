// Fig. 3b: impact on processor power consumption — savings (% below the
// default run's average package power) per application and tolerance,
// DUF vs DUFP.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/csv.h"

using namespace dufp;

int main() {
  bench::print_banner(
      "Fig. 3b: impact on processor power consumption (savings %)",
      "Fig. 3b (Sec. V-B)");
  const auto evals = bench::run_full_grid();
  const auto& tols = harness::paper_tolerances();

  for (const std::string& mode : bench::paper_policies()) {
    std::printf("\n--- %s: processor power savings %% ---\n", mode.c_str());
    std::vector<std::string> header{"app"};
    for (double t : tols) header.push_back(bench::tol_label(t));
    TextTable table(header);
    for (const auto& e : evals) {
      std::vector<double> row;
      for (double t : tols) row.push_back(e.pkg_power_savings_pct(mode, t));
      table.add_row(workloads::app_name(e.app()), row);
    }
    table.print(std::cout);
  }

  // Headline extractions matching the prose of Sec. V-B.
  double best = -1e9;
  std::string best_cfg;
  double best_gap = -1e9;
  std::string gap_cfg;
  for (const auto& e : evals) {
    for (double t : tols) {
      const double dufp = e.pkg_power_savings_pct("DUFP", t);
      const double duf = e.pkg_power_savings_pct("DUF", t);
      if (dufp > best) {
        best = dufp;
        best_cfg =
            workloads::app_name(e.app()) + " @ " + bench::tol_label(t);
      }
      if (dufp - duf > best_gap) {
        best_gap = dufp - duf;
        gap_cfg = workloads::app_name(e.app()) + " @ " + bench::tol_label(t);
      }
    }
  }
  std::printf("\nBest DUFP savings: %.2f %% (%s).   [paper: 24.27 %% on EP]\n",
              best, best_cfg.c_str());
  std::printf(
      "Largest DUFP-over-DUF improvement: %.2f points (%s).   "
      "[paper: +7.90 points on CG @20%%]\n", best_gap, gap_cfg.c_str());

  bench::write_grid_csv(
      "fig3b_processor_power.csv", {"power_savings_pct"}, evals,
      [](const harness::Evaluation& e, const std::string& mode, double t) {
        return std::vector<std::string>{
            fmt_double(e.pkg_power_savings_pct(mode, t), 3)};
      });
  return 0;
}
