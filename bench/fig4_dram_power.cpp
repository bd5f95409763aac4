// Fig. 4: impact of DUFP on DRAM power consumption — savings (% below the
// default run's average DRAM power), DUF vs DUFP.
#include <iostream>

#include "bench_util.h"
#include "common/csv.h"

using namespace dufp;

int main() {
  bench::print_banner("Fig. 4: impact on DRAM power consumption (savings %)",
                      "Fig. 4 (Sec. V-C)");
  const auto evals = bench::run_full_grid();
  const auto& tols = harness::paper_tolerances();

  for (const std::string& mode : bench::paper_policies()) {
    std::printf("\n--- %s: DRAM power savings %% ---\n", mode.c_str());
    std::vector<std::string> header{"app"};
    for (double t : tols) header.push_back(bench::tol_label(t));
    TextTable table(header);
    for (const auto& e : evals) {
      std::vector<double> row;
      for (double t : tols) row.push_back(e.dram_power_savings_pct(mode, t));
      table.add_row(workloads::app_name(e.app()), row);
    }
    table.print(std::cout);
  }

  double best = -1e9;
  std::string best_cfg;
  for (const auto& e : evals) {
    for (double t : tols) {
      const double s = e.dram_power_savings_pct("DUFP", t);
      if (s > best) {
        best = s;
        best_cfg =
            workloads::app_name(e.app()) + " @ " + bench::tol_label(t);
      }
    }
  }
  std::printf("\nBest DUFP DRAM savings: %.2f %% (%s).\n", best,
              best_cfg.c_str());
  std::printf(
      "Paper: savings for most configurations, best ~8.83 %% on CG @20 %%;\n"
      "only MG @0 %% shows a small (~0.8 %%) loss.\n");

  bench::write_grid_csv(
      "fig4_dram_power.csv", {"dram_savings_pct"}, evals,
      [](const harness::Evaluation& e, const std::string& mode, double t) {
        return std::vector<std::string>{
            fmt_double(e.dram_power_savings_pct(mode, t), 3)};
      });
  return 0;
}
