// Fig. 3a: DUFP's impact on execution time — slowdown (% over the default
// run) per application and tolerated slowdown, with min/max error bars,
// for both DUF and DUFP.
#include <iostream>

#include "bench_util.h"
#include "common/csv.h"

using namespace dufp;

int main() {
  bench::print_banner("Fig. 3a: impact on performance (slowdown %)",
                      "Fig. 3a (Sec. V-A)");
  const auto evals = bench::run_full_grid();
  const auto& tols = harness::paper_tolerances();

  for (const std::string& mode : bench::paper_policies()) {
    std::printf("\n--- %s: slowdown %% (mean [min..max]) ---\n", mode.c_str());
    std::vector<std::string> header{"app"};
    for (double t : tols) header.push_back(bench::tol_label(t));
    TextTable table(header);
    for (const auto& e : evals) {
      std::vector<std::string> row{workloads::app_name(e.app())};
      for (double t : tols) {
        row.push_back(bench::with_bar(e.slowdown_pct(mode, t),
                                      e.slowdown_pct_min(mode, t),
                                      e.slowdown_pct_max(mode, t)));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }

  // Respect statistics, as the paper reports them (Sec. V-A).
  int total = 0;
  int respected = 0;
  double worst_excess = 0.0;
  std::string worst_config;
  for (const auto& e : evals) {
    for (double t : tols) {
      ++total;
      const double slow = e.slowdown_pct("DUFP", t);
      const double excess = slow - t * 100.0;
      if (excess <= 0.3) {
        ++respected;
      } else if (excess > worst_excess) {
        worst_excess = excess;
        worst_config = workloads::app_name(e.app()) + " @ " +
                       bench::tol_label(t);
      }
    }
  }
  std::printf(
      "\nDUFP respects the tolerated slowdown for %d of %d configurations"
      " (%.0f %%).\n", respected, total, 100.0 * respected / total);
  if (!worst_config.empty()) {
    std::printf("Largest excess beyond tolerance: %.2f points (%s).\n",
                worst_excess, worst_config.c_str());
  }
  std::printf(
      "Paper: respected for 34/40 (85 %%); remaining configurations stay\n"
      "within ~3 points (LAMMPS, CG @20, UA @0 are the violators).\n");

  std::printf("\n");
  bench::write_grid_csv(
      "fig3a_slowdown.csv", {"slowdown_pct", "min", "max"}, evals,
      [](const harness::Evaluation& e, const std::string& mode, double t) {
        return std::vector<std::string>{
            fmt_double(e.slowdown_pct(mode, t), 3),
            fmt_double(e.slowdown_pct_min(mode, t), 3),
            fmt_double(e.slowdown_pct_max(mode, t), 3)};
      });
  return 0;
}
