// Baseline comparison: DUFP vs a DNPC-style frequency-model capper
// (Sec. VI related work).
//
// The paper could not run DNPC on its platform but argues its linear
// frequency-performance model breaks on memory-intensive and vectorized
// applications.  This bench quantifies the argument: on memory-bound
// codes DNPC returns headroom as soon as the clock dips (predicting
// slowdown that never happens), while DUFP's FLOPS feedback keeps it.
#include <iostream>

#include "bench_util.h"

using namespace dufp;

int main() {
  bench::print_banner("Baseline: DNPC-style frequency-model capping vs DUFP",
                      "Sec. VI related-work discussion");
  const int reps = harness::BenchOptions::from_env().repetitions;

  TextTable t({"app", "DNPC slowdown %", "DNPC savings %",
               "DUFP slowdown %", "DUFP savings %"});
  for (auto app : workloads::all_apps()) {
    harness::note_progress(workloads::app_name(app));
    harness::RunConfig base =
        harness::default_run_config(workloads::profile(app));
    base.seed = 305;
    const auto def = harness::run_repeated(base, reps);

    auto cell = [&](const std::string& mode) {
      harness::RunConfig cfg = base;
      cfg.policy_name = mode;
      cfg.tolerated_slowdown = 0.10;
      return harness::run_repeated(cfg, reps);
    };
    const auto dnpc = cell("DNPC");
    const auto dufp = cell("DUFP");

    t.add_row(workloads::app_name(app),
              {harness::percent_over(dnpc.exec_seconds.mean,
                                     def.exec_seconds.mean),
               -harness::percent_over(dnpc.avg_pkg_power_w.mean,
                                      def.avg_pkg_power_w.mean),
               harness::percent_over(dufp.exec_seconds.mean,
                                     def.exec_seconds.mean),
               -harness::percent_over(dufp.avg_pkg_power_w.mean,
                                      def.avg_pkg_power_w.mean)});
  }
  t.print(std::cout);

  std::printf(
      "\nExpected shape (10 %% tolerated slowdown): the frequency model\n"
      "cuts both ways.  On memory-bound codes (CG, MG) DNPC forfeits\n"
      "savings DUFP takes — it predicts slowdown from the clock dip and\n"
      "backs off although throughput is fine.  On EP it has no uncore\n"
      "lever at all (10 %% vs DUFP's ~18 %%), and on bursty codes\n"
      "(LAMMPS) its estimate lags and the limit is overrun.  Where FLOPS\n"
      "fluctuate without real slowdown (BT), frequency-blindness lets\n"
      "DNPC cap deeper than DUFP's conservative FLOPS feedback.\n");
  return 0;
}
