// Ablation: minimum power cap (paper default 65 W).
//
// Sec. IV-A: "only highly memory intensive applications can sustain low
// power caps ... lower power cap values have an impact on memory
// bandwidth".  This sweep shows why 65 W: below it, the memory-level
// parallelism lost to deep core throttling cuts achieved bandwidth and
// the slowdown of memory-bound applications escapes the tolerance.
#include <iostream>

#include "bench_util.h"

using namespace dufp;

int main() {
  bench::print_banner("Ablation: minimum power cap (paper default 65 W)",
                      "Sec. IV-A discussion");
  const int reps = harness::BenchOptions::from_env().repetitions;

  for (auto app : {workloads::AppId::cg, workloads::AppId::ft}) {
    std::printf("\n--- %s, DUFP @ 10 %% tolerated slowdown ---\n",
                workloads::app_name(app).c_str());
    harness::RunConfig base =
        harness::default_run_config(workloads::profile(app));
    base.seed = 302;
    const auto def = harness::run_repeated(base, reps);

    TextTable t({"min cap (W)", "slowdown %", "power savings %",
                 "DRAM power savings %", "energy change %"});
    for (double min_cap : {45.0, 55.0, 65.0, 75.0, 85.0}) {
      harness::note_progress(workloads::app_name(app) + " min cap " +
                             fmt_double(min_cap, 0));
      harness::RunConfig cfg = base;
      cfg.policy_name = "DUFP";
      cfg.tolerated_slowdown = 0.10;
      cfg.policy.min_cap_w = min_cap;
      const auto agg = harness::run_repeated(cfg, reps);
      t.add_row(fmt_double(min_cap, 0),
                {harness::percent_over(agg.exec_seconds.mean,
                                       def.exec_seconds.mean),
                 -harness::percent_over(agg.avg_pkg_power_w.mean,
                                        def.avg_pkg_power_w.mean),
                 -harness::percent_over(agg.avg_dram_power_w.mean,
                                        def.avg_dram_power_w.mean),
                 harness::percent_over(agg.total_energy_j.mean,
                                       def.total_energy_j.mean)});
    }
    t.print(std::cout);
  }

  std::printf(
      "\nExpected shape: marginal extra savings below 65 W, bought with\n"
      "growing bandwidth-driven slowdown on memory-intensive phases.\n");
  return 0;
}
