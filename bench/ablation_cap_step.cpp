// Ablation: power-cap step size (paper default 5 W, Sec. IV-A).
//
// Small steps probe gently but take many intervals to reach deep caps;
// large steps reach savings faster but overshoot the tolerance boundary
// and trigger more resets.
#include <iostream>

#include "bench_util.h"

using namespace dufp;

int main() {
  bench::print_banner("Ablation: power cap step (paper default 5 W)",
                      "Sec. IV-A discussion");
  const int reps = harness::BenchOptions::from_env().repetitions;

  for (auto app : {workloads::AppId::cg, workloads::AppId::ep}) {
    std::printf("\n--- %s, DUFP @ 10 %% tolerated slowdown ---\n",
                workloads::app_name(app).c_str());
    harness::RunConfig base =
        harness::default_run_config(workloads::profile(app));
    base.seed = 303;
    const auto def = harness::run_repeated(base, reps);

    TextTable t({"cap step (W)", "slowdown %", "power savings %",
                 "energy change %", "cap resets / min"});
    for (double step : {2.5, 5.0, 10.0, 20.0}) {
      harness::note_progress(workloads::app_name(app) + " step " +
                             fmt_double(step, 1));
      harness::RunConfig cfg = base;
      cfg.policy_name = "DUFP";
      cfg.tolerated_slowdown = 0.10;
      cfg.policy.cap_step_w = step;
      const auto res = harness::run_once(cfg);
      const auto agg = harness::run_repeated(cfg, reps);
      double resets = 0.0;
      for (const auto& st : res.agent_stats) {
        resets += static_cast<double>(st.cap_resets);
      }
      resets = resets / res.summary.exec_seconds * 60.0;
      t.add_row(fmt_double(step, 1),
                {harness::percent_over(agg.exec_seconds.mean,
                                       def.exec_seconds.mean),
                 -harness::percent_over(agg.avg_pkg_power_w.mean,
                                        def.avg_pkg_power_w.mean),
                 harness::percent_over(agg.total_energy_j.mean,
                                       def.total_energy_j.mean),
                 resets});
    }
    t.print(std::cout);
  }
  return 0;
}
