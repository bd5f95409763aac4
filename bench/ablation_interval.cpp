// Ablation: measurement / control interval.
//
// The paper fixes 200 ms as the trade-off between controller overhead and
// reaction latency (Sec. IV-D) and attributes the UA and LAMMPS tolerance
// violations to variations the 200 ms sampler misses (Sec. V-A).  This
// sweep quantifies that trade-off: shorter intervals catch UA's compute
// iterations and LAMMPS' bursts sooner (smaller violations) but force
// more actuator churn; longer intervals forfeit savings and overshoot.
#include <iostream>

#include "bench_util.h"

using namespace dufp;

int main() {
  bench::print_banner("Ablation: control interval (paper default 200 ms)",
                      "Sec. IV-D / V-A discussion");
  const int reps = harness::BenchOptions::from_env().repetitions;

  for (auto app : {workloads::AppId::ua, workloads::AppId::lammps,
                   workloads::AppId::cg}) {
    std::printf("\n--- %s, DUFP @ 10 %% tolerated slowdown ---\n",
                workloads::app_name(app).c_str());
    TextTable t({"interval (ms)", "slowdown %", "power savings %",
                 "energy change %", "actuations / s"});
    harness::RunConfig base =
        harness::default_run_config(workloads::profile(app));
    base.seed = 301;
    const auto def = harness::run_repeated(base, reps);

    for (long ms : {50L, 100L, 200L, 400L}) {
      harness::note_progress(workloads::app_name(app) + " @ " +
                             std::to_string(ms) + " ms");
      harness::RunConfig cfg = base;
      cfg.policy_name = "DUFP";
      cfg.tolerated_slowdown = 0.10;
      cfg.policy.interval = SimTime::from_millis(ms);
      const auto res = harness::run_once(cfg);
      const auto agg = harness::run_repeated(cfg, reps);

      double actions = 0.0;
      for (const auto& st : res.agent_stats) {
        actions += static_cast<double>(
            st.cap_decreases + st.cap_increases + st.cap_resets +
            st.uncore_decreases + st.uncore_increases + st.uncore_resets);
      }
      actions /= res.summary.exec_seconds;

      t.add_row(std::to_string(ms),
                {harness::percent_over(agg.exec_seconds.mean,
                                       def.exec_seconds.mean),
                 -harness::percent_over(agg.avg_pkg_power_w.mean,
                                        def.avg_pkg_power_w.mean),
                 harness::percent_over(agg.total_energy_j.mean,
                                       def.total_energy_j.mean),
                 actions});
    }
    t.print(std::cout);
  }

  std::printf(
      "\nExpected shape: 50 ms reacts fastest (best tolerance compliance\n"
      "on UA/LAMMPS) at the cost of several times more actuator writes;\n"
      "400 ms leaves savings on the table and misses phase changes.\n");
  return 0;
}
