// Extension study: DUFP-F — direct core-frequency management under power
// capping (the paper's Sec. VII future work: "better handling CPU
// frequency under power capping, instead of relying on power capping to
// change the CPU frequency").
//
// DUFP-F behaves like DUFP but, whenever the cap is active and the
// controller steady, pins the core clock via IA32_PERF_CTL one P-state
// above the observed equilibrium.  RAPL then stops hunting around the
// cap, trading a sliver of burst performance for steadier power.
#include <iostream>

#include "bench_util.h"

using namespace dufp;

int main() {
  bench::print_banner(
      "Extension: DUFP-F (direct frequency management under capping)",
      "Sec. VII future work");
  const int reps = harness::BenchOptions::from_env().repetitions;

  for (auto app : {workloads::AppId::cg, workloads::AppId::hpl,
                   workloads::AppId::lammps}) {
    std::printf("\n--- %s @ 10 %% tolerated slowdown ---\n",
                workloads::app_name(app).c_str());
    harness::RunConfig base =
        harness::default_run_config(workloads::profile(app));
    base.seed = 304;
    const auto def = harness::run_repeated(base, reps);

    TextTable t({"configuration", "slowdown %", "power savings %",
                 "energy change %", "p-state pins / min"});
    for (const char* policy : {"DUFP", "DUFP-F"}) {
      harness::note_progress(workloads::app_name(app) + " " + policy);
      harness::RunConfig cfg = base;
      cfg.policy_name = policy;
      cfg.tolerated_slowdown = 0.10;
      const auto res = harness::run_once(cfg);
      const auto agg = harness::run_repeated(cfg, reps);
      double pins = 0.0;
      for (const auto& st : res.agent_stats) {
        pins += static_cast<double>(st.pstate_pins);
      }
      pins = pins / res.summary.exec_seconds * 60.0;
      t.add_row(policy,
                {harness::percent_over(agg.exec_seconds.mean,
                                       def.exec_seconds.mean),
                 -harness::percent_over(agg.avg_pkg_power_w.mean,
                                        def.avg_pkg_power_w.mean),
                 harness::percent_over(agg.total_energy_j.mean,
                                       def.total_energy_j.mean),
                 pins});
    }
    t.print(std::cout);
  }

  std::printf(
      "\nExpected shape: DUFP-F matches DUFP's savings with equal or\n"
      "slightly lower power (no RAPL hunting above the equilibrium) and\n"
      "no additional slowdown.\n");
  return 0;
}
