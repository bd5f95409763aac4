// Quickstart: run one application on the simulated 4-socket yeti-2 under
// (a) the default configuration, (b) DUF, and (c) DUFP at a chosen
// tolerated slowdown, and compare time / power / energy — the minimal
// end-to-end use of the public API.
//
// Usage: quickstart [app] [tolerance_pct]   (defaults: CG 10)
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "workloads/profiles.h"

using namespace dufp;

int main(int argc, char** argv) {
  const std::string app_name = argc > 1 ? argv[1] : "CG";
  const double tol_pct = argc > 2 ? std::atof(argv[2]) : 10.0;

  workloads::AppId app;
  try {
    app = workloads::app_by_name(app_name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  const auto& prof = workloads::profile(app);
  std::printf("Application: %s — %s\n", prof.name().c_str(),
              prof.description().c_str());
  std::printf("Tolerated slowdown: %.0f %%\n\n", tol_pct);

  harness::RunConfig cfg = harness::default_run_config(prof);
  cfg.seed = 7;

  const int reps = 3;
  cfg.policy_name = "";  // the default configuration: no controller
  const auto def = harness::run_repeated(cfg, reps);

  cfg.policy_name = "DUF";
  cfg.tolerated_slowdown = tol_pct / 100.0;
  const auto duf = harness::run_repeated(cfg, reps);

  cfg.policy_name = "DUFP";
  const auto dufp = harness::run_repeated(cfg, reps);

  TextTable t({"config", "time (s)", "slowdown %", "CPU power (W)",
               "CPU power savings %", "DRAM power (W)", "energy (kJ)",
               "energy change %"});
  auto row = [&](const char* name, const harness::RepeatedResult& r) {
    t.add_row(name,
              {r.exec_seconds.mean,
               harness::percent_over(r.exec_seconds.mean,
                                     def.exec_seconds.mean),
               r.avg_pkg_power_w.mean,
               -harness::percent_over(r.avg_pkg_power_w.mean,
                                      def.avg_pkg_power_w.mean),
               r.avg_dram_power_w.mean, r.total_energy_j.mean / 1000.0,
               harness::percent_over(r.total_energy_j.mean,
                                     def.total_energy_j.mean)});
  };
  row("default", def);
  row("DUF", duf);
  row("DUFP", dufp);
  t.print(std::cout);
  return 0;
}
