// Capping study: static caps vs dynamic capping (DUFP) on one
// application — the paper's motivation (Sec. II) as an interactive tool.
// For each static cap in a sweep, and for DUFP at a chosen tolerance,
// prints time / power / energy against the default configuration, showing
// where the static-cap Pareto front sits and how DUFP lands near it
// without a hand-picked cap.
//
// Usage: capping_study [app] [tolerance_pct]   (defaults: CG 10)
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
  std::printf("Capping study: %s (DUFP tolerance %.0f %%)\n\n",
              prof.name().c_str(), tol_pct);

  harness::RunConfig base = harness::default_run_config(prof);
  base.seed = 17;
  const int reps = 3;

  const auto def = harness::run_repeated(base, reps);

  TextTable t({"configuration", "time (s)", "slowdown %", "power (W)",
               "power savings %", "energy change %"});
  auto add = [&](const std::string& label,
                 const harness::RepeatedResult& r) {
    t.add_row(label,
              {r.exec_seconds.mean,
               harness::percent_over(r.exec_seconds.mean,
                                     def.exec_seconds.mean),
               r.avg_pkg_power_w.mean,
               -harness::percent_over(r.avg_pkg_power_w.mean,
                                      def.avg_pkg_power_w.mean),
               harness::percent_over(r.total_energy_j.mean,
                                     def.total_energy_j.mean)});
  };

  add("default", def);
  for (double cap : {115.0, 105.0, 95.0, 85.0, 75.0}) {
    harness::RunConfig cfg = base;
    cfg.static_cap_w = cap;
    add("static cap " + fmt_double(cap, 0) + " W",
        harness::run_repeated(cfg, reps));
  }
  {
    harness::RunConfig cfg = base;
    cfg.policy_name = "DUFP";
    cfg.tolerated_slowdown = tol_pct / 100.0;
    add("DUFP @ " + fmt_double(tol_pct, 0) + " %",
        harness::run_repeated(cfg, reps));
  }
  t.print(std::cout);

  std::printf(
      "\nReading: static caps trade performance for power obliviously to\n"
      "the application's phases; DUFP finds a similar power point while\n"
      "bounding the slowdown (the paper's motivation, Sec. II-A).\n");
  return 0;
}
