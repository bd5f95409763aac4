// Fig. 1b: partial power capping of CG's memory-intensive prologue.
//
// The cap (110 W / 100 W, uncore scaling active) is applied only while
// the `init` phase runs — about 5 % of the execution — and reset to the
// default as soon as it completes (Sec. II-A).  The figure reports the
// power consumed by the *studied phase* as a ratio over the processor
// budget.
#include <iostream>

#include "bench_util.h"

using namespace dufp;

int main() {
  bench::print_banner(
      "Fig. 1b: power of CG's memory phase under partial capping",
      "Fig. 1b (Sec. II-A)");

  const auto& cg = workloads::profile(workloads::AppId::cg);
  const int reps = harness::BenchOptions::from_env().repetitions;

  harness::RunConfig base = harness::default_run_config(cg);
  base.seed = 102;
  const double budget_w =
      base.machine.socket.long_term_default_w * base.machine.sockets;

  struct Config {
    const char* label;
    const char* policy;  ///< registry name; "" = no controller
    std::optional<double> cap;
  };
  const Config configs[] = {
      {"default", "", std::nullopt},
      {"uncore freq. scaling (DUF)", "DUF", std::nullopt},
      {"DUF + phase cap 110 W", "DUF", 110.0},
      {"DUF + phase cap 100 W", "DUF", 100.0},
  };

  TextTable t({"configuration", "phase power (W)", "phase power / budget",
               "phase savings vs budget %", "phase duration (s)"});
  for (const auto& c : configs) {
    harness::note_progress(c.label);
    harness::RunConfig cfg = base;
    cfg.policy_name = c.policy;
    cfg.tolerated_slowdown = 0.05;
    if (c.cap.has_value()) {
      cfg.phase_cap = harness::PhaseCapSpec{"init", *c.cap};
    }
    const auto r = harness::run_repeated(cfg, reps);
    const auto& init = r.mean_phase_totals.at("init");
    const double phase_power = init.pkg_energy_j / init.wall_seconds;
    t.add_row({c.label, fmt_double(phase_power, 1),
               fmt_double(phase_power / budget_w, 3),
               fmt_double((1.0 - phase_power / budget_w) * 100.0, 2),
               fmt_double(init.wall_seconds, 2)});
  }
  t.print(std::cout);

  std::printf(
      "\nPaper's observations: the studied phase consumes close to the\n"
      "full budget by default; a 110 W / 100 W cap cuts its power by\n"
      "~16 %% / ~19 %% over the budget, more than uncore scaling alone.\n");
  return 0;
}
