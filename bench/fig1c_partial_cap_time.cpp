// Fig. 1c: total execution time under partial capping of CG's prologue.
//
// Companion to Fig. 1b: capping the memory-intensive first phase — even
// to 100 W — must not change CG's overall execution time, which is the
// paper's argument that phase-aware dynamic capping is free on
// memory-bound phases (Sec. II-A).
#include <iostream>

#include "bench_util.h"

using namespace dufp;

int main() {
  bench::print_banner(
      "Fig. 1c: total execution time with partial power capping",
      "Fig. 1c (Sec. II-A)");

  const auto& cg = workloads::profile(workloads::AppId::cg);
  const int reps = harness::BenchOptions::from_env().repetitions;

  harness::RunConfig base = harness::default_run_config(cg);
  base.seed = 103;

  struct Config {
    const char* label;
    std::optional<double> cap;
  };
  const Config configs[] = {
      {"default", std::nullopt},
      {"phase cap 110 W on init", 110.0},
      {"phase cap 100 W on init", 100.0},
  };

  std::optional<harness::RepeatedResult> def;
  TextTable t({"configuration", "exec time (s)", "time ratio",
               "overhead %"});
  for (const auto& c : configs) {
    harness::note_progress(c.label);
    harness::RunConfig cfg = base;
    if (c.cap.has_value()) {
      cfg.phase_cap = harness::PhaseCapSpec{"init", *c.cap};
    }
    const auto r = harness::run_repeated(cfg, reps);
    if (!def) def = r;
    const double ratio = r.exec_seconds.mean / def->exec_seconds.mean;
    t.add_row({c.label, fmt_double(r.exec_seconds.mean, 3),
               fmt_double(ratio, 4),
               fmt_double((ratio - 1.0) * 100.0, 2)});
  }
  t.print(std::cout);

  std::printf(
      "\nPaper's observation: reducing the power budget of the first\n"
      "phase does not impact the overall execution time at all.\n");
  return 0;
}
