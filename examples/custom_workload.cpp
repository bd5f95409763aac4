// Custom workload: build an application model from a config file (or
// generate a random one) and run it under DUF / DUFP — how a user would
// study their own application's phase behaviour with this library.
//
// Usage:
//   custom_workload                         # random workload
//   custom_workload my_workload.conf 10     # from config, 10 % tolerance
//
// Config format (one phase per `phase.<n>.*` group, executed round-robin
// `loops` times):
//   loops = 20
//   phase.0.name     = stream
//   phase.0.seconds  = 0.8
//   phase.0.gflops   = 6.0
//   phase.0.oi       = 0.08
//   phase.0.w_cpu    = 0.1
//   phase.0.w_mem    = 0.8
//   phase.0.w_unc    = 0.04
//   phase.0.cpu_act  = 0.8
//   phase.0.mem_act  = 1.0
//   phase.1.name     = kernel
//   ...
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/config.h"
#include "common/rng.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "workloads/generator.h"

using namespace dufp;

namespace {

workloads::WorkloadProfile from_config(const Config& cfg) {
  workloads::WorkloadProfile w("custom", "user-defined workload");
  std::vector<std::string> names;
  for (int i = 0;; ++i) {
    const std::string prefix = "phase." + std::to_string(i) + ".";
    if (!cfg.has(prefix + "name")) break;
    workloads::PhaseSpec p;
    p.name = cfg.get_string(prefix + "name", "");
    p.nominal_seconds = cfg.get_double(prefix + "seconds", 1.0);
    p.gflops_ref = cfg.get_double(prefix + "gflops", 10.0);
    p.oi = cfg.get_double(prefix + "oi", 1.0);
    p.w_cpu = cfg.get_double(prefix + "w_cpu", 0.5);
    p.w_mem = cfg.get_double(prefix + "w_mem", 0.3);
    p.w_unc = cfg.get_double(prefix + "w_unc", 0.1);
    p.w_fixed = 1.0 - p.w_cpu - p.w_mem - p.w_unc;
    p.cpu_activity = cfg.get_double(prefix + "cpu_act", 0.9);
    p.mem_activity = cfg.get_double(prefix + "mem_act", 0.8);
    w.add_phase(p);
    names.push_back(p.name);
  }
  if (names.empty()) {
    throw std::runtime_error("config defines no phases (phase.0.name = ...)");
  }
  w.loop(static_cast<int>(cfg.get_int("loops", 20)), names);
  return w;
}

workloads::WorkloadProfile random_profile() {
  Rng rng(2024);
  workloads::GeneratorSpec spec;
  spec.phase_count = 4;
  spec.sequence_length = 40;
  spec.min_phase_seconds = 0.3;
  spec.max_phase_seconds = 1.5;
  return workloads::generate_workload(spec, rng, "random");
}

}  // namespace

int main(int argc, char** argv) {
  const double tol = (argc > 2 ? std::atof(argv[2]) : 10.0) / 100.0;

  workloads::WorkloadProfile prof;
  try {
    prof = argc > 1 ? from_config(Config::load(argv[1])) : random_profile();
    prof.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("Workload '%s': %zu phases, %zu steps, %.1f s nominal\n\n",
              prof.name().c_str(), prof.phases().size(),
              prof.sequence().size(), prof.nominal_total_seconds());
  TextTable phases({"phase", "seconds", "GFLOP/s", "oi", "w_cpu", "w_mem",
                    "w_unc"});
  for (const auto& p : prof.phases()) {
    phases.add_row(p.name, {p.nominal_seconds, p.gflops_ref, p.oi, p.w_cpu,
                            p.w_mem, p.w_unc});
  }
  phases.print(std::cout);

  harness::RunConfig cfg = harness::default_run_config(prof);
  cfg.seed = 23;
  const int reps = 3;

  cfg.policy_name = "";  // the default configuration: no controller
  const auto def = harness::run_repeated(cfg, reps);
  cfg.policy_name = "DUF";
  cfg.tolerated_slowdown = tol;
  const auto duf = harness::run_repeated(cfg, reps);
  cfg.policy_name = "DUFP";
  const auto dufp = harness::run_repeated(cfg, reps);

  std::printf("\nResults at %.0f %% tolerated slowdown:\n", tol * 100.0);
  TextTable t({"config", "time (s)", "slowdown %", "power (W)",
               "savings %", "energy change %"});
  auto add = [&](const char* label, const harness::RepeatedResult& r) {
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
  add("DUF", duf);
  add("DUFP", dufp);
  t.print(std::cout);
  return 0;
}
