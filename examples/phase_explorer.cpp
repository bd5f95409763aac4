// Phase explorer: runs one application under DUF or DUFP and prints the
// controller's view interval by interval — measured FLOPS, operational
// intensity, phase classification, the programmed uncore frequency and
// power cap, and the actions taken.  The tool of choice for understanding
// why the controller did what it did on a given workload.
//
// Usage: phase_explorer [app] [tolerance_pct] [mode:duf|dufp] [seconds]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/agent.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "perfmon/sim_counter_source.h"
#include "powercap/uncore_control.h"
#include "powercap/zone.h"
#include "sim/simulation.h"
#include "workloads/profiles.h"

using namespace dufp;

int main(int argc, char** argv) {
  const std::string app_name = argc > 1 ? argv[1] : "CG";
  const double tol_pct = argc > 2 ? std::atof(argv[2]) : 10.0;
  const std::string mode_str = argc > 3 ? argv[3] : "dufp";
  const double max_print_s = argc > 4 ? std::atof(argv[4]) : 15.0;

  const auto app = workloads::app_by_name(app_name);
  const auto& prof = workloads::profile(app);

  hw::MachineConfig machine;
  machine.sockets = 1;  // one socket is representative; all are symmetric
  sim::SimulationOptions opts;
  opts.seed = 11;
  sim::Simulation s(machine, prof, opts);

  powercap::PackageZone zone(s.msr(0));
  powercap::UncoreControl uncore(s.msr(0));
  perfmon::SimCounterSource source(s.socket(0), s.msr(0));

  core::PolicyConfig policy;
  policy.tolerated_slowdown = tol_pct / 100.0;
  perfmon::SamplerOptions so;
  so.noise_sigma = 0.001;
  perfmon::IntervalSampler sampler(source, machine.socket.core_base_mhz,
                                   s.fork_rng(0x2000), so);
  const char* policy_name = mode_str == "duf" ? "DUF" : "DUFP";
  core::Agent agent(policy_name, policy, zone, uncore, std::move(sampler));

  std::printf(
      "%7s %9s %8s %8s %7s %8s %8s %8s %7s\n", "t(s)", "GFLOP/s", "GB/s",
      "oi", "W", "MHz", "unc_tgt", "capL", "capS");

  core::AgentStats prev_stats;
  s.schedule_periodic(policy.interval, [&](SimTime now) {
    agent.on_interval(now);
    if (!agent.last_sample().has_value() || now.seconds() > max_print_s)
      return;
    const auto& smp = *agent.last_sample();
    const auto& st = agent.stats();
    std::string actions;
    if (st.uncore_decreases > prev_stats.uncore_decreases) actions += " unc-";
    if (st.uncore_increases > prev_stats.uncore_increases) actions += " unc+";
    if (st.uncore_resets > prev_stats.uncore_resets) actions += " uncR";
    if (st.cap_decreases > prev_stats.cap_decreases) actions += " cap-";
    if (st.cap_increases > prev_stats.cap_increases) actions += " cap+";
    if (st.cap_resets > prev_stats.cap_resets) actions += " capR";
    if (st.short_term_tightenings > prev_stats.short_term_tightenings)
      actions += " st:=lt";
    prev_stats = st;
    std::printf("%7.2f %9.2f %8.2f %8.3f %7.1f %8.0f %8.0f %8.1f %7.1f%s\n",
                now.seconds(), smp.flops_rate * 1e-9, smp.bytes_rate * 1e-9,
                smp.operational_intensity(), smp.pkg_power_w, smp.core_mhz,
                uncore.window_max_mhz(),
                zone.power_limit_w(powercap::ConstraintId::long_term),
                zone.power_limit_w(powercap::ConstraintId::short_term),
                actions.c_str());
  });

  const auto summary = s.run();
  std::printf(
      "\nrun: %.2f s, avg pkg %.1f W, avg dram %.1f W, energy %.1f kJ\n",
      summary.exec_seconds, summary.avg_pkg_power_w,
      summary.avg_dram_power_w, summary.total_energy_j() / 1000.0);
  const auto& st = agent.stats();
  std::printf(
      "agent: %llu intervals | uncore -%llu +%llu R%llu retry%llu | "
      "cap -%llu +%llu R%llu (overshootR %llu) st:=lt %llu\n",
      (unsigned long long)st.intervals,
      (unsigned long long)st.uncore_decreases,
      (unsigned long long)st.uncore_increases,
      (unsigned long long)st.uncore_resets,
      (unsigned long long)st.uncore_reset_retries,
      (unsigned long long)st.cap_decreases,
      (unsigned long long)st.cap_increases,
      (unsigned long long)st.cap_resets,
      (unsigned long long)st.cap_overshoot_resets,
      (unsigned long long)st.short_term_tightenings);
  return 0;
}
