// Performance microbenchmarks (google-benchmark): cost of the building
// blocks that run on every simulated millisecond or every control
// interval.  Keeps the simulator's throughput honest — the figure benches
// execute hundreds of millions of socket-ticks.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/agent.h"
#include "core/dufp.h"
#include "hwmodel/socket_model.h"
#include "msr/sim_msr.h"
#include "perfmon/sampler.h"
#include "perfmon/sim_counter_source.h"
#include "rapl/firmware_governor.h"
#include "rapl/rapl_engine.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"
#include "workloads/profiles.h"

using namespace dufp;

namespace {

hw::PhaseDemand bench_demand() {
  hw::PhaseDemand d;
  d.w_cpu = 0.6;
  d.w_mem = 0.3;
  d.w_unc = 0.0;
  d.w_fixed = 0.1;
  d.cpu_activity = 0.95;
  d.mem_activity = 0.8;
  d.flops_rate_ref = 50e9;
  d.bytes_rate_ref = 25e9;
  return d;
}

void BM_PowerModelForward(benchmark::State& state) {
  const hw::SocketConfig cfg;
  const hw::PowerModel model(cfg.power, cfg.cores, cfg.f_ref_mhz(),
                             cfg.fu_ref_mhz());
  const auto d = bench_demand();
  double f = 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.package_power_w(f, 2000.0, d));
    f = f >= 2800.0 ? 1000.0 : f + 100.0;
  }
}
BENCHMARK(BM_PowerModelForward);

void BM_PowerModelInverse(benchmark::State& state) {
  const hw::SocketConfig cfg;
  const hw::PowerModel model(cfg.power, cfg.cores, cfg.f_ref_mhz(),
                             cfg.fu_ref_mhz());
  const auto d = bench_demand();
  double target = 70.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.core_mhz_for_power(target, 2000.0, d));
    target = target >= 115.0 ? 70.0 : target + 5.0;
  }
}
BENCHMARK(BM_PowerModelInverse);

/// What a never-seen socket state costs the governor: ns per cold
/// cell-edge build, timed through planned_limit_mhz() and divided by the
/// builds it ran — the way scans, the closed-form build and the way
/// refill.  Each iteration nudges the demand's activity, so no way can
/// serve the edge.
void BM_CellEdgeColdBuild(benchmark::State& state) {
  const hw::SocketConfig cfg;
  hw::SocketModel socket(cfg, 0);
  rapl::FirmwareGovernor gov(socket, rapl::GovernorParams{});
  hw::PhaseDemand d = bench_demand();
  std::uint64_t nudge = 0;
  double timed_s = 0.0;
  const std::uint64_t builds_before = gov.cell_stats().cold_builds;
  for (auto _ : state) {
    d.cpu_activity = 0.9 + 1e-9 * static_cast<double>(nudge++ % 1000000);
    socket.set_demand(d);
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(gov.planned_limit_mhz());
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    state.SetIterationTime(s);
    timed_s += s;
  }
  const auto builds =
      static_cast<double>(gov.cell_stats().cold_builds - builds_before);
  state.counters["ns_per_cold_build"] =
      builds > 0.0 ? 1e9 * timed_s / builds : 0.0;
  state.counters["builds_per_iteration"] =
      builds / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CellEdgeColdBuild)->UseManualTime();

void BM_SocketEvaluate(benchmark::State& state) {
  const hw::SocketConfig cfg;
  hw::SocketModel socket(cfg, 0);
  socket.set_demand(bench_demand());
  for (auto _ : state) {
    benchmark::DoNotOptimize(socket.evaluate());
  }
}
BENCHMARK(BM_SocketEvaluate);

void BM_GovernorTick(benchmark::State& state) {
  const hw::SocketConfig cfg;
  hw::SocketModel socket(cfg, 0);
  socket.set_demand(bench_demand());
  msr::SimulatedMsr dev(cfg.cores);
  rapl::RaplEngine engine(socket, dev);
  for (auto _ : state) {
    engine.tick();
    const auto inst = socket.evaluate();
    engine.record(inst, 0.001);
    benchmark::DoNotOptimize(inst.pkg_power_w);
  }
}
BENCHMARK(BM_GovernorTick);

/// A governor on full windows under a cap `fraction` of the way from the
/// 2.0 GHz state's power to the 2.1 GHz state's, with its applied
/// state's entry filled as the engine fills it.
struct KernelRig {
  explicit KernelRig(double fraction) : socket(cfg, 0), gov(socket, params) {
    socket.set_demand(bench_demand());
    const double p_lo = socket.package_power_at(2000.0);
    const double p_hi = socket.package_power_at(2100.0);
    msr::PowerLimit pl = gov.limit();
    pl.long_term_w = p_lo + (p_hi - p_lo) * fraction;
    pl.short_term_w = pl.long_term_w;
    gov.set_limit(pl);
    for (int i = 0; i < 3000; ++i) step();  // windows full, cap biting
  }
  /// A flip tick as the engine runs one the kernel leaves: tick() +
  /// record_power(), then the new state's entry filled.
  void step() {
    gov.tick();
    const double v = socket.evaluate().pkg_power_w;
    gov.record_power(v, params.tick_s);
    gov.fill_flip_entry(v, lanes);
  }
  hw::SocketConfig cfg;
  rapl::GovernorParams params;
  hw::SocketModel socket;
  rapl::FirmwareGovernor gov;
  std::array<double, rapl::FirmwareGovernor::kFlipLanes> lanes{};
};

/// The tier-2 kernel's calm ticks alone: ns per calm tick of
/// FirmwareGovernor::calm_run on full windows under a binding cap.  The
/// cap sits a sixth of the way from the 2.0 GHz state's power to the
/// 2.1 GHz state's, so the governor settles at 2.0 GHz and every later
/// tick is calm: each iteration is one calm run of 4096 ticks that evicts
/// and pushes real window samples.  The kernel gets no room to log a
/// flip, so any flip tick ends the call and runs outside the timed region.
void BM_CalmRun(benchmark::State& state) {
  constexpr std::size_t kRun = 4096;
  KernelRig rig(1.0 / 6.0);
  double timed_s = 0.0;
  std::int64_t calm = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = rig.gov.calm_run(kRun, {});
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run.ticks);
    const double s = std::chrono::duration<double>(t1 - t0).count();
    state.SetIterationTime(s);
    timed_s += s;
    calm += static_cast<std::int64_t>(run.ticks);
    if (run.ticks < kRun) rig.step();
  }
  state.SetItemsProcessed(calm);
  state.counters["ns_per_calm_tick"] =
      calm > 0 ? 1e9 * timed_s / static_cast<double>(calm) : 0.0;
  state.counters["calm_ticks_per_run"] =
      static_cast<double>(calm) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CalmRun)->UseManualTime();

/// The tier-2 kernel under a dithering cap, flips included: the cap sits
/// halfway between the 2.0 and 2.1 GHz states' powers, so the governor
/// keeps flipping between them, and each iteration is one call of up to
/// 4096 ticks that takes those flips from the governor's entries.  Only a flip
/// into a state with no entry yet ends the call; it runs outside the
/// timed region and fills the entry.
void BM_CalmRunFlipping(benchmark::State& state) {
  constexpr std::size_t kRun = 4096;
  KernelRig rig(0.5);
  std::vector<rapl::FirmwareGovernor::Flip> log(kRun);
  double timed_s = 0.0;
  std::int64_t ticks = 0;
  std::int64_t flips = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto run = rig.gov.calm_run(kRun, log);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(run.ticks);
    benchmark::DoNotOptimize(log.data());
    const double s = std::chrono::duration<double>(t1 - t0).count();
    state.SetIterationTime(s);
    timed_s += s;
    ticks += static_cast<std::int64_t>(run.ticks);
    flips += static_cast<std::int64_t>(run.flips);
    if (run.ticks < kRun) rig.step();
  }
  state.SetItemsProcessed(ticks);
  state.counters["ns_per_tick"] =
      ticks > 0 ? 1e9 * timed_s / static_cast<double>(ticks) : 0.0;
  state.counters["flips_per_1k_ticks"] =
      ticks > 0 ? 1e3 * static_cast<double>(flips) / static_cast<double>(ticks)
                : 0.0;
}
BENCHMARK(BM_CalmRunFlipping)->UseManualTime();

/// The dithering rig with the cap moved every 200 ticks, the agent's
/// interval, among three values 1 W apart: each iteration sets the next
/// cap and runs the 200 ticks under it, so the first calm_run after a
/// move derives the thresholds of the states it meets inside the timed
/// region.  A flip into a state with no entry yet ends a call; it runs
/// outside the timed region, and the next call takes the interval's rest.
void BM_CalmRunCapSteps(benchmark::State& state) {
  constexpr std::size_t kInterval = 200;
  KernelRig rig(0.5);
  const msr::PowerLimit base = rig.gov.limit();
  std::vector<rapl::FirmwareGovernor::Flip> log(kInterval);
  double timed_s = 0.0;
  std::int64_t ticks = 0;
  int move = 0;
  for (auto _ : state) {
    msr::PowerLimit pl = base;
    const double dw = static_cast<double>(move++ % 3 - 1);
    pl.long_term_w += dw;
    pl.short_term_w += dw;
    rig.gov.set_limit(pl);
    double s = 0.0;
    for (std::size_t done = 0; done < kInterval;) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto run = rig.gov.calm_run(kInterval - done, log);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(run.ticks);
      benchmark::DoNotOptimize(log.data());
      s += std::chrono::duration<double>(t1 - t0).count();
      ticks += static_cast<std::int64_t>(run.ticks);
      done += run.ticks;
      if (done < kInterval) {
        rig.step();
        ++done;
      }
    }
    state.SetIterationTime(s);
    timed_s += s;
  }
  state.SetItemsProcessed(ticks);
  state.counters["ns_per_tick"] =
      ticks > 0 ? 1e9 * timed_s / static_cast<double>(ticks) : 0.0;
}
BENCHMARK(BM_CalmRunCapSteps)->UseManualTime();

void BM_DufpDecide(benchmark::State& state) {
  core::PolicyConfig policy;
  policy.tolerated_slowdown = 0.10;
  core::DufpController controller(policy, core::UncoreLimits{},
                                  core::CapLimits{});
  perfmon::Sample s;
  s.flops_rate = 50e9;
  s.bytes_rate = 25e9;
  s.pkg_power_w = 100.0;
  s.interval_s = 0.2;
  double wiggle = 0.0;
  for (auto _ : state) {
    s.flops_rate = 50e9 * (1.0 + 0.02 * wiggle);
    wiggle = wiggle >= 1.0 ? -1.0 : wiggle + 0.1;
    benchmark::DoNotOptimize(controller.decide(s));
  }
}
BENCHMARK(BM_DufpDecide);

/// One agent control interval (sample + decide + actuate) on a fully
/// wired single-socket rig, preceded by one millisecond of physics so
/// the counters keep moving.  The physics cost is identical in both
/// variants below, so the Instrumented/Disabled delta bounds the
/// telemetry overhead — the acceptance budget is <= 5 % per interval.
void run_agent_interval(benchmark::State& state, bool instrumented) {
  const hw::SocketConfig cfg;
  hw::SocketModel socket(cfg, 0);
  socket.set_demand(bench_demand());
  msr::SimulatedMsr dev(cfg.cores);
  rapl::RaplEngine engine(socket, dev);
  powercap::PackageZone zone(dev);
  powercap::UncoreControl uncore(dev);
  perfmon::SimCounterSource source(socket, dev);

  std::unique_ptr<telemetry::Telemetry> telem;
  if (instrumented) {
    telemetry::TelemetryConfig tc;
    tc.enabled = true;
    telem = std::make_unique<telemetry::Telemetry>(tc, 1);
  }

  core::PolicyConfig policy;
  policy.tolerated_slowdown = 0.10;
  perfmon::SamplerOptions so;
  so.noise_sigma = 0.0;
  perfmon::IntervalSampler sampler(source, cfg.core_base_mhz, Rng(3), so);
  core::Agent agent("DUFP", policy, zone, uncore,
                    std::move(sampler), nullptr,
                    telem ? &telem->socket(0) : nullptr);

  SimTime now = SimTime::zero();
  for (auto _ : state) {
    engine.tick();
    const auto inst = socket.evaluate();
    socket.accumulate(inst, 0.001);
    engine.record(inst, 0.001);
    now += policy.interval;
    agent.on_interval(now);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_AgentIntervalDisabled(benchmark::State& state) {
  run_agent_interval(state, /*instrumented=*/false);
}
BENCHMARK(BM_AgentIntervalDisabled);

void BM_AgentIntervalInstrumented(benchmark::State& state) {
  run_agent_interval(state, /*instrumented=*/true);
}
BENCHMARK(BM_AgentIntervalInstrumented);

void BM_SimulatedSecond(benchmark::State& state) {
  // Whole-stack throughput: one simulated second of one socket running
  // CG under DUFP (1000 ticks + 5 control intervals).
  const auto& prof = workloads::profile(workloads::AppId::cg);
  for (auto _ : state) {
    state.PauseTiming();
    hw::MachineConfig machine;
    machine.sockets = 1;
    sim::SimulationOptions opts;
    opts.seed = 7;
    sim::Simulation s(machine, prof, opts);
    state.ResumeTiming();
    for (int i = 0; i < 1000 && s.step(); ++i) {
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatedSecond)->Unit(benchmark::kMillisecond);

// The event-leaping tradeoff, measured as a pair on the same warm rig:
// leap_horizon() is the planner's per-decision cost ("how far can we
// jump"), step() the exact per-tick cost a leap of N ticks amortizes —
// one planner call plus N lane-add ticks replaces N full steps.  The
// pair keeps the planner honest: it runs on every leap attempt, so it
// must stay well under the step cost it saves.
void BM_LeapHorizon(benchmark::State& state) {
  const auto& prof = workloads::profile(workloads::AppId::cg);
  hw::MachineConfig machine;
  machine.sockets = 4;
  sim::SimulationOptions opts;
  opts.seed = 7;
  sim::Simulation s(machine, prof, opts);
  for (int i = 0; i < 50; ++i) s.step();  // windows filled, fixed point up
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.leap_horizon());
  }
}
BENCHMARK(BM_LeapHorizon);

void BM_PlainStep(benchmark::State& state) {
  const auto& prof = workloads::profile(workloads::AppId::cg);
  hw::MachineConfig machine;
  machine.sockets = 4;
  sim::SimulationOptions opts;
  opts.seed = 7;
  auto s = std::make_unique<sim::Simulation>(machine, prof, opts);
  for (int i = 0; i < 50; ++i) s->step();
  for (auto _ : state) {
    if (!s->step()) {
      state.PauseTiming();
      s = std::make_unique<sim::Simulation>(machine, prof, opts);
      for (int i = 0; i < 50; ++i) s->step();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_PlainStep);

}  // namespace

BENCHMARK_MAIN();
