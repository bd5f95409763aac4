#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "golden_util.h"
#include "harness/runner.h"
#include "powercap/zone.h"
#include "workloads/profiles.h"

namespace dufp::sim {
namespace {

workloads::PhaseSpec phase(const char* name, double seconds, double gflops,
                           double oi, double w_cpu, double w_mem) {
  workloads::PhaseSpec p;
  p.name = name;
  p.nominal_seconds = seconds;
  p.gflops_ref = gflops;
  p.oi = oi;
  p.w_cpu = w_cpu;
  p.w_mem = w_mem;
  p.w_unc = 0.0;
  p.w_fixed = 1.0 - w_cpu - w_mem;
  p.cpu_activity = 0.9;
  p.mem_activity = 0.6;
  return p;
}

workloads::WorkloadProfile small_profile() {
  workloads::WorkloadProfile w("small", "two short phases");
  w.add_phase(phase("compute", 0.5, 40.0, 10.0, 0.9, 0.02));
  w.add_phase(phase("memory", 0.5, 5.0, 0.1, 0.1, 0.8));
  w.loop(3, {"compute", "memory"});
  return w;
}

SimulationOptions fast_options() {
  SimulationOptions o;
  o.seed = 3;
  o.workload_jitter_sigma = 0.0;
  return o;
}

hw::MachineConfig one_socket() {
  hw::MachineConfig m;
  m.sockets = 1;
  return m;
}

TEST(SimulationTest, RunsToCompletionInNominalTime) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  const auto sum = s.run();
  // Unconstrained run at reference speed: wall == nominal (within one
  // tick of rounding).
  EXPECT_NEAR(sum.exec_seconds, 3.0, 0.01);
  EXPECT_TRUE(s.finished());
}

TEST(SimulationTest, EnergyEqualsPowerTimesTime) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  const auto sum = s.run();
  EXPECT_NEAR(sum.pkg_energy_j,
              sum.avg_pkg_power_w * sum.exec_seconds, 1e-6);
  EXPECT_NEAR(sum.total_energy_j(),
              sum.pkg_energy_j + sum.dram_energy_j, 1e-9);
}

TEST(SimulationTest, FlopAccountingMatchesProfile) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  const auto sum = s.run();
  // 3 x (0.5 s x 40 GFLOP/s + 0.5 s x 5 GFLOP/s) = 67.5 GFLOP.
  EXPECT_NEAR(sum.total_gflop, 67.5, 0.5);
}

TEST(SimulationTest, MultiSocketScalesTotals) {
  const auto prof = small_profile();
  hw::MachineConfig m;
  m.sockets = 4;
  Simulation s(m, prof, fast_options());
  const auto sum = s.run();
  EXPECT_NEAR(sum.total_gflop, 4 * 67.5, 2.0);
  EXPECT_GT(sum.avg_pkg_power_w, 300.0);  // 4 sockets
}

TEST(SimulationTest, StepReturnsFalseExactlyAtCompletion) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  long steps = 0;
  while (s.step()) ++steps;
  EXPECT_TRUE(s.finished());
  EXPECT_NEAR(static_cast<double>(steps), 3000.0, 10.0);
  EXPECT_NEAR(s.now().seconds(), 3.0, 0.01);
}

TEST(SimulationTest, PhaseTotalsExact) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  s.run();
  const auto& totals = s.phase_totals(0);
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_NEAR(totals[0].wall_seconds, 1.5, 0.01);
  EXPECT_NEAR(totals[1].wall_seconds, 1.5, 0.01);
  EXPECT_GT(totals[0].pkg_energy_j, 0.0);
  // Phase energies sum to the run total.
  Simulation s2(one_socket(), prof, fast_options());
  const auto sum = s2.run();
  EXPECT_NEAR(totals[0].pkg_energy_j + totals[1].pkg_energy_j,
              sum.pkg_energy_j, 0.5);
}

TEST(SimulationTest, PhaseListenersSeeEveryTransition) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  std::map<std::string, int> enters;
  std::map<std::string, int> exits;
  s.add_phase_listener([&](int socket, std::size_t phase_idx, bool entered) {
    // Names are resolved at the edge; the engine hands out interned
    // indices.
    const std::string name(prof.phase_name(phase_idx));
    EXPECT_EQ(socket, 0);
    (entered ? enters[name] : exits[name])++;
  });
  s.run();
  EXPECT_EQ(enters["compute"], 3);
  EXPECT_EQ(enters["memory"], 3);
  EXPECT_EQ(exits["compute"], 3);
  EXPECT_EQ(exits["memory"], 3);
}

TEST(SimulationTest, PeriodicCallbacksFireOnSchedule) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  std::vector<double> times;
  s.schedule_periodic(SimTime::from_millis(200),
                      [&](SimTime t) { times.push_back(t.seconds()); });
  s.run();
  ASSERT_GE(times.size(), 14u);
  EXPECT_NEAR(times[0], 0.2, 1e-9);
  EXPECT_NEAR(times[1], 0.4, 1e-9);
}

TEST(SimulationTest, PeriodicMustAlignWithTick) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  EXPECT_THROW(
      s.schedule_periodic(SimTime{1500}, [](SimTime) {}),
      std::invalid_argument);
}

TEST(SimulationTest, StaticCapExtendsExecutionAndCutsPower) {
  const auto prof = small_profile();

  Simulation base(one_socket(), prof, fast_options());
  const auto b = base.run();

  Simulation capped(one_socket(), prof, fast_options());
  powercap::PackageZone zone(capped.msr(0));
  zone.set_power_limit_w(powercap::ConstraintId::long_term, 80.0);
  zone.set_power_limit_w(powercap::ConstraintId::short_term, 80.0);
  const auto c = capped.run();

  EXPECT_GT(c.exec_seconds, b.exec_seconds * 1.01);
  EXPECT_LT(c.avg_pkg_power_w, b.avg_pkg_power_w * 0.9);
}

TEST(SimulationTest, TraceSinkReceivesTicks) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  VectorTraceSink sink(1);
  s.set_trace_sink(&sink);
  s.run();
  EXPECT_NEAR(static_cast<double>(sink.entries().size()), 3000.0, 10.0);
  EXPECT_EQ(sink.entries().front().sockets.size(), 1u);
  EXPECT_GT(sink.entries().front().sockets[0].pkg_power_w, 0.0f);
}

TEST(SimulationTest, MaxSecondsGuardThrows) {
  const auto prof = small_profile();
  SimulationOptions o = fast_options();
  o.max_seconds = 0.5;  // run needs ~3 s
  Simulation s(one_socket(), prof, o);
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(SimulationTest, TickAccountingInvariantWithLeapingEnabled) {
  // With the event-leaping fast path on (the default), every simulated
  // tick is classified exactly once: covered by a calm stretch or stepped
  // exactly.
  hw::MachineConfig m;
  m.sockets = 4;
  SimulationOptions o = fast_options();
  o.workload_jitter_sigma = 0.02;
  const auto prof = small_profile();
  Simulation s(m, prof, o);
  const auto sum = s.run();
  const auto& bs = s.batch_stats();
  const auto total_ticks =
      static_cast<std::int64_t>(std::llround(sum.exec_seconds * 1000.0));
  EXPECT_EQ(bs.leapt_ticks + bs.stepped_ticks, total_ticks);
  EXPECT_GT(bs.leapt_ticks, 0) << "fast path never engaged";
}

TEST(SimulationTest, UncappedRunTakesOnlyStretchesAndSteps) {
  // 4-socket EP under DUF, which moves the uncore clock and never caps:
  // between the 200 ms control steps every socket's governor windows
  // settle on one value, the bitwise fixed point a full leap once took
  // (most of this run's ticks).  The engine has two paths, the calm
  // stretch and the exact step: leap_horizon() reads 0 before every
  // advance_once(), and the stretch carries the calm ticks.
  harness::RunConfig cfg;
  cfg.profile = &workloads::profile(workloads::AppId::ep);
  cfg.machine.sockets = 4;
  cfg.policy_name = "DUF";
  cfg.seed = 3;
  harness::PreparedRun run = harness::prepare_run(cfg);
  Simulation& s = run.simulation();
  std::int64_t calls = 0;
  do {
    ASSERT_EQ(s.leap_horizon(), 0) << "before call " << calls;
    ++calls;
  } while (s.advance_once());
  const BatchStats& bs = s.batch_stats();
  EXPECT_EQ(bs.leapt_ticks + bs.stepped_ticks,
            s.now().micros() / cfg.sim.tick.micros());
  EXPECT_GT(bs.leapt_ticks, 0) << "no tick ran in a stretch";
}

// batched_ticks outlived the socket-parallel engine only because the perf
// ledger still adds it into its tick reconciliation; it must read 0.
TEST(SimulationTest, BatchStatsZeroAfterSerialRun) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  const auto sum = s.run();
  const auto& bs = s.batch_stats();
  EXPECT_EQ(bs.batched_ticks, 0);
  const auto total_ticks =
      static_cast<std::int64_t>(std::llround(sum.exec_seconds * 1000.0));
  EXPECT_EQ(bs.leapt_ticks + bs.stepped_ticks, total_ticks);
}

/// Counts rows and keeps nothing: attaching any sink is what switches the
/// calm stretch to 1-tick chunks.
class CountingSink final : public TraceSink {
 public:
  void on_tick(SimTime, const std::vector<TickRecord>&) override { ++rows; }
  std::int64_t rows = 0;
};

void expect_same_stats(const BatchStats& a, const BatchStats& b) {
  EXPECT_EQ(a.batched_ticks, b.batched_ticks);
  EXPECT_EQ(a.leaps, b.leaps);
  EXPECT_EQ(a.leapt_ticks, b.leapt_ticks);
  EXPECT_EQ(a.stepped_ticks, b.stepped_ticks);
  EXPECT_EQ(a.max_leap, b.max_leap);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.flip_ticks, b.flip_ticks);
  EXPECT_EQ(a.boundary_ticks, b.boundary_ticks);
}

/// Runs `cfg` untraced (full stretch chunks) and traced (1-tick chunks)
/// and checks that both classify every tick the same way; returns the
/// untraced run's stats.
BatchStats expect_stats_independent_of_chunking(harness::RunConfig cfg) {
  cfg.trace = nullptr;
  const harness::RunResult untraced = harness::run_once(cfg);
  CountingSink sink;
  cfg.trace = &sink;
  const harness::RunResult traced = harness::run_once(cfg);
  expect_same_stats(untraced.batch_stats, traced.batch_stats);
  EXPECT_EQ(sink.rows, traced.batch_stats.leapt_ticks +
                           traced.batch_stats.stepped_ticks);
  EXPECT_EQ(untraced.summary.exec_seconds, traced.summary.exec_seconds);
  EXPECT_EQ(untraced.summary.pkg_energy_j, traced.summary.pkg_energy_j);
  return untraced.batch_stats;
}

TEST(SimulationTest, StretchChunksCarryCalmRunsAcrossBoundaries) {
  // Uncapped EP baseline: no controller, so nothing bounds the stretch
  // but EP's long phase.  Its longest all-calm run spans several chunks,
  // so leaps / max_leap only match the traced run if the run is carried
  // across every chunk boundary.
  harness::RunConfig ep;
  ep.profile = &workloads::profile(workloads::AppId::ep);
  ep.machine.sockets = 4;
  ep.seed = 3;
  const BatchStats bs = expect_stats_independent_of_chunking(ep);
  EXPECT_GT(bs.max_leap, Simulation::kStretchChunk)
      << "no calm run crossed a chunk boundary";
}

TEST(SimulationTest, StretchChunksKeepStatsUnderFaultStorm) {
  // DUFP agents and a fault storm: caps move, sockets flip inside
  // stretches, and sockets cross phase boundaries inside them.
  const auto profile = perf_test::golden_profile();
  const BatchStats bs = expect_stats_independent_of_chunking(
      perf_test::golden_storm_config(profile));
  EXPECT_GT(bs.flip_ticks, 0) << "no flip tick ran inside a stretch";
  EXPECT_GT(bs.boundary_ticks, 0) << "no boundary tick ran inside a stretch";
  EXPECT_GT(bs.leaps, 0);
}

TEST(SimulationTest, ForkRngIndependentPerTag) {
  const auto prof = small_profile();
  Simulation s(one_socket(), prof, fast_options());
  Rng a = s.fork_rng(1);
  Rng b = s.fork_rng(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace dufp::sim
