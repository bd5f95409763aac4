// A/B byte-identity matrix for the event-leaping engine (DESIGN.md §7b).
//
// Every test runs the same configuration `time_leap` on vs off — without
// and with a trace sink, which changes the calm stretch's chunking — and
// compares every observable byte: full-resolution trace CSV, the %.17g
// summary digest, telemetry (Prometheus + Chrome trace + JSONL), and the
// fleet wire codec.  The leap engine's claim is not "close": it
// is bit-exact, because the fast paths execute exactly the additions the
// stepper would.  Any single-ULP drift anywhere fails these compares.
//
// The matrix mirrors the hot-path risk surface: plain reference run,
// deterministic fault storm, replayed dense trace, and a whole fleet
// node.  Two
// adversarial shapes close it out: an event on *every* tick (the leap
// planner must yield entirely to the exact stepper) and a non-1-ms tick
// (periodic deadlines divide by tick_us — the off-by-one bait).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fleet/node_run.h"
#include "fleet/plan.h"
#include "fleet/spec.h"
#include "golden_util.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "workloads/trace_replay.h"

namespace dufp::perf_test {
namespace {

/// Every deterministic byte one traced harness run emits: result_bytes
/// plus the trace CSV at full resolution.
std::string run_digest(harness::RunConfig cfg, const std::string& tag) {
  const std::string path = temp_path(tag + ".csv");
  std::string out;
  {
    sim::CsvTraceSink sink(path, /*decimation=*/1);
    cfg.trace = &sink;
    out += result_bytes(harness::run_once(cfg));
  }
  out += read_file(path);
  return out;
}

/// Runs `cfg` leap-on and leap-off, untraced and traced, and
/// byte-compares each pair; also pins that the A/B pair really was an
/// A/B pair (the on-run took a fast path, the off-run took none).  Both
/// pairs matter: a trace sink makes the calm stretch take 1-tick chunks,
/// so only the untraced pair covers the full-chunk path that grids,
/// fleets and the perf ledger run.
void expect_leap_identity(harness::RunConfig cfg, const std::string& tag,
                          bool expect_leaps = true) {
  cfg.sim.time_leap = true;
  const harness::RunResult on = harness::run_once(cfg);
  cfg.sim.time_leap = false;
  const harness::RunResult off = harness::run_once(cfg);
  EXPECT_EQ(off.batch_stats.leapt_ticks, 0)
      << "time_leap=false must disable the leap path";
  if (expect_leaps) {
    EXPECT_GT(on.batch_stats.leapt_ticks, 0)
        << "fast path never engaged — the A/B compare proved nothing";
  }
  EXPECT_EQ(on.batch_stats.leapt_ticks + on.batch_stats.stepped_ticks,
            off.batch_stats.stepped_ticks)
      << "the two runs simulated different tick counts";
  EXPECT_EQ(result_bytes(on), result_bytes(off))
      << "event leaping changed untraced bytes (" << tag << ")";

  cfg.sim.time_leap = true;
  const std::string on_bytes = run_digest(cfg, tag + "_on");
  cfg.sim.time_leap = false;
  const std::string off_bytes = run_digest(cfg, tag + "_off");
  ASSERT_FALSE(on_bytes.empty());
  EXPECT_EQ(on_bytes, off_bytes)
      << "event leaping changed observable bytes (" << tag << ")";
}

TEST(LeapIdentityTest, PlainRunBytesIdentical) {
  const auto profile = golden_profile();
  expect_leap_identity(golden_config(profile), "plain");
}

TEST(LeapIdentityTest, FaultStormBytesIdentical) {
  const auto profile = golden_profile();
  expect_leap_identity(golden_storm_config(profile), "storm");
}

TEST(LeapIdentityTest, TelemetryBytesIdentical) {
  const auto profile = golden_profile();
  harness::RunConfig cfg = golden_storm_config(profile);
  cfg.telemetry.enabled = true;
  expect_leap_identity(cfg, "telemetry");
}

// A measured-style replayed trace: every 0.2 s row becomes its own phase
// segment, the densest event stream the replay module produces — segment
// splits land inside ticks and the leap horizon must respect each one.
TEST(LeapIdentityTest, TraceReplayBytesIdentical) {
  const workloads::WorkloadProfile profile =
      workloads::profile_from_trace(dense_trace(2), {}, "leap-replay");
  harness::RunConfig cfg;
  cfg.profile = &profile;
  cfg.machine.sockets = 4;
  cfg.policy_name = "DUFP";
  cfg.tolerated_slowdown = 0.10;
  cfg.seed = 7;
  expect_leap_identity(cfg, "replay");
}

// A whole fleet node through the bit-exact wire codec: epoch records,
// energies, speeds, fault counters — the shard layer's job identity
// contract must not depend on the engine's fast paths.
TEST(LeapIdentityTest, FleetNodeRunBytesIdentical) {
  fleet::FleetSpec spec = fleet::FleetSpec::reference();
  spec.epoch_seconds = 0.5;
  spec.global_budget_w = 0.78 * 16 * 125.0;
  const fleet::AllocationPlan plan = fleet::plan_allocations(spec);
  for (const std::size_t node : {std::size_t{0}, std::size_t{2}}) {
    const fleet::FleetNodeResult on =
        fleet::run_fleet_node(spec, node, plan, /*time_leap=*/true);
    const fleet::FleetNodeResult off =
        fleet::run_fleet_node(spec, node, plan, /*time_leap=*/false);
    EXPECT_EQ(fleet::encode_node_result(on).dump(),
              fleet::encode_node_result(off).dump())
        << "fleet node " << node << " drifted under event leaping";
  }
}

// ---------------------------------------------------------------------------
// Adversarial shapes on the engine directly.

workloads::WorkloadProfile tiny_profile() {
  workloads::WorkloadProfile w("leap-tiny", "two-phase alternation");
  workloads::PhaseSpec a;
  a.name = "compute";
  a.nominal_seconds = 0.5;
  a.gflops_ref = 40.0;
  a.oi = 10.0;
  a.w_cpu = 0.9;
  a.w_mem = 0.02;
  a.w_unc = 0.0;
  a.w_fixed = 0.08;
  a.cpu_activity = 0.9;
  a.mem_activity = 0.6;
  w.add_phase(a);
  workloads::PhaseSpec b = a;
  b.name = "memory";
  b.gflops_ref = 5.0;
  b.oi = 0.1;
  b.w_cpu = 0.1;
  b.w_mem = 0.8;
  b.w_fixed = 0.1;
  w.add_phase(b);
  w.loop(2, {"compute", "memory"});
  return w;
}

void expect_same_summary(const sim::RunSummary& x, const sim::RunSummary& y) {
  EXPECT_EQ(x.exec_seconds, y.exec_seconds);
  EXPECT_EQ(x.pkg_energy_j, y.pkg_energy_j);
  EXPECT_EQ(x.dram_energy_j, y.dram_energy_j);
  EXPECT_EQ(x.total_gflop, y.total_gflop);
  EXPECT_EQ(x.total_gbytes, y.total_gbytes);
}

// An event fires on *every* tick: the leap planner and the calm-stretch
// gate must both yield — every tick goes through the exact stepper — and
// the outputs still match the leap-off engine bit for bit.
TEST(LeapIdentityTest, EveryTickEventForcesExactPath) {
  const auto prof = tiny_profile();
  hw::MachineConfig m;
  m.sockets = 2;

  auto run = [&](bool leap) {
    sim::SimulationOptions o;
    o.seed = 3;
    o.workload_jitter_sigma = 0.0;
    o.time_leap = leap;
    sim::Simulation s(m, prof, o);
    std::int64_t fires = 0;
    s.schedule_periodic(o.tick, [&fires](SimTime) { ++fires; });
    const sim::RunSummary sum = s.run();
    return std::make_tuple(sum, s.batch_stats(), fires);
  };

  const auto [on_sum, on_bs, on_fires] = run(true);
  const auto [off_sum, off_bs, off_fires] = run(false);

  EXPECT_EQ(on_bs.leapt_ticks, 0)
      << "leapt across a tick whose deadline it should have seen";
  EXPECT_EQ(on_bs.stepped_ticks, on_bs.leapt_ticks + on_bs.stepped_ticks)
      << "an every-tick event must force the exact stepper for all ticks";
  EXPECT_GT(on_fires, 0);
  EXPECT_EQ(on_fires, off_fires);
  expect_same_summary(on_sum, off_sum);
}

// Non-1-ms tick: periodic deadlines are multiples of the interval and the
// countdown divides by tick_us — this pins that the division stays exact
// (no off-by-one) when tick != 1 ms, that every firing lands exactly on
// its deadline, and that leaping still engages and changes nothing.
TEST(LeapIdentityTest, NonMillisecondTickPeriodicFiringsExact) {
  const auto prof = tiny_profile();
  hw::MachineConfig m;
  m.sockets = 2;

  for (const std::int64_t tick_ms : {2, 5}) {
    auto run = [&](bool leap) {
      sim::SimulationOptions o;
      o.tick = SimTime::from_millis(tick_ms);
      o.seed = 3;
      o.workload_jitter_sigma = 0.0;
      o.time_leap = leap;
      sim::Simulation s(m, prof, o);
      std::vector<std::int64_t> fire_us;
      // 40 ms leaves a leap-eligible gap at both tick sizes (19 ticks at
      // 2 ms, 7 at 5 ms — both above the 4-tick leap minimum).
      s.schedule_periodic(SimTime::from_millis(40),
                          [&fire_us](SimTime t) {
                            fire_us.push_back(t.micros());
                          });
      const sim::RunSummary sum = s.run();
      return std::make_tuple(sum, s.batch_stats(), fire_us);
    };

    const auto [on_sum, on_bs, on_fires] = run(true);
    const auto [off_sum, off_bs, off_fires] = run(false);

    ASSERT_FALSE(on_fires.empty());
    for (std::size_t i = 0; i < on_fires.size(); ++i) {
      EXPECT_EQ(on_fires[i], static_cast<std::int64_t>(i + 1) * 40000)
          << "periodic missed its deadline at tick=" << tick_ms << "ms";
    }
    EXPECT_EQ(on_fires, off_fires);
    EXPECT_EQ(on_bs.leapt_ticks + on_bs.stepped_ticks, off_bs.stepped_ticks);
    EXPECT_GT(on_bs.leapt_ticks, 0)
        << "leap never engaged at tick=" << tick_ms << "ms";
    expect_same_summary(on_sum, off_sum);
  }
}

}  // namespace
}  // namespace dufp::perf_test
