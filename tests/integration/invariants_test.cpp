// Safety-net property tests: across arbitrary generated workloads and
// every policy, the system must never leave its physical envelope —
// actuators inside hardware ranges, power non-negative and bounded,
// energy consistent with power x time, counters monotone.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "msr/registers.h"
#include "perfmon/sim_counter_source.h"
#include "sim/trace.h"
#include "workloads/generator.h"
#include "workloads/profiles.h"

namespace dufp::harness {
namespace {

class InvariantSink final : public sim::TraceSink {
 public:
  void on_tick(SimTime, const std::vector<sim::TickRecord>& sockets) override {
    for (const auto& r : sockets) {
      min_core = std::min(min_core, double(r.core_mhz));
      max_core = std::max(max_core, double(r.core_mhz));
      min_uncore = std::min(min_uncore, double(r.uncore_mhz));
      max_uncore = std::max(max_uncore, double(r.uncore_mhz));
      min_cap = std::min(min_cap, double(r.cap_long_w));
      max_cap = std::max(max_cap, double(r.cap_long_w));
      max_power = std::max(max_power, double(r.pkg_power_w));
      min_power = std::min(min_power, double(r.pkg_power_w));
      min_speed = std::min(min_speed, double(r.speed));
    }
  }

  double min_core = 1e18, max_core = 0;
  double min_uncore = 1e18, max_uncore = 0;
  double min_cap = 1e18, max_cap = 0;
  double min_power = 1e18, max_power = 0;
  double min_speed = 1e18;
};

struct SweepCase {
  const char* policy;  ///< registry name; "" is the baseline
  int seed;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "policy=" << (*c.policy == '\0' ? "default" : c.policy)
      << ",seed=" << c.seed;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const char* policy : {"", "DUF", "DUFP", "DUFP-F", "DNPC"}) {
    for (int seed : {1, 2, 3}) cases.push_back({policy, seed});
  }
  return cases;
}

class InvariantSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(InvariantSweep, PhysicalEnvelopeNeverViolated) {
  const auto [policy, seed] = GetParam();

  Rng rng(static_cast<std::uint64_t>(seed) * 1234567 + 1);
  workloads::GeneratorSpec spec;
  spec.phase_count = 4;
  spec.sequence_length = 25;
  spec.min_phase_seconds = 0.15;
  spec.max_phase_seconds = 1.2;
  const auto prof = workloads::generate_workload(
      spec, rng, "inv" + std::to_string(seed));

  RunConfig cfg;
  cfg.profile = &prof;
  cfg.machine.sockets = 1;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = 0.10;
  InvariantSink sink;
  cfg.trace = &sink;

  const auto res = run_once(cfg);

  // Actuators inside hardware ranges.
  EXPECT_GE(sink.min_core, 1000.0);
  EXPECT_LE(sink.max_core, 2800.0);
  EXPECT_GE(sink.min_uncore, 1200.0);
  EXPECT_LE(sink.max_uncore, 2400.0);

  // The cap never leaves [policy floor, hardware default].
  EXPECT_GE(sink.min_cap, 65.0 - 1e-6);
  EXPECT_LE(sink.max_cap, 125.0 + 1e-6);

  // Power plausible: above the idle floor, and the long-term average
  // must respect the budget even if instants exceed it briefly.
  EXPECT_GT(sink.min_power, 10.0);
  EXPECT_LT(sink.max_power, 160.0);  // short-term ceiling + slack
  EXPECT_LE(res.summary.avg_pkg_power_w, 126.5);

  // Progress is always forward.
  EXPECT_GT(sink.min_speed, 0.0);

  // Energy bookkeeping is exact.
  EXPECT_NEAR(res.summary.pkg_energy_j,
              res.summary.avg_pkg_power_w * res.summary.exec_seconds,
              1e-6 * res.summary.pkg_energy_j + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(PoliciesAndSeeds, InvariantSweep,
                         ::testing::ValuesIn(sweep_cases()));

TEST(CounterInvariantsTest, CountersMonotoneThroughPolicyRun) {
  const auto& prof = workloads::profile(workloads::AppId::ft);
  RunConfig cfg;
  cfg.profile = &prof;
  cfg.machine.sockets = 1;
  cfg.seed = 9;
  cfg.policy_name = "DUFP";
  cfg.tolerated_slowdown = 0.10;

  sim::SimulationOptions opts = cfg.sim;
  opts.seed = cfg.seed;
  sim::Simulation s(cfg.machine, prof, opts);
  perfmon::SimCounterSource src(s.socket(0), s.msr(0));

  std::uint64_t last_flops = 0;
  std::uint64_t last_bytes = 0;
  std::uint64_t last_aperf = 0;
  int ticks = 0;
  while (s.step() && ticks < 5000) {
    ++ticks;
    if (ticks % 100 != 0) continue;
    const auto flops = src.read(perfmon::Event::fp_ops);
    const auto bytes = src.read(perfmon::Event::dram_bytes);
    const auto aperf = src.read(perfmon::Event::aperf_cycles);
    ASSERT_GE(flops, last_flops);
    ASSERT_GE(bytes, last_bytes);
    ASSERT_GT(aperf, last_aperf);  // cycles always advance
    last_flops = flops;
    last_bytes = bytes;
    last_aperf = aperf;
  }
  EXPECT_GT(last_flops, 0ull);
}

}  // namespace
}  // namespace dufp::harness
