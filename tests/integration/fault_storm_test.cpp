// Fault-storm robustness grid: every paper policy must survive a hostile
// substrate (transient EIO, denied writes, bit flips, stale/dropped
// samples, a forced energy wraparound) with no exception escaping the
// agent loop, deterministic health accounting for a fixed fault seed, and
// bit-identical results when injection is enabled but silent.
#include <gtest/gtest.h>

#include "faults/fault_plan.h"
#include "harness/runner.h"
#include "workloads/profiles.h"

namespace dufp::harness {
namespace {

RunConfig storm_config(const std::string& policy, double rate,
                       std::uint64_t fault_seed) {
  RunConfig cfg;
  cfg.profile = &workloads::profile(workloads::AppId::cg);
  cfg.machine.sockets = 1;
  cfg.seed = 21;
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = 0.10;
  if (rate > 0.0) {
    cfg.faults = faults::FaultOptions::storm(rate, fault_seed);
  }
  return cfg;
}

std::uint64_t health_sum(const HealthTotals& h) {
  return h.actuation_retries + h.actuation_failures +
         h.sample_read_failures + h.samples_rejected + h.degradations +
         h.reengagements + h.intervals_degraded;
}

void expect_health_eq(const HealthTotals& a, const HealthTotals& b) {
  EXPECT_EQ(a.actuation_retries, b.actuation_retries);
  EXPECT_EQ(a.actuation_failures, b.actuation_failures);
  EXPECT_EQ(a.sample_read_failures, b.sample_read_failures);
  EXPECT_EQ(a.samples_rejected, b.samples_rejected);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.reengagements, b.reengagements);
  EXPECT_EQ(a.intervals_degraded, b.intervals_degraded);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

TEST(FaultStormTest, EveryPaperPolicySurvivesTheStorm) {
  for (const char* policy : {"DUF", "DUFP", "DUFP-F", "DNPC"}) {
    SCOPED_TRACE(policy);
    RunResult result;
    // "No exception escapes the agent loop": the run must complete.
    ASSERT_NO_THROW(result = run_once(storm_config(policy, 0.05, 7)));
    EXPECT_GT(result.summary.exec_seconds, 0.0);
    // The storm actually reached the substrate...
    ASSERT_EQ(result.fault_stats.size(), 1u);
    EXPECT_GT(result.health.faults_injected, 0u);
    // ... and the agent visibly absorbed some of it.
    EXPECT_GT(health_sum(result.health), 0u);
  }
}

TEST(FaultStormTest, HealthCountersDeterministicForFixedFaultSeed) {
  const auto a = run_once(storm_config("DUFP", 0.05, 7));
  const auto b = run_once(storm_config("DUFP", 0.05, 7));
  EXPECT_EQ(a.summary.exec_seconds, b.summary.exec_seconds);
  EXPECT_EQ(a.summary.pkg_energy_j, b.summary.pkg_energy_j);
  expect_health_eq(a.health, b.health);
  ASSERT_EQ(a.fault_stats.size(), b.fault_stats.size());
  for (int c = 0; c < faults::kFaultClassCount; ++c) {
    EXPECT_EQ(a.fault_stats[0].count(static_cast<faults::FaultClass>(c)),
              b.fault_stats[0].count(static_cast<faults::FaultClass>(c)));
  }
}

TEST(FaultStormTest, DifferentFaultSeedsProduceDifferentStorms) {
  const auto a = run_once(storm_config("DUFP", 0.05, 7));
  const auto b = run_once(storm_config("DUFP", 0.05, 8));
  bool any_diff = a.health.faults_injected != b.health.faults_injected;
  for (int c = 0; c < faults::kFaultClassCount; ++c) {
    any_diff = any_diff ||
               a.fault_stats[0].count(static_cast<faults::FaultClass>(c)) !=
                   b.fault_stats[0].count(static_cast<faults::FaultClass>(c));
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultStormTest, ZeroRateInjectionBitIdenticalToBaseline) {
  // Interposing the decorators with all rates at zero must not perturb
  // anything: no RNG draw, no measurement change, no decision change.
  const auto baseline = run_once(storm_config("DUFP", 0.0, 0));
  auto cfg = storm_config("DUFP", 0.0, 0);
  cfg.faults.enabled = true;  // decorators in place, every rate zero
  const auto quiet = run_once(cfg);
  EXPECT_EQ(baseline.summary.exec_seconds, quiet.summary.exec_seconds);
  EXPECT_EQ(baseline.summary.pkg_energy_j, quiet.summary.pkg_energy_j);
  EXPECT_EQ(baseline.summary.dram_energy_j, quiet.summary.dram_energy_j);
  ASSERT_EQ(quiet.agent_stats.size(), 1u);
  EXPECT_EQ(baseline.agent_stats[0].cap_decreases,
            quiet.agent_stats[0].cap_decreases);
  EXPECT_EQ(baseline.agent_stats[0].uncore_decreases,
            quiet.agent_stats[0].uncore_decreases);
  EXPECT_EQ(quiet.health.faults_injected, 0u);
  EXPECT_EQ(health_sum(quiet.health), 0u);
}

TEST(FaultStormTest, ForcedEnergyWrapIsMeasurementNeutral) {
  // A forced counter wraparound relabels the raw energy values but the
  // wrap-corrected deltas — and therefore every control decision — must
  // be bit-identical to the unwrapped run.
  const auto baseline = run_once(storm_config("DUFP", 0.0, 0));
  auto cfg = storm_config("DUFP", 0.0, 0);
  cfg.faults.enabled = true;
  cfg.faults.force_energy_wrap = true;
  cfg.faults.energy_wrap_lead_j = 2.0;  // wraps within the first seconds
  const auto wrapped = run_once(cfg);
  EXPECT_EQ(baseline.summary.exec_seconds, wrapped.summary.exec_seconds);
  EXPECT_EQ(baseline.summary.pkg_energy_j, wrapped.summary.pkg_energy_j);
  EXPECT_EQ(wrapped.health.samples_rejected, 0u);
  EXPECT_EQ(wrapped.health.sample_read_failures, 0u);
}

TEST(FaultStormTest, PersistentWriteDenialDegradesAndIsCounted) {
  // An msr-safe style outage (long EPERM bursts) must trip the watchdog:
  // the socket spends intervals in the fail-safe state and the run still
  // finishes.
  auto cfg = storm_config("DUFP", 0.0, 0);
  cfg.faults.enabled = true;
  cfg.faults.write_eperm = {0.05, 1 << 20};  // once tripped, denied forever
  cfg.faults.seed = 3;
  const auto result = run_once(cfg);
  EXPECT_GT(result.summary.exec_seconds, 0.0);
  EXPECT_GT(result.health.degradations, 0u);
  EXPECT_GT(result.health.intervals_degraded, 0u);
  EXPECT_GT(result.health.actuation_failures, 0u);
}

TEST(FaultStormTest, RepeatedRunsAggregateHealthAcrossRepetitions) {
  auto cfg = storm_config("DUFP", 0.05, 7);
  const auto agg = run_repeated(cfg, 3);
  EXPECT_EQ(agg.runs, 3);
  EXPECT_GT(agg.health.faults_injected, 0u);
  EXPECT_GT(health_sum(agg.health), 0u);
  EXPECT_GT(agg.exec_seconds.mean, 0.0);
}

}  // namespace
}  // namespace dufp::harness
