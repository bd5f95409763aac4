// Telemetry wired through the harness: enabling it must be bit-identical
// to the disabled run (it draws no randomness and changes no decision),
// every watchdog fail-open must produce a bounded flight dump, and the
// registry must agree with the agents' own stats snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "faults/fault_plan.h"
#include "harness/runner.h"
#include "telemetry/telemetry.h"
#include "workloads/profiles.h"

namespace dufp::harness {
namespace {

RunConfig base_config(const std::string& policy) {
  RunConfig cfg;
  cfg.profile = &workloads::profile(workloads::AppId::cg);
  cfg.machine.sockets = 1;
  cfg.seed = 21;
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = 0.10;
  return cfg;
}

/// The fail-open recipe: a permanently tripped msr-safe style write
/// denial degrades the socket deterministically.
RunConfig degrading_config() {
  RunConfig cfg = base_config("DUFP");
  cfg.faults.enabled = true;
  cfg.faults.write_eperm = {0.05, 1 << 20};
  cfg.faults.seed = 3;
  return cfg;
}

double metric_value(const telemetry::TelemetrySnapshot& snap,
                    const std::string& name) {
  double total = 0.0;
  bool found = false;
  for (const auto& m : snap.metrics) {
    if (m.name == name) {
      total += m.value;
      found = true;
    }
  }
  EXPECT_TRUE(found) << "metric not registered: " << name;
  return total;
}

TEST(TelemetryRunTest, EnabledRunBitIdenticalToDisabled) {
  const auto off = run_once(base_config("DUFP"));
  auto cfg = base_config("DUFP");
  cfg.telemetry.enabled = true;
  const auto on = run_once(cfg);

  EXPECT_EQ(off.summary.exec_seconds, on.summary.exec_seconds);
  EXPECT_EQ(off.summary.pkg_energy_j, on.summary.pkg_energy_j);
  EXPECT_EQ(off.summary.dram_energy_j, on.summary.dram_energy_j);
  ASSERT_EQ(off.agent_stats.size(), on.agent_stats.size());
  for (std::size_t i = 0; i < off.agent_stats.size(); ++i) {
    EXPECT_EQ(off.agent_stats[i].intervals, on.agent_stats[i].intervals);
    EXPECT_EQ(off.agent_stats[i].uncore_decreases,
              on.agent_stats[i].uncore_decreases);
    EXPECT_EQ(off.agent_stats[i].uncore_increases,
              on.agent_stats[i].uncore_increases);
    EXPECT_EQ(off.agent_stats[i].cap_decreases,
              on.agent_stats[i].cap_decreases);
    EXPECT_EQ(off.agent_stats[i].cap_increases,
              on.agent_stats[i].cap_increases);
    EXPECT_EQ(off.agent_stats[i].short_term_tightenings,
              on.agent_stats[i].short_term_tightenings);
  }
  EXPECT_FALSE(off.telemetry.has_value());
  ASSERT_TRUE(on.telemetry.has_value());
}

TEST(TelemetryRunTest, EnabledRunBitIdenticalUnderAFaultStorm) {
  // Same discipline with injection active: telemetry must not perturb the
  // fault streams either.
  const auto off = run_once(degrading_config());
  auto cfg = degrading_config();
  cfg.telemetry.enabled = true;
  const auto on = run_once(cfg);
  EXPECT_EQ(off.summary.exec_seconds, on.summary.exec_seconds);
  EXPECT_EQ(off.summary.pkg_energy_j, on.summary.pkg_energy_j);
  EXPECT_EQ(off.health.degradations, on.health.degradations);
  EXPECT_EQ(off.health.actuation_failures, on.health.actuation_failures);
  EXPECT_EQ(off.health.faults_injected, on.health.faults_injected);
}

TEST(TelemetryRunTest, RegistryAgreesWithAgentStats) {
  auto cfg = base_config("DUFP");
  cfg.telemetry.enabled = true;
  const auto res = run_once(cfg);
  ASSERT_TRUE(res.telemetry.has_value());
  const auto& snap = *res.telemetry;
  ASSERT_EQ(res.agent_stats.size(), 1u);
  const auto& st = res.agent_stats[0];

  EXPECT_EQ(metric_value(snap, "dufp_agent_intervals_total"),
            static_cast<double>(st.intervals));
  EXPECT_EQ(metric_value(snap, "dufp_agent_uncore_decreases_total"),
            static_cast<double>(st.uncore_decreases));
  EXPECT_EQ(metric_value(snap, "dufp_agent_cap_decreases_total"),
            static_cast<double>(st.cap_decreases));
  // Accepted samples are exactly the intervals that produced a decision.
  EXPECT_EQ(metric_value(snap, "dufp_sampler_samples_total"),
            static_cast<double>(st.intervals));
  // Run-summary gauges registered by the harness after the run.
  EXPECT_EQ(metric_value(snap, "dufp_run_exec_seconds"),
            res.summary.exec_seconds);
  EXPECT_EQ(metric_value(snap, "dufp_run_pkg_energy_joules"),
            res.summary.pkg_energy_j);
  // An active agent leaves a non-empty flight ring.
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_FALSE(snap.events[0].empty());
  EXPECT_TRUE(std::is_sorted(snap.events[0].begin(), snap.events[0].end(),
                             [](const telemetry::Event& a,
                                const telemetry::Event& b) {
                               return a.t_us < b.t_us;
                             }));
}

TEST(TelemetryRunTest, EveryFailOpenProducesABoundedDump) {
  auto cfg = degrading_config();
  cfg.telemetry.enabled = true;
  const auto res = run_once(cfg);
  ASSERT_TRUE(res.telemetry.has_value());
  const auto& snap = *res.telemetry;
  ASSERT_GT(res.health.degradations, 0u);

  // dumps taken + dumps suppressed == watchdog fail-opens.
  const double taken = metric_value(snap, "dufp_flight_dumps_total");
  const double suppressed =
      metric_value(snap, "dufp_flight_dumps_suppressed_total");
  EXPECT_EQ(taken + suppressed, static_cast<double>(res.health.degradations));
  EXPECT_EQ(snap.dumps.size(), static_cast<std::size_t>(taken));
  ASSERT_FALSE(snap.dumps.empty());
  for (const auto& d : snap.dumps) {
    EXPECT_EQ(d.socket, 0);
    EXPECT_GT(d.at_us, 0);
    ASSERT_FALSE(d.events.empty());
    EXPECT_LE(d.events.size(), cfg.telemetry.flight_capacity);
    // The newest event in the dump is the fail_open itself.
    EXPECT_EQ(d.events.back().kind, telemetry::EventKind::fail_open);
  }
}

TEST(TelemetryRunTest, MaxDumpsBoundsRetention) {
  auto cfg = degrading_config();
  cfg.telemetry.enabled = true;
  cfg.telemetry.max_dumps = 1;
  const auto res = run_once(cfg);
  ASSERT_TRUE(res.telemetry.has_value());
  EXPECT_LE(res.telemetry->dumps.size(), 1u);
  if (res.health.degradations > 1u) {
    EXPECT_GT(metric_value(*res.telemetry,
                           "dufp_flight_dumps_suppressed_total"),
              0.0);
  }
}

TEST(TelemetryRunTest, ConfigValidation) {
  telemetry::TelemetryConfig bad;
  bad.flight_capacity = 0;
  EXPECT_FALSE(bad.validate().empty());
  EXPECT_THROW(telemetry::Telemetry(bad, 1), std::invalid_argument);

  // The harness prefixes nested problems with "telemetry.".
  auto cfg = base_config("DUFP");
  cfg.telemetry.enabled = true;
  cfg.telemetry.flight_capacity = 0;
  const auto problems = cfg.validate();
  ASSERT_FALSE(problems.empty());
  bool prefixed = false;
  for (const auto& p : problems) {
    prefixed = prefixed || p.rfind("telemetry.", 0) == 0;
  }
  EXPECT_TRUE(prefixed);
  EXPECT_THROW(run_once(cfg), std::invalid_argument);
}

TEST(TelemetryRunTest, DisabledConfigIsNeverConstructed) {
  // telemetry.enabled=false with an otherwise-invalid telemetry config
  // must not trip validation — nothing below the switch is constructed.
  auto cfg = base_config("DUFP");
  cfg.telemetry.enabled = false;
  cfg.telemetry.flight_capacity = 0;
  EXPECT_TRUE(cfg.validate().empty());
  const auto res = run_once(cfg);
  EXPECT_FALSE(res.telemetry.has_value());
}

}  // namespace
}  // namespace dufp::harness
