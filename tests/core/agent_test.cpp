#include "core/agent.h"

#include <gtest/gtest.h>

#include "faults/fault_plan.h"
#include "faults/faulty_msr.h"
#include "hwmodel/socket_model.h"
#include "msr/sim_msr.h"
#include "perfmon/sim_counter_source.h"
#include "rapl/rapl_engine.h"

namespace dufp::core {
namespace {

hw::PhaseDemand demand(double w_cpu, double w_mem, double gflops,
                       double gbps, double cpu_act, double mem_act) {
  hw::PhaseDemand d;
  d.w_cpu = w_cpu;
  d.w_mem = w_mem;
  d.w_unc = 0.0;
  d.w_fixed = 1.0 - w_cpu - w_mem;
  d.flops_rate_ref = gflops * 1e9;
  d.bytes_rate_ref = gbps * 1e9;
  d.cpu_activity = cpu_act;
  d.mem_activity = mem_act;
  return d;
}

/// A fully wired single-socket rig driven manually at 1 ms ticks.
class AgentTest : public ::testing::Test {
 protected:
  AgentTest()
      : socket_(cfg_, 0),
        dev_(cfg_.cores),
        engine_(socket_, dev_),
        zone_(dev_),
        uncore_(dev_) {}

  Agent make_agent(const std::string& policy_name, double tolerance) {
    PolicyConfig policy;
    policy.tolerated_slowdown = tolerance;
    perfmon::SamplerOptions so;
    so.noise_sigma = 0.0;
    perfmon::IntervalSampler sampler(source_, cfg_.core_base_mhz, Rng(3),
                                     so);
    return Agent(policy_name, policy, zone_, uncore_, std::move(sampler));
  }

  /// Advances `intervals` control intervals (200 ms each) of simulated
  /// execution under the current demand.
  void run(Agent& agent, int intervals) {
    for (int i = 0; i < intervals; ++i) {
      for (int ms = 0; ms < 200; ++ms) {
        engine_.tick();
        const auto inst = socket_.evaluate();
        socket_.accumulate(inst, 0.001);
        engine_.record(inst, 0.001);
        now_ += SimTime::from_millis(1);
      }
      agent.on_interval(now_);
    }
  }

  hw::SocketConfig cfg_;
  hw::SocketModel socket_;
  msr::SimulatedMsr dev_;
  rapl::RaplEngine engine_;
  powercap::PackageZone zone_;
  powercap::UncoreControl uncore_;
  perfmon::SimCounterSource source_{socket_, dev_};
  SimTime now_ = SimTime::zero();
};

TEST_F(AgentTest, CapturesHardwareDefaults) {
  auto agent = make_agent("DUFP", 0.10);
  EXPECT_DOUBLE_EQ(agent.default_long_w(), 125.0);
  EXPECT_DOUBLE_EQ(agent.default_short_w(), 150.0);
}

TEST_F(AgentTest, FirstIntervalOnlyEstablishesBaseline) {
  auto agent = make_agent("DUFP", 0.10);
  socket_.set_demand(demand(0.9, 0.05, 50, 5, 1.0, 0.3));
  run(agent, 1);
  EXPECT_EQ(agent.stats().intervals, 0u);
  EXPECT_FALSE(agent.last_sample().has_value());
  EXPECT_DOUBLE_EQ(uncore_.window_max_mhz(), 2400.0);
}

TEST_F(AgentTest, DufModePinsUncoreDownOnInsensitiveWorkload) {
  auto agent = make_agent("DUF", 0.10);
  socket_.set_demand(demand(0.9, 0.01, 96, 0.24, 1.0, 0.1));  // EP-like
  run(agent, 20);
  EXPECT_LT(uncore_.window_max_mhz(), 1500.0);
  EXPECT_DOUBLE_EQ(uncore_.window_min_mhz(), uncore_.window_max_mhz());
  EXPECT_GT(agent.stats().uncore_decreases, 8u);
  // DUF mode never touches the cap.
  EXPECT_DOUBLE_EQ(zone_.power_limit_w(powercap::ConstraintId::long_term),
                   125.0);
  EXPECT_EQ(agent.stats().cap_decreases, 0u);
}

TEST_F(AgentTest, DufpModeLowersCap) {
  auto agent = make_agent("DUFP", 0.10);
  socket_.set_demand(demand(0.3, 0.6, 10, 80, 0.9, 1.0));  // CG-like
  run(agent, 12);
  EXPECT_LT(zone_.power_limit_w(powercap::ConstraintId::long_term), 125.0);
  // Decreases program both constraints to the same value.
  EXPECT_DOUBLE_EQ(zone_.power_limit_w(powercap::ConstraintId::long_term),
                   zone_.power_limit_w(powercap::ConstraintId::short_term));
  EXPECT_GT(agent.stats().cap_decreases, 3u);
}

TEST_F(AgentTest, StatsCountIntervals) {
  auto agent = make_agent("DUFP", 0.10);
  socket_.set_demand(demand(0.5, 0.4, 20, 30, 0.9, 0.9));
  run(agent, 5);
  EXPECT_EQ(agent.stats().intervals, 4u);  // first was baseline
  EXPECT_TRUE(agent.last_sample().has_value());
  EXPECT_GT(agent.last_sample()->pkg_power_w, 50.0);
}

TEST_F(AgentTest, PhaseChangeResetsCapAndUncore) {
  auto agent = make_agent("DUFP", 0.10);
  socket_.set_demand(demand(0.2, 0.7, 5, 60, 0.8, 1.0));  // memory (oi .08)
  run(agent, 10);
  const double cap_before =
      zone_.power_limit_w(powercap::ConstraintId::long_term);
  EXPECT_LT(cap_before, 125.0);
  // Switch to a compute phase: OI class flips -> reset.
  socket_.set_demand(demand(0.9, 0.02, 60, 6, 1.0, 0.3));
  run(agent, 2);
  EXPECT_GE(agent.stats().cap_resets, 1u);
  // The reset restored the defaults; the controller may already have
  // started probing the new phase, so allow one step of re-descent.
  EXPECT_GE(zone_.power_limit_w(powercap::ConstraintId::long_term), 120.0);
  EXPECT_GT(zone_.power_limit_w(powercap::ConstraintId::long_term),
            cap_before);
  EXPECT_GE(uncore_.window_max_mhz(), 2300.0);
}

TEST_F(AgentTest, ResetRestoresTimeWindows) {
  auto agent = make_agent("DUFP", 0.10);
  const auto default_window = zone_.time_window_us(0);
  socket_.set_demand(demand(0.2, 0.7, 5, 60, 0.8, 1.0));
  run(agent, 10);
  socket_.set_demand(demand(0.9, 0.02, 60, 6, 1.0, 0.3));
  run(agent, 2);
  EXPECT_EQ(zone_.time_window_us(0), default_window);
}

TEST_F(AgentTest, InteractionRule2RetriesUncoreResetWhenNotAtMax) {
  auto agent = make_agent("DUFP", 0.10);
  socket_.set_demand(demand(0.2, 0.7, 5, 60, 0.8, 1.0));
  run(agent, 10);
  // Make the uncore appear stuck below max (the cap's effect still
  // visible, as the paper describes): override the perf-status register.
  dev_.define_dynamic(msr::kMsrUncorePerfStatus,
                      [](int) { return msr::encode_uncore_perf_status(20); });
  socket_.set_demand(demand(0.9, 0.02, 60, 6, 1.0, 0.3));  // phase change
  run(agent, 2);
  EXPECT_GE(agent.stats().uncore_reset_retries, 1u);
}

TEST_F(AgentTest, ShortTermTightenedWhenPowerBelowCap) {
  auto agent = make_agent("DUFP", 0.10);
  socket_.set_demand(demand(0.5, 0.3, 20, 30, 0.6, 0.5));  // ~90 W
  run(agent, 3);
  EXPECT_GE(agent.stats().short_term_tightenings, 1u);
}

TEST_F(AgentTest, DufpRespectsToleranceOnCgLikeWorkload) {
  auto agent = make_agent("DUFP", 0.10);
  socket_.set_demand(demand(0.3, 0.6, 10, 80, 0.9, 1.0));
  run(agent, 40);
  // Steady state: the observed FLOPS stay within tolerance + error band.
  const auto inst = socket_.evaluate();
  EXPECT_GT(inst.speed, 1.0 - 0.10 - 0.02);
}

// ---------------------------------------------------------------------------
// Watchdog / fail-safe behaviour under an injected MSR outage.
// ---------------------------------------------------------------------------

/// The AgentTest rig with a FaultyMsrDevice between the agent's actuation
/// paths and the simulated hardware.  The fault pattern is a permanent
/// msr-safe style write denial while armed; tests arm/disarm it to model
/// an outage with a bounded duration.
class AgentWatchdogTest : public ::testing::Test {
 protected:
  static faults::FaultOptions write_outage() {
    faults::FaultOptions o;
    o.enabled = true;
    o.write_eperm = {1.0, 1 << 30};  // denied until disarmed
    return o;
  }

  AgentWatchdogTest()
      : socket_(cfg_, 0),
        dev_(cfg_.cores),
        engine_(socket_, dev_),
        plan_(write_outage(), Rng(17)),
        fdev_(dev_, plan_),
        zone_(fdev_),
        uncore_(fdev_),
        source_(socket_, fdev_),
        default_uncore_min_(uncore_.window_min_mhz()),
        default_uncore_max_(uncore_.window_max_mhz()) {}

  Agent make_agent(const std::string& policy_name) {
    PolicyConfig policy;
    policy.tolerated_slowdown = 0.10;
    policy.watchdog_failure_threshold = 3;
    policy.watchdog_backoff_intervals = 2;  // fast re-engagement for tests
    policy.watchdog_backoff_max_intervals = 8;
    perfmon::SamplerOptions so;
    so.noise_sigma = 0.0;
    perfmon::IntervalSampler sampler(source_, cfg_.core_base_mhz, Rng(3), so);
    return Agent(policy_name, policy, zone_, uncore_, std::move(sampler));
  }

  void run(Agent& agent, int intervals) {
    for (int i = 0; i < intervals; ++i) {
      for (int ms = 0; ms < 200; ++ms) {
        engine_.tick();
        const auto inst = socket_.evaluate();
        socket_.accumulate(inst, 0.001);
        engine_.record(inst, 0.001);
        now_ += SimTime::from_millis(1);
      }
      agent.on_interval(now_);
    }
  }

  hw::SocketConfig cfg_;
  hw::SocketModel socket_;
  msr::SimulatedMsr dev_;
  rapl::RaplEngine engine_;
  faults::FaultPlan plan_;
  faults::FaultyMsrDevice fdev_;
  powercap::PackageZone zone_;
  powercap::UncoreControl uncore_;
  perfmon::SimCounterSource source_{socket_, fdev_};
  double default_uncore_min_;
  double default_uncore_max_;
  SimTime now_ = SimTime::zero();
};

TEST_F(AgentWatchdogTest, OutageDegradesThenFailSafeThenReengages) {
  auto agent = make_agent("DUFP");
  socket_.set_demand(demand(0.3, 0.6, 10, 80, 0.9, 1.0));  // CG-like

  // Healthy warm-up: the controller pulls the cap and uncore down.
  run(agent, 10);
  EXPECT_LT(zone_.power_limit_w(powercap::ConstraintId::long_term), 125.0);
  const auto healthy_cap_decreases = agent.stats().cap_decreases;
  EXPECT_GT(healthy_cap_decreases, 0u);
  EXPECT_FALSE(agent.degraded());

  // Outage: every write is denied.  No exception may escape, and after
  // the threshold the watchdog must degrade the socket.
  fdev_.arm();
  run(agent, 12);
  EXPECT_TRUE(agent.degraded());
  EXPECT_EQ(agent.stats().health.degradations, 1u);
  EXPECT_GT(agent.stats().health.actuation_failures, 0u);
  EXPECT_GT(agent.stats().health.intervals_degraded, 0u);

  // Outage ends.  The degraded agent keeps retrying the fail-safe state:
  // the very next interval must restore the hardware defaults.
  fdev_.set_armed(false);
  run(agent, 1);
  EXPECT_DOUBLE_EQ(zone_.power_limit_w(powercap::ConstraintId::long_term),
                   agent.default_long_w());
  EXPECT_DOUBLE_EQ(zone_.power_limit_w(powercap::ConstraintId::short_term),
                   agent.default_short_w());
  EXPECT_DOUBLE_EQ(uncore_.window_min_mhz(), default_uncore_min_);
  EXPECT_DOUBLE_EQ(uncore_.window_max_mhz(), default_uncore_max_);

  // After the backoff expires the probe succeeds and control resumes.
  run(agent, 6);
  EXPECT_FALSE(agent.degraded());
  EXPECT_EQ(agent.stats().health.reengagements, 1u);

  // And the controller actually controls again.
  run(agent, 15);
  EXPECT_GT(agent.stats().cap_decreases, healthy_cap_decreases);
  EXPECT_LT(zone_.power_limit_w(powercap::ConstraintId::long_term), 125.0);
}

TEST_F(AgentWatchdogTest, ReengageProbeFailuresBackOffExponentially) {
  auto agent = make_agent("DUFP");
  socket_.set_demand(demand(0.3, 0.6, 10, 80, 0.9, 1.0));
  run(agent, 6);
  fdev_.arm();
  run(agent, 40);  // long outage: several re-engagement probes fail
  EXPECT_TRUE(agent.degraded());
  EXPECT_GT(agent.stats().health.reengage_failures, 1u);
  EXPECT_EQ(agent.stats().health.reengagements, 0u);
  // Backoff doubling means probe count grows logarithmically: with
  // backoff 2 doubling to max 8, 40 intervals see at most ~7 probes.
  EXPECT_LT(agent.stats().health.reengage_failures, 8u);
}

TEST_F(AgentWatchdogTest, SamplerOutageAloneDoesNotTripTheWatchdog) {
  // Reads fail (no samples at all) but no actuation is ever attempted, so
  // the agent must stay engaged: a blind controller holding steady is not
  // a broken actuation path.
  faults::FaultOptions o;
  o.enabled = true;
  o.read_eio = {1.0, 1};
  faults::FaultPlan read_plan(o, Rng(5));
  faults::FaultyMsrDevice rdev(dev_, read_plan);
  perfmon::SimCounterSource rsource(socket_, rdev);
  PolicyConfig policy;
  policy.tolerated_slowdown = 0.10;
  perfmon::SamplerOptions so;
  so.noise_sigma = 0.0;
  perfmon::IntervalSampler sampler(rsource, cfg_.core_base_mhz, Rng(3), so);
  Agent agent("DUFP", policy, zone_, uncore_, std::move(sampler));

  socket_.set_demand(demand(0.3, 0.6, 10, 80, 0.9, 1.0));
  rdev.arm();
  run(agent, 10);
  EXPECT_FALSE(agent.degraded());
  EXPECT_EQ(agent.stats().intervals, 0u);  // never saw a sample
  EXPECT_GE(agent.stats().health.sample_read_failures, 10u);
  EXPECT_EQ(agent.stats().health.degradations, 0u);
}

TEST_F(AgentWatchdogTest, TransientWriteErrorsAreRetriedAndAbsorbed) {
  faults::FaultOptions o;
  o.enabled = true;
  o.write_eio = {0.5, 1};  // every write flips a deterministic coin
  faults::FaultPlan flaky_plan(o, Rng(23));
  faults::FaultyMsrDevice flaky(dev_, flaky_plan);
  powercap::PackageZone zone(flaky);
  powercap::UncoreControl uncore(flaky);
  PolicyConfig policy;
  policy.tolerated_slowdown = 0.10;
  perfmon::SamplerOptions so;
  so.noise_sigma = 0.0;
  perfmon::IntervalSampler sampler(source_, cfg_.core_base_mhz, Rng(3), so);
  Agent agent("DUFP", policy, zone, uncore, std::move(sampler));

  socket_.set_demand(demand(0.3, 0.6, 10, 80, 0.9, 1.0));
  flaky.arm();
  run(agent, 20);
  // Retries happened and mostly succeeded: the controller still made
  // progress on the cap despite a 50% per-write failure rate.
  EXPECT_GT(agent.stats().health.actuation_retries, 0u);
  EXPECT_GT(agent.stats().cap_decreases, 0u);
}

}  // namespace
}  // namespace dufp::core
