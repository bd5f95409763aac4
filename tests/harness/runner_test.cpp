#include "harness/runner.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/options.h"
#include "workloads/profiles.h"

namespace dufp::harness {
namespace {

RunConfig small_config(workloads::AppId app = workloads::AppId::cg) {
  RunConfig cfg;
  cfg.profile = &workloads::profile(app);
  cfg.machine.sockets = 1;  // keep unit tests fast
  cfg.seed = 5;
  return cfg;
}

TEST(RunnerTest, ModeNames) {
  RunConfig cfg;
  EXPECT_EQ(cfg.resolved_policy(), "");  // the baseline: no controller
  cfg.policy_name = "dufp-f";
  EXPECT_EQ(cfg.resolved_policy(), "DUFP-F");
}

TEST(RunnerTest, PercentOver) {
  EXPECT_NEAR(percent_over(110.0, 100.0), 10.0, 1e-9);
  EXPECT_NEAR(percent_over(90.0, 100.0), -10.0, 1e-9);
  EXPECT_THROW(percent_over(1.0, 0.0), std::invalid_argument);
}

TEST(RunnerTest, MissingProfileRejected) {
  RunConfig cfg;
  EXPECT_THROW(run_once(cfg), std::invalid_argument);
}

TEST(RunnerTest, ValidateAcceptsDefaultConfig) {
  EXPECT_TRUE(small_config().validate().empty());
}

TEST(RunnerTest, ValidateReportsAllProblemsNotJustTheFirst) {
  RunConfig cfg;  // null profile
  cfg.tolerated_slowdown = 1.5;
  cfg.policy.interval = SimTime::from_millis(0);
  cfg.sim.tick = SimTime::from_millis(-1);
  cfg.machine.sockets = 0;
  cfg.static_cap_w = -10.0;
  cfg.policy_name = "sasquatch";
  const auto problems = cfg.validate();
  EXPECT_GE(problems.size(), 7u);

  auto has = [&](const std::string& needle) {
    for (const auto& p : problems) {
      if (p.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("profile"));
  EXPECT_TRUE(has("tolerated_slowdown"));
  EXPECT_TRUE(has("policy.interval"));
  EXPECT_TRUE(has("sim.tick"));
  EXPECT_TRUE(has("machine.sockets"));
  EXPECT_TRUE(has("static_cap_w"));
  EXPECT_TRUE(has("policy_name is unknown: \"sasquatch\""));
}

TEST(RunnerTest, ValidateCatchesBadWatchdogKnobs) {
  auto cfg = small_config();
  cfg.policy.max_actuation_attempts = 0;
  cfg.policy.watchdog_failure_threshold = -1;
  cfg.policy.watchdog_backoff_intervals = 0;
  cfg.policy.watchdog_backoff_max_intervals = 0;
  const auto problems = cfg.validate();
  auto has = [&](const std::string& needle) {
    for (const auto& p : problems) {
      if (p.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("max_actuation_attempts"));
  EXPECT_TRUE(has("watchdog_failure_threshold"));
  EXPECT_TRUE(has("watchdog_backoff_intervals"));
}

TEST(RunnerTest, ValidateCatchesBadFaultOptions) {
  auto cfg = small_config();
  cfg.faults.enabled = true;
  cfg.faults.read_eio = {1.5, 1};
  cfg.faults.stale_sample = {0.1, 0};
  const auto problems = cfg.validate();
  EXPECT_GE(problems.size(), 2u);
  bool prefixed = false;
  for (const auto& p : problems) {
    if (p.rfind("faults.", 0) == 0) prefixed = true;
  }
  EXPECT_TRUE(prefixed) << "fault problems carry the faults. prefix";
  EXPECT_THROW(run_once(cfg), std::invalid_argument);
}

TEST(RunnerTest, ValidateCatchesUnknownPhaseCap) {
  auto cfg = small_config();
  cfg.phase_cap = PhaseCapSpec{"no_such_phase", 75.0};
  const auto problems = cfg.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("no_such_phase"), std::string::npos);
}

TEST(RunnerTest, RunOnceThrowsWithEveryProblemListed) {
  auto cfg = small_config();
  cfg.phase_cap = PhaseCapSpec{"no_such_phase", -5.0};
  cfg.tolerated_slowdown = -0.1;
  try {
    run_once(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_phase"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cap_w"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tolerated_slowdown"), std::string::npos) << msg;
  }
}

TEST(RunnerTest, DefaultRunProducesSummary) {
  const auto res = run_once(small_config());
  EXPECT_GT(res.summary.exec_seconds, 30.0);
  EXPECT_GT(res.summary.avg_pkg_power_w, 80.0);
  EXPECT_GT(res.summary.avg_dram_power_w, 5.0);
  EXPECT_GT(res.summary.total_gflop, 100.0);
  EXPECT_TRUE(res.agent_stats.empty());  // no controller for the baseline
}

TEST(RunnerTest, DufpRunAttachesOneAgentPerSocket) {
  auto cfg = small_config();
  cfg.machine.sockets = 2;
  cfg.policy_name = "DUFP";
  cfg.tolerated_slowdown = 0.10;
  const auto res = run_once(cfg);
  ASSERT_EQ(res.agent_stats.size(), 2u);
  EXPECT_GT(res.agent_stats[0].intervals, 50u);
  EXPECT_GT(res.agent_stats[0].cap_decreases, 0u);
}

TEST(RunnerTest, StaticCapSlowsAndSaves) {
  const auto base = run_once(small_config());
  auto cfg = small_config();
  cfg.static_cap_w = 100.0;
  const auto capped = run_once(cfg);
  EXPECT_GT(capped.summary.exec_seconds, base.summary.exec_seconds);
  EXPECT_LT(capped.summary.avg_pkg_power_w,
            base.summary.avg_pkg_power_w * 0.93);
}

TEST(RunnerTest, PhaseCapAppliesOnlyToNamedPhase) {
  // Fig. 1b/1c: capping CG's memory prologue must cut the prologue's
  // power without touching total execution time.
  const auto base = run_once(small_config());
  auto cfg = small_config();
  cfg.phase_cap = PhaseCapSpec{"init", 95.0};
  const auto partial = run_once(cfg);

  const auto& init_base = base.phase_totals.at("init");
  const auto& init_capped = partial.phase_totals.at("init");
  const double base_power = init_base.pkg_energy_j / init_base.wall_seconds;
  const double capped_power =
      init_capped.pkg_energy_j / init_capped.wall_seconds;
  EXPECT_LT(capped_power, base_power * 0.88);

  // Total time essentially unchanged (the prologue is memory-bound).
  EXPECT_NEAR(partial.summary.exec_seconds, base.summary.exec_seconds,
              base.summary.exec_seconds * 0.01);

  // The solve loop's power is untouched.
  const auto& solve_base = base.phase_totals.at("solve");
  const auto& solve_capped = partial.phase_totals.at("solve");
  EXPECT_NEAR(solve_capped.pkg_energy_j / solve_capped.wall_seconds,
              solve_base.pkg_energy_j / solve_base.wall_seconds, 2.0);
}

TEST(RunnerTest, UnknownPhaseCapRejected) {
  auto cfg = small_config();
  cfg.phase_cap = PhaseCapSpec{"no_such_phase", 75.0};
  EXPECT_THROW(run_once(cfg), std::invalid_argument);
}

TEST(RunnerTest, RepeatedRunsAggregate) {
  auto cfg = small_config();
  const auto agg = run_repeated(cfg, 4);
  EXPECT_EQ(agg.runs, 4);
  EXPECT_EQ(agg.exec_seconds.used, 2u);  // 4 runs - fastest - slowest
  EXPECT_GT(agg.exec_seconds.mean, 30.0);
  EXPECT_LE(agg.exec_seconds.min, agg.exec_seconds.mean);
  EXPECT_GE(agg.exec_seconds.max, agg.exec_seconds.mean);
  EXPECT_GT(agg.total_energy_j.mean, 0.0);
  EXPECT_FALSE(agg.mean_phase_totals.empty());
}

TEST(RunnerTest, SeedsVaryAcrossRepetitions) {
  auto cfg = small_config();
  const auto agg = run_repeated(cfg, 4);
  // Jitter makes runs differ: error bars must have non-zero width.
  EXPECT_GT(agg.exec_seconds.max, agg.exec_seconds.min);
}

TEST(RunnerTest, BenchOptionsDefaults) {
  // (Environment not set in the test harness.)
  unsetenv("DUFP_REPS");
  unsetenv("DUFP_SOCKETS");
  unsetenv("DUFP_THREADS");
  unsetenv("DUFP_QUIET");
  const auto opts = BenchOptions::from_env();
  EXPECT_EQ(opts.repetitions, 10);
  EXPECT_EQ(opts.sockets, 4);
  EXPECT_EQ(opts.threads, 0);
  EXPECT_FALSE(opts.quiet);
  EXPECT_GE(opts.resolved_threads(), 1);
}

TEST(RunnerTest, BenchOptionsReadEnvironment) {
  setenv("DUFP_REPS", "3", 1);
  setenv("DUFP_SOCKETS", "2", 1);
  setenv("DUFP_THREADS", "8", 1);
  setenv("DUFP_QUIET", "1", 1);
  const auto opts = BenchOptions::from_env();
  unsetenv("DUFP_REPS");
  unsetenv("DUFP_SOCKETS");
  unsetenv("DUFP_THREADS");
  unsetenv("DUFP_QUIET");
  EXPECT_EQ(opts.repetitions, 3);
  EXPECT_EQ(opts.sockets, 2);
  EXPECT_EQ(opts.threads, 8);
  EXPECT_EQ(opts.resolved_threads(), 8);
  EXPECT_TRUE(opts.quiet);
}

}  // namespace
}  // namespace dufp::harness
