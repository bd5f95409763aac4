// Reproducibility: identical seeds must give bit-identical results, and
// different seeds must differ (error bars would otherwise be fiction).
#include <gtest/gtest.h>

#include "harness/runner.h"
#include "workloads/profiles.h"

namespace dufp::harness {
namespace {

RunConfig config(std::uint64_t seed, const std::string& policy) {
  RunConfig cfg;
  cfg.profile = &workloads::profile(workloads::AppId::cg);
  cfg.machine.sockets = 1;
  cfg.seed = seed;
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = 0.10;
  return cfg;
}

TEST(DeterminismTest, SameSeedBitIdenticalDefaultRun) {
  const auto a = run_once(config(11, ""));
  const auto b = run_once(config(11, ""));
  EXPECT_EQ(a.summary.exec_seconds, b.summary.exec_seconds);
  EXPECT_EQ(a.summary.pkg_energy_j, b.summary.pkg_energy_j);
  EXPECT_EQ(a.summary.dram_energy_j, b.summary.dram_energy_j);
}

TEST(DeterminismTest, SameSeedBitIdenticalDufpRun) {
  const auto a = run_once(config(12, "DUFP"));
  const auto b = run_once(config(12, "DUFP"));
  EXPECT_EQ(a.summary.exec_seconds, b.summary.exec_seconds);
  EXPECT_EQ(a.summary.pkg_energy_j, b.summary.pkg_energy_j);
  ASSERT_EQ(a.agent_stats.size(), b.agent_stats.size());
  EXPECT_EQ(a.agent_stats[0].cap_decreases, b.agent_stats[0].cap_decreases);
  EXPECT_EQ(a.agent_stats[0].uncore_decreases,
            b.agent_stats[0].uncore_decreases);
  EXPECT_EQ(a.agent_stats[0].cap_resets, b.agent_stats[0].cap_resets);
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  const auto a = run_once(config(1, ""));
  const auto b = run_once(config(2, ""));
  EXPECT_NE(a.summary.exec_seconds, b.summary.exec_seconds);
}

TEST(DeterminismTest, SeedChangesAreSmallPerturbations) {
  const auto a = run_once(config(1, ""));
  const auto b = run_once(config(2, ""));
  EXPECT_NEAR(a.summary.exec_seconds, b.summary.exec_seconds,
              a.summary.exec_seconds * 0.03);
}

}  // namespace
}  // namespace dufp::harness
