// Harness-level behaviour of the extension policy modes (DUFP-F, DNPC).
#include <gtest/gtest.h>

#include "harness/runner.h"
#include "workloads/profiles.h"

namespace dufp::harness {
namespace {

RunConfig config(workloads::AppId app, const std::string& policy,
                 double tol) {
  RunConfig cfg;
  cfg.profile = &workloads::profile(app);
  cfg.machine.sockets = 1;
  cfg.seed = 51;
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = tol;
  return cfg;
}

TEST(ModesTest, DufpfActuallyPinsPstates) {
  const auto res = run_once(config(workloads::AppId::cg, "DUFP-F", 0.10));
  ASSERT_EQ(res.agent_stats.size(), 1u);
  EXPECT_GT(res.agent_stats[0].pstate_pins, 0u);
}

TEST(ModesTest, PlainDufpNeverTouchesPstates) {
  const auto res = run_once(config(workloads::AppId::cg, "DUFP", 0.10));
  EXPECT_EQ(res.agent_stats[0].pstate_pins, 0u);
  EXPECT_EQ(res.agent_stats[0].pstate_releases, 0u);
}

TEST(ModesTest, DufpfTracksDufpClosely) {
  const auto dufp = run_once(config(workloads::AppId::cg, "DUFP", 0.10));
  const auto dufpf = run_once(config(workloads::AppId::cg, "DUFP-F", 0.10));
  // The extension must not change the qualitative outcome.
  EXPECT_NEAR(dufpf.summary.avg_pkg_power_w, dufp.summary.avg_pkg_power_w,
              dufp.summary.avg_pkg_power_w * 0.03);
  EXPECT_NEAR(dufpf.summary.exec_seconds, dufp.summary.exec_seconds,
              dufp.summary.exec_seconds * 0.03);
}

TEST(ModesTest, DnpcCapsButHasNoUncoreLever) {
  const auto base = run_once(config(workloads::AppId::ep, "", 0.0));
  const auto dnpc = run_once(config(workloads::AppId::ep, "DNPC", 0.10));
  const auto dufp = run_once(config(workloads::AppId::ep, "DUFP", 0.10));
  // DNPC saves something on EP (the cap tracks its frequency model)...
  EXPECT_LT(dnpc.summary.avg_pkg_power_w, base.summary.avg_pkg_power_w);
  // ...but far less than DUFP with its uncore actuator.
  EXPECT_GT(dnpc.summary.avg_pkg_power_w,
            dufp.summary.avg_pkg_power_w * 1.04);
  // And it never touches the uncore.
  EXPECT_EQ(dnpc.agent_stats[0].uncore_decreases, 0u);
}

TEST(ModesTest, DnpcForfeitsSavingsOnMemoryBoundCode) {
  // The paper's Sec. VI critique: a frequency-linear model predicts
  // slowdown that memory-bound code does not experience.
  const auto base = run_once(config(workloads::AppId::mg, "", 0.0));
  const auto dnpc = run_once(config(workloads::AppId::mg, "DNPC", 0.10));
  const auto dufp = run_once(config(workloads::AppId::mg, "DUFP", 0.10));
  const double dnpc_savings = 1.0 - dnpc.summary.avg_pkg_power_w /
                                        base.summary.avg_pkg_power_w;
  const double dufp_savings = 1.0 - dufp.summary.avg_pkg_power_w /
                                        base.summary.avg_pkg_power_w;
  EXPECT_LT(dnpc_savings, dufp_savings);
}

}  // namespace
}  // namespace dufp::harness
