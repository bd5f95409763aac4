// Full-stack behaviours that cut across every module: workload -> socket
// model -> RAPL firmware -> MSRs -> powercap/perfmon -> controllers.
#include <gtest/gtest.h>

#include "harness/runner.h"
#include "sim/trace.h"
#include "workloads/generator.h"
#include "workloads/profiles.h"

namespace dufp::harness {
namespace {

RunConfig config(workloads::AppId app, const std::string& policy,
                 double tol) {
  RunConfig cfg;
  cfg.profile = &workloads::profile(app);
  cfg.machine.sockets = 1;
  cfg.seed = 21;
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = tol;
  return cfg;
}

TEST(EndToEndTest, DefaultRunsAreNotThrottledForMostApps) {
  // Default consumption sits near but mostly below the 125 W budget.
  for (auto app : {workloads::AppId::cg, workloads::AppId::ep,
                   workloads::AppId::mg}) {
    const auto res = run_once(config(app, "", 0.0));
    EXPECT_LT(res.summary.avg_pkg_power_w, 126.0)
        << workloads::app_name(app);
    EXPECT_GT(res.summary.avg_pkg_power_w, 95.0)
        << workloads::app_name(app);
  }
}

TEST(EndToEndTest, HplIsTdpBound) {
  // HPL demands more than TDP; the firmware holds the long-term average
  // at the 125 W budget (the classic power-virus behaviour).
  const auto res = run_once(config(workloads::AppId::hpl, "", 0.0));
  EXPECT_GT(res.summary.avg_pkg_power_w, 118.0);
  EXPECT_LT(res.summary.avg_pkg_power_w, 127.0);
}

TEST(EndToEndTest, DufpNeverWorseThanDufOnPower) {
  // The paper's core claim: adding dynamic capping to uncore scaling
  // only adds savings.
  for (auto app : {workloads::AppId::cg, workloads::AppId::ep,
                   workloads::AppId::ft}) {
    const auto duf = run_once(config(app, "DUF", 0.10));
    const auto dufp = run_once(config(app, "DUFP", 0.10));
    EXPECT_LE(dufp.summary.avg_pkg_power_w,
              duf.summary.avg_pkg_power_w * 1.015)
        << workloads::app_name(app);
  }
}

TEST(EndToEndTest, CapsAreActuallyProgrammedDuringDufpRun) {
  const auto res = run_once(config(workloads::AppId::cg, "DUFP", 0.10));
  ASSERT_EQ(res.agent_stats.size(), 1u);
  const auto& st = res.agent_stats[0];
  EXPECT_GT(st.cap_decreases, 10u);
  EXPECT_GT(st.uncore_decreases, 2u);
  EXPECT_GT(st.intervals, 150u);
}

TEST(EndToEndTest, FrequencyTraceShowsCapEffect) {
  // Fig. 5's mechanism: with DUFP the core clock leaves the all-core max.
  auto cfg = config(workloads::AppId::cg, "DUFP", 0.10);
  sim::VectorTraceSink sink(10);
  cfg.trace = &sink;
  run_once(cfg);
  double sum = 0.0;
  double count = 0.0;
  double minf = 1e9;
  for (const auto& e : sink.entries()) {
    sum += e.sockets[0].core_mhz;
    minf = std::min(minf, double(e.sockets[0].core_mhz));
    count += 1.0;
  }
  const double avg = sum / count;
  EXPECT_LT(avg, 2790.0);
  EXPECT_LT(minf, 2500.0);
}

TEST(EndToEndTest, ZeroToleranceKeepsSlowdownTiny) {
  for (auto app : {workloads::AppId::ep, workloads::AppId::mg}) {
    const auto base = run_once(config(app, "", 0.0));
    const auto dufp = run_once(config(app, "DUFP", 0.0));
    const double slowdown = percent_over(dufp.summary.exec_seconds,
                                         base.summary.exec_seconds);
    EXPECT_LT(slowdown, 2.5) << workloads::app_name(app);
  }
}

TEST(EndToEndTest, GeneratedWorkloadsRunUnderAllPolicies) {
  // Property test: DUFP must behave sanely on arbitrary valid workloads,
  // not just the ten calibrated profiles.
  Rng rng(99);
  for (int i = 0; i < 3; ++i) {
    workloads::GeneratorSpec spec;
    spec.phase_count = 3;
    spec.sequence_length = 30;
    spec.min_phase_seconds = 0.2;
    spec.max_phase_seconds = 1.0;
    const auto prof = workloads::generate_workload(
        spec, rng, "gen" + std::to_string(i));

    RunConfig cfg;
    cfg.profile = &prof;
    cfg.machine.sockets = 1;
    cfg.seed = 31 + static_cast<std::uint64_t>(i);

    const auto base = run_once(cfg);

    cfg.policy_name = "DUFP";
    cfg.tolerated_slowdown = 0.10;
    const auto dufp = run_once(cfg);

    // Sanity: bounded slowdown (tolerance + phase-detection slack) and
    // no power increase.
    const double slowdown = percent_over(dufp.summary.exec_seconds,
                                         base.summary.exec_seconds);
    EXPECT_LT(slowdown, 16.0) << prof.name();
    EXPECT_GE(slowdown, -1.0) << prof.name();
    EXPECT_LE(dufp.summary.avg_pkg_power_w,
              base.summary.avg_pkg_power_w * 1.01)
        << prof.name();
  }
}

TEST(EndToEndTest, MsrTrafficStaysControlPlane) {
  // The agent runs at 5 Hz; MSR writes must stay a few per interval.
  auto cfg = config(workloads::AppId::cg, "DUFP", 0.10);
  const auto res = run_once(cfg);
  const auto& st = res.agent_stats[0];
  const auto actions = st.cap_decreases + st.cap_increases +
                       st.cap_resets + st.uncore_decreases +
                       st.uncore_increases + st.uncore_resets;
  EXPECT_LT(actions, st.intervals * 3);
}

}  // namespace
}  // namespace dufp::harness
