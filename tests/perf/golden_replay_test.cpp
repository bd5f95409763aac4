// Trace-replay goldens: a *replayed* trace profile (dense 200 ms
// sampling, the DUF measurement cadence, a phase change every row) run
// inline and as a pooled job must match checked-in goldens byte for byte.
#include <gtest/gtest.h>

#include "golden_util.h"
#include "workloads/trace_replay.h"

namespace dufp::perf_test {
namespace {

/// Thirty 0.2 s rows: five passes over dense_trace's six behaviours.
workloads::WorkloadProfile replayed_profile() {
  return workloads::profile_from_trace(dense_trace(5), {}, "golden-replay");
}

/// The reference-run shape (4 sockets, DUFP at 10%, seed 7) on the
/// replayed profile.  No phase cap: replay phase names are synthetic.
harness::RunConfig replay_config(const workloads::WorkloadProfile& profile) {
  harness::RunConfig cfg;
  cfg.profile = &profile;
  cfg.machine.sockets = 4;
  cfg.policy_name = "DUFP";
  cfg.tolerated_slowdown = 0.10;
  cfg.seed = 7;
  return cfg;
}

TEST(GoldenReplayTest, SerialTraceMatchesGolden) {
  const auto profile = replayed_profile();
  expect_matches_golden(run_trace_csv(replay_config(profile), "serial"),
                        "trace_replay.csv");
}

TEST(GoldenReplayTest, SerialSummaryMatchesGolden) {
  const auto profile = replayed_profile();
  expect_matches_golden(
      summary_text(harness::run_once(replay_config(profile))),
      "summary_replay.txt");
}

TEST(GoldenReplayTest, ParallelTraceMatchesGolden) {
  const auto profile = replayed_profile();
  expect_matches_golden(
      run_trace_csv(replay_config(profile), "par", /*pool_threads=*/4),
      "trace_replay.csv");
}

TEST(GoldenReplayTest, ParallelSummaryMatchesGolden) {
  const auto profile = replayed_profile();
  expect_matches_golden(summary_text(run_pooled(replay_config(profile), 2)),
                        "summary_replay.txt");
}

}  // namespace
}  // namespace dufp::perf_test
