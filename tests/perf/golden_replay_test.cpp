// Trace-replay goldens: a *replayed* trace profile (dense 200 ms
// sampling, the DUF measurement cadence, a phase change every row) run
// inline and as a pooled job must match checked-in goldens byte for byte.
#include <gtest/gtest.h>

#include <sstream>

#include "golden_util.h"
#include "workloads/trace_replay.h"

namespace dufp::perf_test {
namespace {

// A measured-style trace: 30 rows of 0.2 s, cycling through six distinct
// behaviours (compute-bound, bandwidth-bound, and mixes).  Consecutive
// rows always differ by more than the 10% merge tolerance, so every row
// becomes its own phase segment — the densest phase stream the replay
// module can produce.
constexpr const char* kDenseTraceCsv =
    "seconds,gflops,gbps,cpu_activity,mem_activity\n"
    "0.2,55.0,10.0,0.95,0.30\n"
    "0.2,9.0,80.0,0.55,0.90\n"
    "0.2,30.0,45.0,0.80,0.70\n"
    "0.2,48.0,15.0,0.90,0.40\n"
    "0.2,12.0,70.0,0.60,0.85\n"
    "0.2,22.0,30.0,0.75,0.60\n"
    "0.2,55.0,10.0,0.95,0.30\n"
    "0.2,9.0,80.0,0.55,0.90\n"
    "0.2,30.0,45.0,0.80,0.70\n"
    "0.2,48.0,15.0,0.90,0.40\n"
    "0.2,12.0,70.0,0.60,0.85\n"
    "0.2,22.0,30.0,0.75,0.60\n"
    "0.2,55.0,10.0,0.95,0.30\n"
    "0.2,9.0,80.0,0.55,0.90\n"
    "0.2,30.0,45.0,0.80,0.70\n"
    "0.2,48.0,15.0,0.90,0.40\n"
    "0.2,12.0,70.0,0.60,0.85\n"
    "0.2,22.0,30.0,0.75,0.60\n"
    "0.2,55.0,10.0,0.95,0.30\n"
    "0.2,9.0,80.0,0.55,0.90\n"
    "0.2,30.0,45.0,0.80,0.70\n"
    "0.2,48.0,15.0,0.90,0.40\n"
    "0.2,12.0,70.0,0.60,0.85\n"
    "0.2,22.0,30.0,0.75,0.60\n"
    "0.2,55.0,10.0,0.95,0.30\n"
    "0.2,9.0,80.0,0.55,0.90\n"
    "0.2,30.0,45.0,0.80,0.70\n"
    "0.2,48.0,15.0,0.90,0.40\n"
    "0.2,12.0,70.0,0.60,0.85\n"
    "0.2,22.0,30.0,0.75,0.60\n";

workloads::WorkloadProfile replayed_profile() {
  std::istringstream in(kDenseTraceCsv);
  return workloads::profile_from_trace(workloads::parse_trace_csv(in), {},
                                       "golden-replay");
}

/// The reference-run shape (4 sockets, DUFP at 10%, seed 7) on the
/// replayed profile.  No phase cap: replay phase names are synthetic.
harness::RunConfig replay_config(const workloads::WorkloadProfile& profile) {
  harness::RunConfig cfg;
  cfg.profile = &profile;
  cfg.machine.sockets = 4;
  cfg.mode = harness::PolicyMode::dufp;
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
