// Byte-identical golden regression for the simulation hot path.
//
// The golden CSVs/summaries in tests/perf/golden were produced by the
// pre-optimization engine; these tests pin the optimized engine to the
// exact same bytes for the same seeds, run inline and as a job on the
// ThreadPool a grid runs on — the repo's determinism contract extended
// to the hot-path rework.
#include <gtest/gtest.h>

#include <sstream>

#include "golden_util.h"
#include "rapl/cell_cache.h"
#include "telemetry/export.h"

namespace dufp::perf_test {
namespace {

/// Every deterministic byte the telemetry subsystem can emit for a run:
/// Prometheus exposition, Chrome trace JSON, and JSONL events.  Fault
/// events are stamped through Simulation::now().
std::string telemetry_text(const harness::RunResult& res) {
  EXPECT_TRUE(res.telemetry.has_value());
  if (!res.telemetry.has_value()) return {};
  std::ostringstream out;
  telemetry::write_prometheus(res.telemetry->metrics, out);
  telemetry::write_chrome_trace(*res.telemetry, out);
  telemetry::write_jsonl(*res.telemetry, out);
  return out.str();
}

TEST(GoldenTraceTest, SerialTraceMatchesPreChangeGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(run_trace_csv(golden_config(profile), "serial"),
                        "trace_reference.csv");
}

TEST(GoldenTraceTest, SerialSummaryMatchesPreChangeGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(summary_text(harness::run_once(golden_config(profile))),
                        "summary_reference.txt");
}

TEST(GoldenTraceTest, FaultStormTraceMatchesPreChangeGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(run_trace_csv(golden_storm_config(profile), "storm"),
                        "trace_storm.csv");
}

TEST(GoldenTraceTest, FaultStormSummaryMatchesPreChangeGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(
      summary_text(harness::run_once(golden_storm_config(profile))),
      "summary_storm.txt");
}

// -- pooled runs against the same pre-change goldens ------------------------

TEST(GoldenTraceTest, ParallelTraceMatchesPreChangeGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(
      run_trace_csv(golden_config(profile), "par", /*pool_threads=*/4),
      "trace_reference.csv");
}

TEST(GoldenTraceTest, ParallelSummaryMatchesPreChangeGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(summary_text(run_pooled(golden_config(profile), 4)),
                        "summary_reference.txt");
}

TEST(GoldenTraceTest, ParallelFaultStormTraceMatchesPreChangeGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(
      run_trace_csv(golden_storm_config(profile), "par_storm",
                    /*pool_threads=*/4),
      "trace_storm.csv");
}

TEST(GoldenTraceTest, ParallelFaultStormSummaryMatchesPreChangeGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(
      summary_text(run_pooled(golden_storm_config(profile), 4)),
      "summary_storm.txt");
}

// The pool width the perf ledger's paper_grid runs at.
TEST(GoldenTraceTest, TwoThreadTraceMatchesPreChangeGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(
      run_trace_csv(golden_storm_config(profile), "par2",
                    /*pool_threads=*/2),
      "trace_storm.csv");
}

TEST(GoldenTraceTest, SerialAndParallelTelemetryBytesAreIdentical) {
  const auto profile = golden_profile();
  harness::RunConfig cfg = golden_storm_config(profile);
  cfg.telemetry.enabled = true;
  const std::string serial_text = telemetry_text(harness::run_once(cfg));
  const std::string parallel_text = telemetry_text(run_pooled(cfg, 4));
  ASSERT_FALSE(serial_text.empty());
  EXPECT_EQ(serial_text, parallel_text)
      << "telemetry (incl. fault-event timestamps) drifted on a pool worker";
}

void expect_same_cell_stats(const rapl::CellStats& got,
                           const rapl::CellStats& want, const char* what) {
  EXPECT_EQ(got.cold_builds, want.cold_builds) << what;
  EXPECT_EQ(got.probes, want.probes) << what;
  EXPECT_EQ(got.local_hits, want.local_hits) << what;
  EXPECT_EQ(got.way_evictions, want.way_evictions) << what;
}

// A run's cell-edge economics are its own: no edge is shared between
// governors, so a repeat of a config in the same process and the same
// config as one job of a 4-worker pool, next to concurrent siblings,
// build exactly the edges the first run built and give the same bytes.
TEST(MultiRunIdentityTest, CellStatsArePerRun) {
  const auto profile = golden_profile();
  const harness::RunConfig cfg = golden_config(profile);
  const harness::RunResult first = harness::run_once(cfg);
  const harness::RunResult repeat = harness::run_once(cfg);
  const harness::RunResult pooled = run_pooled(cfg, 4);

  EXPECT_GT(first.cell_stats.cold_builds, 0u);
  expect_same_cell_stats(repeat.cell_stats, first.cell_stats, "repeat");
  expect_same_cell_stats(pooled.cell_stats, first.cell_stats, "pooled");
  const std::string want = summary_text(first);
  EXPECT_EQ(summary_text(repeat), want);
  EXPECT_EQ(summary_text(pooled), want);
}

}  // namespace
}  // namespace dufp::perf_test
