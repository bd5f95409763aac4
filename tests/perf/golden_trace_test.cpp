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

// The shared cell cache is invisible to the bytes: a run with the cache
// off, the same run cold (cache cleared) and a warm repeat (every edge
// already in the cache) produce identical digests, and the repeat builds
// no edge of its own.
TEST(MultiRunIdentityTest, RepeatedConfigRunsWarm) {
  auto& shared = rapl::SharedCellCache::instance();
  const bool was_enabled = shared.enabled();
  const auto profile = golden_profile();
  const harness::RunConfig cfg = golden_config(profile);

  shared.set_enabled(false);
  const harness::RunResult off = harness::run_once(cfg);
  shared.set_enabled(true);
  shared.clear();
  const harness::RunResult cold = harness::run_once(cfg);
  const harness::RunResult warm = harness::run_once(cfg);
  shared.set_enabled(was_enabled);

  EXPECT_EQ(off.cell_stats.shared_hits, 0u);
  EXPECT_GT(cold.cell_stats.cold_builds, 0u)
      << "cold run built nothing — the warm check proves nothing";
  EXPECT_EQ(warm.cell_stats.cold_builds, 0u)
      << "repetition 2 of an identical config must start fully warm";
  EXPECT_GT(warm.cell_stats.shared_hits + warm.cell_stats.local_hits, 0u);
  const std::string want = summary_text(off);
  EXPECT_EQ(summary_text(cold), want) << "a cold cache build changed bytes";
  EXPECT_EQ(summary_text(warm), want) << "a cache hit changed bytes";
}

}  // namespace
}  // namespace dufp::perf_test
