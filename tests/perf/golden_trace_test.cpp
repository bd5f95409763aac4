// Byte-identical golden regression for the simulation hot path.
//
// The golden CSVs/summaries in tests/perf/golden were produced by the
// pre-optimization engine; these tests pin the optimized engine to the
// exact same bytes for the same seeds, run inline and as a job on the
// ThreadPool a grid runs on — the repo's determinism contract extended
// to the hot-path rework.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "core/policy_registry.h"
#include "golden_util.h"
#include "harness/shard.h"
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
  std::string bytes;
  telemetry::write_prometheus(res.telemetry->metrics, bytes);
  std::ostringstream out;
  telemetry::write_chrome_trace(*res.telemetry, out);
  telemetry::write_jsonl(*res.telemetry, out);
  return bytes + out.str();
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

// The same for a whole grid: EP x (baseline + every registered policy x
// {5%, 10%}) x 5 repetitions, run in job order and on 2 pool workers
// (the width the perf ledger's paper_grid runs at).  Each job's cell-edge
// economics and flip counts are its own whichever worker ran it, and the
// finalized bytes agree.  Summed, two ratios hold: a cold edge build
// costs a few threshold probes (a closed-form build takes about four, a
// seeded bisection took ~26), and at most a quarter of the flip ticks
// leave the governor's calm-run kernel to fill a state's entry.
TEST(MultiRunIdentityTest, GridCountsAndBytesIndependentOfPoolWidth) {
  harness::GridSpec spec;
  spec.name = "grid-smoke";
  spec.apps = {workloads::AppId::ep};
  spec.policies = core::PolicyRegistry::instance().names();
  spec.tolerances = {0.05, 0.10};
  spec.repetitions = 5;
  spec.sockets = 4;
  const harness::GridPlan gp = harness::build_plan(spec);
  ASSERT_EQ(gp.plan.cell_count(), 1 + 2 * spec.policies.size());
  std::vector<std::size_t> all(gp.plan.job_count());
  std::iota(all.begin(), all.end(), std::size_t{0});

  std::vector<harness::RunResult> inline_results = gp.plan.run_jobs(all, 1);
  std::vector<harness::RunResult> pooled = gp.plan.run_jobs(all, 2);
  ASSERT_EQ(inline_results.size(), all.size());
  ASSERT_EQ(pooled.size(), all.size());
  rapl::CellStats cells;
  std::int64_t flip_ticks = 0;
  std::int64_t flip_fills = 0;
  for (std::size_t j = 0; j < all.size(); ++j) {
    const sim::BatchStats& want = inline_results[j].batch_stats;
    const sim::BatchStats& got = pooled[j].batch_stats;
    const std::string what = "job " + std::to_string(j);
    expect_same_cell_stats(pooled[j].cell_stats, inline_results[j].cell_stats,
                           what.c_str());
    EXPECT_EQ(got.flip_ticks, want.flip_ticks) << what;
    EXPECT_EQ(got.flip_fills, want.flip_fills) << what;
    cells.add(inline_results[j].cell_stats);
    flip_ticks += want.flip_ticks;
    flip_fills += want.flip_fills;
  }
  ASSERT_GT(cells.cold_builds, 0u) << "no cell edge built: nothing to hold";
  EXPECT_LE(cells.probes, 5 * cells.cold_builds)
      << cells.probes << " probes over " << cells.cold_builds
      << " cold edge builds";
  ASSERT_GT(flip_ticks, 0) << "no flip tick: nothing to hold";
  EXPECT_LE(4 * flip_fills, flip_ticks)
      << flip_fills << " of " << flip_ticks << " flip ticks filled an entry";

  const harness::GridOutputs want =
      harness::finalize_grid(spec, std::move(inline_results));
  const harness::GridOutputs got =
      harness::finalize_grid(spec, std::move(pooled));
  EXPECT_EQ(got.evaluation_csv, want.evaluation_csv);
  EXPECT_EQ(got.merged_prometheus, want.merged_prometheus);
}

}  // namespace
}  // namespace dufp::perf_test
