// The parallel experiment engine's core guarantee: an ExperimentPlan run
// with 1 thread and with N threads produces bit-identical results.
#include "harness/plan.h"

#include <gtest/gtest.h>

#include <set>

#include "workloads/profiles.h"

namespace dufp::harness {
namespace {

RunConfig cg_config(const std::string& policy = "", double tol = 0.0) {
  RunConfig cfg;
  cfg.profile = &workloads::profile(workloads::AppId::cg);
  cfg.machine.sockets = 1;  // short runs keep the tier-1 suite fast
  cfg.seed = 23;
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = tol;
  return cfg;
}

void expect_identical(const TrimmedSummary& a, const TrimmedSummary& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.used, b.used);
}

void expect_identical(const RepeatedResult& a, const RepeatedResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  expect_identical(a.exec_seconds, b.exec_seconds);
  expect_identical(a.avg_pkg_power_w, b.avg_pkg_power_w);
  expect_identical(a.avg_dram_power_w, b.avg_dram_power_w);
  expect_identical(a.pkg_energy_j, b.pkg_energy_j);
  expect_identical(a.dram_energy_j, b.dram_energy_j);
  expect_identical(a.total_energy_j, b.total_energy_j);
  ASSERT_EQ(a.mean_phase_totals.size(), b.mean_phase_totals.size());
  for (const auto& [name, t] : a.mean_phase_totals) {
    const auto it = b.mean_phase_totals.find(name);
    ASSERT_NE(it, b.mean_phase_totals.end()) << name;
    EXPECT_EQ(t.wall_seconds, it->second.wall_seconds);
    EXPECT_EQ(t.pkg_energy_j, it->second.pkg_energy_j);
    EXPECT_EQ(t.dram_energy_j, it->second.dram_energy_j);
  }
}

TEST(JobSeedTest, DeterministicAndDistinct) {
  EXPECT_EQ(job_seed(23, 0), job_seed(23, 0));
  std::set<std::uint64_t> seeds;
  for (int r = 0; r < 64; ++r) seeds.insert(job_seed(23, r));
  EXPECT_EQ(seeds.size(), 64u);  // no collisions across repetitions
  EXPECT_NE(job_seed(23, 0), job_seed(24, 0));  // base seed matters
}

TEST(PlanTest, EnumeratesJobsUpFront) {
  ExperimentPlan plan;
  plan.add_cell(cg_config(), 4);
  plan.add_cell(cg_config("DUFP", 0.10), 3);
  EXPECT_EQ(plan.cell_count(), 2u);
  EXPECT_EQ(plan.job_count(), 7u);
  EXPECT_FALSE(plan.finished());
  EXPECT_THROW(plan.result(0), std::logic_error);
}

TEST(PlanTest, JobEnumerationOrderIsTheDocumentedContract) {
  // Cell-major in add_cell order, repetition-minor (0..reps-1) — the
  // shard layer assigns jobs to shards by index and the gather merges by
  // index, so this ordering is a cross-process wire contract.
  ExperimentPlan plan;
  plan.add_cell(cg_config(), 3);
  plan.add_cell(cg_config("DUFP", 0.10), 2);
  ASSERT_EQ(plan.job_count(), 5u);
  const ExperimentPlan::CellId want_cell[] = {0, 0, 0, 1, 1};
  const int want_rep[] = {0, 1, 2, 0, 1};
  for (std::size_t i = 0; i < plan.job_count(); ++i) {
    EXPECT_EQ(plan.job(i).cell, want_cell[i]) << "job " << i;
    EXPECT_EQ(plan.job(i).repetition, want_rep[i]) << "job " << i;
  }
}

TEST(PlanTest, JobConfigAppliesTheDerivedSeed) {
  ExperimentPlan plan;
  plan.add_cell(cg_config(), 2);
  // job_config is the single seed-derivation point: a job's seed is a
  // pure function of (cell base seed, repetition), never of placement.
  EXPECT_EQ(plan.job_config(0).seed, job_seed(23, 0));
  EXPECT_EQ(plan.job_config(1).seed, job_seed(23, 1));
  EXPECT_EQ(plan.job_config(0).policy_name, "");
  EXPECT_THROW(plan.job_config(2), std::out_of_range);
}

TEST(PlanTest, RunJobsPlusFinishWithEqualsRun) {
  // The gather path in miniature: execute the jobs in two disjoint
  // slices (out of order), reassemble by index, and finish the plan —
  // bit-identical to plan.run().
  auto build = [] {
    ExperimentPlan plan;
    plan.add_cell(cg_config(), 3);
    plan.add_cell(cg_config("DUFP", 0.10), 2);
    return plan;
  };
  ExperimentPlan whole = build();
  whole.run(1);

  ExperimentPlan sharded = build();
  const auto odd = sharded.run_jobs({3, 1}, 1);
  const auto even = sharded.run_jobs({0, 2, 4}, 1);
  std::vector<RunResult> merged(5);
  merged[3] = odd[0];
  merged[1] = odd[1];
  merged[0] = even[0];
  merged[2] = even[1];
  merged[4] = even[2];
  sharded.finish_with(std::move(merged));

  expect_identical(whole.result(0), sharded.result(0));
  expect_identical(whole.result(1), sharded.result(1));
}

TEST(PlanTest, FinishWithRejectsSizeMismatch) {
  ExperimentPlan plan;
  plan.add_cell(cg_config(), 2);
  std::vector<RunResult> too_few(1);
  EXPECT_THROW(plan.finish_with(std::move(too_few)), std::invalid_argument);
}

TEST(PlanTest, SerialAndParallelBitIdentical) {
  // The tentpole guarantee, on a short CG run: baseline + DUFP cells,
  // 4 repetitions, 1 worker vs 4 workers.
  auto build = [] {
    ExperimentPlan plan;
    plan.add_cell(cg_config(), 4);
    plan.add_cell(cg_config("DUFP", 0.10), 4);
    return plan;
  };
  ExperimentPlan serial = build();
  serial.run(1);
  ExperimentPlan parallel = build();
  parallel.run(4);

  expect_identical(serial.result(0), parallel.result(0));
  expect_identical(serial.result(1), parallel.result(1));
}

TEST(PlanTest, RunRepeatedIsAThinWrapperOverThePlan) {
  ExperimentPlan plan;
  const auto id = plan.add_cell(cg_config(), 3);
  plan.run(2);
  expect_identical(plan.result(id), run_repeated(cg_config(), 3));
}

TEST(PlanTest, RepetitionSeedsDiffer) {
  ExperimentPlan plan;
  const auto id = plan.add_cell(cg_config(), 4);
  plan.run(4);
  // Distinct derived seeds -> jitter makes the error bars non-degenerate.
  EXPECT_GT(plan.result(id).exec_seconds.max,
            plan.result(id).exec_seconds.min);
}

TEST(PlanTest, AddCellReportsEveryProblemAtOnce) {
  RunConfig bad;  // null profile
  bad.tolerated_slowdown = -0.5;
  bad.policy.interval = SimTime::from_millis(0);
  ExperimentPlan plan;
  try {
    plan.add_cell(bad, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("profile is required"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tolerated_slowdown"), std::string::npos) << msg;
    EXPECT_NE(msg.find("policy.interval"), std::string::npos) << msg;
  }
  EXPECT_THROW(plan.add_cell(cg_config(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace dufp::harness
