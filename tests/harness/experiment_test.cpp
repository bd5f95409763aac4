#include "harness/experiment.h"

#include <gtest/gtest.h>

namespace dufp::harness {
namespace {

TEST(ExperimentTest, PaperTolerances) {
  EXPECT_EQ(paper_tolerances(),
            (std::vector<double>{0.0, 0.05, 0.10, 0.20}));
}

TEST(ExperimentTest, DefaultRunConfigWiresProfile) {
  const auto& prof = workloads::profile(workloads::AppId::ep);
  const auto cfg = default_run_config(prof);
  EXPECT_EQ(cfg.profile, &prof);
  EXPECT_GE(cfg.machine.sockets, 1);
}

TEST(ExperimentTest, EvaluationDerivedMetrics) {
  // Build a tiny evaluation by hand and check the percentage math.
  RepeatedResult base;
  base.exec_seconds.mean = 100.0;
  base.avg_pkg_power_w.mean = 400.0;
  base.avg_dram_power_w.mean = 80.0;
  base.total_energy_j.mean = 48'000.0;

  RepeatedResult dufp;
  dufp.exec_seconds.mean = 105.0;
  dufp.exec_seconds.min = 104.0;
  dufp.exec_seconds.max = 106.0;
  dufp.avg_pkg_power_w.mean = 360.0;
  dufp.avg_dram_power_w.mean = 76.0;
  dufp.total_energy_j.mean = 45'600.0;

  EvaluationCell cell;
  cell.policy = "DUFP";
  cell.tolerance = 0.10;
  cell.result = dufp;
  Evaluation eval(workloads::AppId::cg, base, {cell});

  EXPECT_NEAR(eval.slowdown_pct("DUFP", 0.10), 5.0, 1e-9);
  EXPECT_NEAR(eval.slowdown_pct_min("DUFP", 0.10), 4.0, 1e-9);
  EXPECT_NEAR(eval.slowdown_pct_max("DUFP", 0.10), 6.0, 1e-9);
  EXPECT_NEAR(eval.pkg_power_savings_pct("DUFP", 0.10), 10.0,
              1e-9);
  EXPECT_NEAR(eval.dram_power_savings_pct("DUFP", 0.10), 5.0,
              1e-9);
  EXPECT_NEAR(eval.energy_change_pct("DUFP", 0.10), -5.0, 1e-9);
}

TEST(ExperimentTest, MissingCellThrows) {
  RepeatedResult base;
  base.exec_seconds.mean = 1.0;
  Evaluation eval(workloads::AppId::cg, base, {});
  EXPECT_THROW(eval.at("DUF", 0.05), std::invalid_argument);
}

TEST(ExperimentTest, EvaluateAppEndToEndSmallGrid) {
  // One app, one mode, one tolerance, two repetitions — a smoke test of
  // the full grid machinery (the figure benches run the real thing).
  setenv("DUFP_SOCKETS", "1", 1);
  setenv("DUFP_QUIET", "1", 1);
  const auto eval = evaluate_app(workloads::AppId::ep, {"DUF"}, {0.10}, 2, 3);
  unsetenv("DUFP_SOCKETS");
  unsetenv("DUFP_QUIET");

  // EP under DUF: significant power savings, tiny slowdown.
  EXPECT_GT(eval.pkg_power_savings_pct("DUF", 0.10), 8.0);
  EXPECT_LT(eval.slowdown_pct("DUF", 0.10), 5.0);
}

}  // namespace
}  // namespace dufp::harness
