// Asserts the qualitative shapes of the paper's evaluation (Sec. V) so a
// regression in the models or controllers that breaks the reproduction is
// caught by ctest, not only by eyeballing the figure benches.
//
// These run a reduced protocol (1 socket, 1 run per cell — the simulator
// is deterministic per seed) and assert *shapes* with generous margins,
// not absolute numbers.
#include <gtest/gtest.h>

#include "harness/runner.h"
#include "workloads/profiles.h"

namespace dufp::harness {
namespace {

using workloads::AppId;

struct Cell {
  double slowdown_pct;
  double pkg_savings_pct;
  double energy_change_pct;
  double dram_savings_pct;
};

Cell run_cell(AppId app, const std::string& policy, double tol,
              std::uint64_t seed = 41) {
  RunConfig cfg;
  cfg.profile = &workloads::profile(app);
  cfg.machine.sockets = 1;
  cfg.seed = seed;
  const auto base = run_once(cfg);
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = tol;
  const auto res = run_once(cfg);
  Cell c;
  c.slowdown_pct =
      percent_over(res.summary.exec_seconds, base.summary.exec_seconds);
  c.pkg_savings_pct = -percent_over(res.summary.avg_pkg_power_w,
                                    base.summary.avg_pkg_power_w);
  c.energy_change_pct = percent_over(res.summary.total_energy_j(),
                                     base.summary.total_energy_j());
  c.dram_savings_pct = -percent_over(res.summary.avg_dram_power_w,
                                     base.summary.avg_dram_power_w);
  return c;
}

TEST(PaperShapesTest, DufpProvidesPowerSavingsForAllApplications) {
  // Sec. V-H: "DUFP manages to reduce the power consumption of all
  // applications" (at 10 % tolerance).
  for (AppId app : workloads::all_apps()) {
    const auto c = run_cell(app, "DUFP", 0.10);
    EXPECT_GT(c.pkg_savings_pct, 0.0) << workloads::app_name(app);
  }
}

TEST(PaperShapesTest, SlowdownRespectedForMostConfigurations) {
  // Sec. V-A: respected for ~85 % of configurations; violations stay
  // within ~3 points of the tolerance.
  int total = 0;
  int respected = 0;
  for (AppId app : workloads::all_apps()) {
    for (double tol : {0.05, 0.10, 0.20}) {
      const auto c = run_cell(app, "DUFP", tol);
      ++total;
      if (c.slowdown_pct <= tol * 100.0 + 0.3) ++respected;
      EXPECT_LT(c.slowdown_pct, tol * 100.0 + 3.5)
          << workloads::app_name(app) << " @ " << tol;
    }
  }
  EXPECT_GE(static_cast<double>(respected) / total, 0.7);
}

TEST(PaperShapesTest, CgAt20MatchesHeadline) {
  // The paper's headline comparison (Sec. V-B): DUF ~9.66 %, DUFP
  // ~17.57 % — DUFP beats DUF by several points on CG at 20 %.
  const auto duf = run_cell(AppId::cg, "DUF", 0.20);
  const auto dufp = run_cell(AppId::cg, "DUFP", 0.20);
  EXPECT_GT(duf.pkg_savings_pct, 5.0);
  EXPECT_LT(duf.pkg_savings_pct, 14.0);
  EXPECT_GT(dufp.pkg_savings_pct, duf.pkg_savings_pct + 3.0);
  EXPECT_LT(dufp.pkg_savings_pct, 24.0);
}

TEST(PaperShapesTest, CgAt10SavesPowerAndEnergy) {
  // Sec. V-D: CG @10 % saves both power (~14 %) and total energy (~5 %).
  const auto c = run_cell(AppId::cg, "DUFP", 0.10);
  EXPECT_GT(c.pkg_savings_pct, 6.0);
  EXPECT_LT(c.energy_change_pct, 0.5);
}

TEST(PaperShapesTest, EpDominatedByUncoreScaling) {
  // Sec. V-B: EP has the best savings, mostly from uncore scaling.
  const auto duf = run_cell(AppId::ep, "DUF", 0.10);
  const auto dufp = run_cell(AppId::ep, "DUFP", 0.10);
  EXPECT_GT(duf.pkg_savings_pct, 12.0);             // uncore alone is large
  EXPECT_GE(dufp.pkg_savings_pct, duf.pkg_savings_pct - 1.0);
  EXPECT_LT(dufp.pkg_savings_pct - duf.pkg_savings_pct, 8.0);
  EXPECT_LT(duf.slowdown_pct, 3.0);                  // and nearly free
}

TEST(PaperShapesTest, DufCannotSaveOnBtButDufpCan) {
  // Sec. V-B: BT @20 % — DUF 0.64 %, DUFP 5.14 %.
  const auto duf = run_cell(AppId::bt, "DUF", 0.20);
  const auto dufp = run_cell(AppId::bt, "DUFP", 0.20);
  EXPECT_LT(duf.pkg_savings_pct, 2.0);
  EXPECT_GT(dufp.pkg_savings_pct, 4.0);
}

TEST(PaperShapesTest, FtCappingRoughlyDoublesUncoreSavingsAt10) {
  // Sec. V-B: "the power savings with FT almost double with DUFP".
  const auto duf = run_cell(AppId::ft, "DUF", 0.10);
  const auto dufp = run_cell(AppId::ft, "DUFP", 0.10);
  EXPECT_GT(dufp.pkg_savings_pct, duf.pkg_savings_pct * 1.4);
}

TEST(PaperShapesTest, HplSavingsStayBelowSeven) {
  // Sec. V-F: CPU-intensive codes (HPL, BT) stay below ~7 % savings up
  // to moderate tolerance.
  const auto c = run_cell(AppId::hpl, "DUFP", 0.10);
  EXPECT_LT(c.pkg_savings_pct, 8.0);
  EXPECT_GE(c.energy_change_pct, -2.0);  // no real energy gain either
}

TEST(PaperShapesTest, EnergyNeutralOrBetterUpToTenPercent) {
  // Sec. V-D: up to 10 % tolerance, no energy loss for most apps.
  int losses = 0;
  for (AppId app : workloads::all_apps()) {
    const auto c = run_cell(app, "DUFP", 0.10);
    if (c.energy_change_pct > 1.0) ++losses;
  }
  EXPECT_LE(losses, 2);
}

TEST(PaperShapesTest, TwentyPercentToleranceCanLoseEnergy) {
  // Sec. V-D: at 20 % the slowdown outweighs the savings for several
  // memory-heavy apps (CG, LU, MG, LAMMPS).
  int near_or_loss = 0;
  for (AppId app : {AppId::cg, AppId::lu, AppId::mg, AppId::lammps}) {
    const auto c = run_cell(app, "DUFP", 0.20);
    if (c.energy_change_pct > -2.0) ++near_or_loss;
  }
  EXPECT_GE(near_or_loss, 2);
}

TEST(PaperShapesTest, DramPowerSavingsTrackBandwidthReduction) {
  // Fig. 4: DRAM power savings for memory apps, best on CG @20 (~9 %).
  const auto cg = run_cell(AppId::cg, "DUFP", 0.20);
  EXPECT_GT(cg.dram_savings_pct, 4.0);
  EXPECT_LT(cg.dram_savings_pct, 16.0);
  const auto ep = run_cell(AppId::ep, "DUFP", 0.20);
  EXPECT_LT(ep.dram_savings_pct, 2.0);  // EP barely touches DRAM
}

TEST(PaperShapesTest, ZeroToleranceGivesBestEnergyForMostApps) {
  // Sec. V-H: "for most applications, 0 % tolerated slowdown offers the
  // best energy savings".
  int zero_best_or_close = 0;
  for (AppId app : {AppId::cg, AppId::ep, AppId::ft, AppId::hpl}) {
    const auto e0 = run_cell(app, "DUFP", 0.0).energy_change_pct;
    const auto e20 = run_cell(app, "DUFP", 0.20).energy_change_pct;
    if (e0 <= e20 + 1.5) ++zero_best_or_close;
  }
  EXPECT_GE(zero_best_or_close, 3);
}

}  // namespace
}  // namespace dufp::harness
