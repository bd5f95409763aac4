#include "hwmodel/power_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "hwmodel/socket_config.h"

namespace dufp::hw {
namespace {

PhaseDemand compute_demand() {
  PhaseDemand d;
  d.w_cpu = 0.95;
  d.w_mem = 0.0;
  d.w_unc = 0.0;
  d.w_fixed = 0.05;
  d.cpu_activity = 1.0;
  d.mem_activity = 0.1;
  return d;
}

PhaseDemand memory_demand() {
  PhaseDemand d;
  d.w_cpu = 0.1;
  d.w_mem = 0.8;
  d.w_unc = 0.05;
  d.w_fixed = 0.05;
  d.cpu_activity = 0.7;
  d.mem_activity = 1.0;
  return d;
}

class PowerModelTest : public ::testing::Test {
 protected:
  SocketConfig cfg_;
  PowerModel model_{cfg_.power, cfg_.cores, cfg_.f_ref_mhz(),
                    cfg_.fu_ref_mhz()};
};

TEST_F(PowerModelTest, ReferencePointNearTdp) {
  // A compute-heavy phase at the reference point should land close to the
  // 125 W TDP of the Gold 6130 (the paper notes default runs sit near the
  // budget).
  const double p =
      model_.package_power_w(2800.0, 2400.0, compute_demand());
  EXPECT_GT(p, 105.0);
  EXPECT_LT(p, 130.0);
}

TEST_F(PowerModelTest, MonotoneInCoreFrequency) {
  const auto d = compute_demand();
  double prev = 0.0;
  for (double f = 1000.0; f <= 2800.0; f += 100.0) {
    const double p = model_.package_power_w(f, 2400.0, d);
    EXPECT_GT(p, prev) << "at " << f;
    prev = p;
  }
}

TEST_F(PowerModelTest, MonotoneInUncoreFrequency) {
  const auto d = memory_demand();
  double prev = 0.0;
  for (double f = 1200.0; f <= 2400.0; f += 100.0) {
    const double p = model_.package_power_w(2800.0, f, d);
    EXPECT_GT(p, prev) << "at " << f;
    prev = p;
  }
}

TEST_F(PowerModelTest, DiminishingReturnsBelowVoltageFloor) {
  // Per 100 MHz, the watts saved above the voltage floor exceed the watts
  // saved below it (the Sec. IV-A rationale for the 65 W cap floor).
  const auto d = compute_demand();
  const double high = model_.package_power_w(2800.0, 2400.0, d) -
                      model_.package_power_w(2700.0, 2400.0, d);
  const double low = model_.package_power_w(1300.0, 2400.0, d) -
                     model_.package_power_w(1200.0, 2400.0, d);
  EXPECT_GT(high, low * 1.5);
}

TEST_F(PowerModelTest, UncoreSpanSupportsEpStory) {
  // Dropping the uncore from max to min on a compute phase must recover
  // roughly 15-25 % of package power — EP's headline result.
  const auto d = compute_demand();
  const double at_max = model_.package_power_w(2800.0, 2400.0, d);
  const double at_min = model_.package_power_w(2800.0, 1200.0, d);
  const double saving = (at_max - at_min) / at_max;
  EXPECT_GT(saving, 0.12);
  EXPECT_LT(saving, 0.30);
}

TEST_F(PowerModelTest, ActivityRaisesCorePower) {
  auto lo = compute_demand();
  lo.cpu_activity = 0.5;
  const auto hi = compute_demand();
  EXPECT_LT(model_.core_power_w(2800.0, lo), model_.core_power_w(2800.0, hi));
}

TEST_F(PowerModelTest, TrafficRaisesUncorePowerIndependentlyOfClock) {
  auto idle = compute_demand();
  idle.mem_activity = 0.0;
  auto busy = compute_demand();
  busy.mem_activity = 1.0;
  const double delta_at_max = model_.uncore_power_w(2400.0, busy) -
                              model_.uncore_power_w(2400.0, idle);
  const double delta_at_min = model_.uncore_power_w(1200.0, busy) -
                              model_.uncore_power_w(1200.0, idle);
  // IMC/PHY power is traffic-proportional, not clock-proportional.
  EXPECT_NEAR(delta_at_max, delta_at_min, 1e-9);
  EXPECT_NEAR(delta_at_max, cfg_.power.uncore_act_w, 1e-9);
}

TEST_F(PowerModelTest, DramPowerLinearInBandwidth) {
  const double p0 = model_.dram_power_w(0.0);
  const double p1 = model_.dram_power_w(50e9);
  const double p2 = model_.dram_power_w(100e9);
  EXPECT_DOUBLE_EQ(p0, cfg_.power.dram_background_w);
  EXPECT_NEAR(p2 - p1, p1 - p0, 1e-9);
}

TEST_F(PowerModelTest, InverseMatchesForward) {
  const auto d = compute_demand();
  const double unconstrained = model_.package_power_w(2800.0, 2400.0, d);
  for (double target = 70.0; target <= unconstrained - 2.0; target += 5.0) {
    const double f = model_.core_mhz_for_power(target, 2400.0, d);
    ASSERT_TRUE(std::isfinite(f));
    EXPECT_NEAR(model_.package_power_w(f, 2400.0, d), target, 0.01)
        << "target " << target;
  }
}

TEST_F(PowerModelTest, InverseInLinearRegion) {
  const auto d = compute_demand();
  // Target well below the voltage-floor knee power.
  const double f = model_.core_mhz_for_power(50.0, 1200.0, d);
  if (f > 0.0 && std::isfinite(f)) {
    EXPECT_NEAR(model_.package_power_w(f, 1200.0, d), 50.0, 0.5);
  }
}

TEST_F(PowerModelTest, InverseSaturatesAboveDemand) {
  const auto d = compute_demand();
  const double unconstrained = model_.package_power_w(2800.0, 2400.0, d);
  EXPECT_DOUBLE_EQ(
      model_.core_mhz_for_power(unconstrained + 50.0, 2400.0, d), 2800.0);
}

TEST_F(PowerModelTest, InverseZeroWhenImpossible) {
  const auto d = compute_demand();
  EXPECT_DOUBLE_EQ(model_.core_mhz_for_power(5.0, 2400.0, d), 0.0);
}

TEST_F(PowerModelTest, RejectsNonPositiveFrequency) {
  const auto d = compute_demand();
  EXPECT_THROW(model_.package_power_w(0.0, 2400.0, d),
               std::invalid_argument);
  EXPECT_THROW(model_.package_power_w(2800.0, -1.0, d),
               std::invalid_argument);
}

// Parameterized sweep: the forward/inverse pair must agree at every
// operating point and activity level.
struct InverseCase {
  double uncore_mhz;
  double activity;
};

void PrintTo(const InverseCase& c, std::ostream* os) {
  *os << "fu=" << c.uncore_mhz << ",activity=" << c.activity;
}

class PowerModelInverseSweep
    : public ::testing::TestWithParam<InverseCase> {};

TEST_P(PowerModelInverseSweep, RoundTrip) {
  const SocketConfig cfg;
  const PowerModel model(cfg.power, cfg.cores, cfg.f_ref_mhz(),
                         cfg.fu_ref_mhz());
  PhaseDemand d = compute_demand();
  d.cpu_activity = GetParam().activity;
  const double fu = GetParam().uncore_mhz;
  // Stop one step below the reference clock: at the top the inverse is
  // defined to clamp, not to round-trip.
  for (double f = 1000.0; f <= 2600.0; f += 200.0) {
    const double p = model.package_power_w(f, fu, d);
    const double back = model.core_mhz_for_power(p, fu, d);
    ASSERT_TRUE(std::isfinite(back));
    EXPECT_NEAR(back, f, 1.0) << "f=" << f << " fu=" << fu;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, PowerModelInverseSweep,
    ::testing::Values(InverseCase{1200.0, 0.5}, InverseCase{1200.0, 1.0},
                      InverseCase{1800.0, 0.7}, InverseCase{2400.0, 0.5},
                      InverseCase{2400.0, 1.0}, InverseCase{2400.0, 1.2}));

}  // namespace
}  // namespace dufp::hw
