#include "powercap/zone.h"

#include <gtest/gtest.h>

#include <string>

#include "common/units.h"
#include "hwmodel/socket_model.h"
#include "msr/registers.h"
#include "msr/sim_msr.h"
#include "rapl/rapl_engine.h"

namespace dufp::powercap {
namespace {

class ZoneTest : public ::testing::Test {
 protected:
  ZoneTest()
      : socket_(cfg_, 0),
        dev_(cfg_.cores),
        engine_(socket_, dev_),
        pkg_(dev_) {}

  hw::SocketConfig cfg_;
  hw::SocketModel socket_;
  msr::SimulatedMsr dev_;
  rapl::RaplEngine engine_;
  PackageZone pkg_;
};

TEST_F(ZoneTest, DefaultLimitsMatchTableI) {
  EXPECT_DOUBLE_EQ(pkg_.power_limit_w(ConstraintId::long_term), 125.0);
  EXPECT_DOUBLE_EQ(pkg_.power_limit_w(ConstraintId::short_term), 150.0);
}

TEST_F(ZoneTest, MicrowattInterfaceRoundTrips) {
  pkg_.set_power_limit_uw(0, 110'000'000ull);
  EXPECT_EQ(pkg_.power_limit_uw(0), 110'000'000ull);
  // Quantized to 1/8 W internally, so an off-grid value is rounded.
  pkg_.set_power_limit_uw(0, 110'060'000ull);
  const double w = uw_to_watts(pkg_.power_limit_uw(0));
  EXPECT_NEAR(w, 110.06, 0.0625);
}

TEST_F(ZoneTest, WattConvenienceSettersWork) {
  pkg_.set_power_limit_w(ConstraintId::long_term, 95.0);
  pkg_.set_power_limit_w(ConstraintId::short_term, 95.0);
  EXPECT_DOUBLE_EQ(pkg_.power_limit_w(ConstraintId::long_term), 95.0);
  EXPECT_DOUBLE_EQ(pkg_.power_limit_w(ConstraintId::short_term), 95.0);
  // The governor received both.
  EXPECT_DOUBLE_EQ(engine_.governor().limit().long_term_w, 95.0);
  EXPECT_DOUBLE_EQ(engine_.governor().limit().short_term_w, 95.0);
}

TEST_F(ZoneTest, SettingOneConstraintPreservesTheOther) {
  pkg_.set_power_limit_w(ConstraintId::long_term, 100.0);
  EXPECT_DOUBLE_EQ(pkg_.power_limit_w(ConstraintId::short_term), 150.0);
}

TEST_F(ZoneTest, TimeWindows) {
  // Defaults: ~1 s long term, ~10 ms short term (Table I text).
  EXPECT_NEAR(pkg_.time_window_s(ConstraintId::long_term), 1.0, 0.05);
  EXPECT_NEAR(pkg_.time_window_s(ConstraintId::short_term), 0.01, 0.003);
  pkg_.set_time_window_us(0, 500'000);
  EXPECT_NEAR(pkg_.time_window_s(ConstraintId::long_term), 0.5, 0.1);
}

TEST_F(ZoneTest, TdpReported) { EXPECT_DOUBLE_EQ(pkg_.tdp_w(), 125.0); }

TEST_F(ZoneTest, InvalidConstraintIndexThrows) {
  EXPECT_THROW(pkg_.power_limit_uw(2), std::invalid_argument);
  EXPECT_THROW(pkg_.set_power_limit_uw(5, 1), std::invalid_argument);
}

TEST_F(ZoneTest, NonPositiveWattLimitRejected) {
  EXPECT_THROW(pkg_.set_power_limit_w(ConstraintId::long_term, 0.0),
               std::invalid_argument);
}

TEST_F(ZoneTest, LockedPowerLimitRegisterRejectsWrites) {
  // Set the PL lock bit (bit 63) the way locked BIOSes leave it; from
  // then on every limit write must fault and leave the limits untouched.
  dev_.poke(msr::kMsrPkgPowerLimit,
            dev_.peek(msr::kMsrPkgPowerLimit) | (1ULL << 63));
  EXPECT_THROW(pkg_.set_power_limit_w(ConstraintId::long_term, 100.0),
               msr::MsrError);
  EXPECT_DOUBLE_EQ(pkg_.power_limit_w(ConstraintId::long_term), 125.0);
  try {
    pkg_.set_power_limit_w(ConstraintId::short_term, 90.0);
    FAIL() << "expected MsrError";
  } catch (const msr::MsrError& e) {
    EXPECT_NE(std::string(e.what()).find("lock"), std::string::npos);
  }
}

}  // namespace
}  // namespace dufp::powercap
