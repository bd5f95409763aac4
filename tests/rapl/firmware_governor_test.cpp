#include "rapl/firmware_governor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "hwmodel/socket_model.h"
#include "msr/registers.h"

namespace dufp::rapl {
namespace {

hw::PhaseDemand hot_demand() {
  hw::PhaseDemand d;
  d.w_cpu = 0.9;
  d.w_mem = 0.05;
  d.w_unc = 0.0;
  d.w_fixed = 0.05;
  d.cpu_activity = 1.1;  // demands more than TDP at full clock
  d.mem_activity = 0.5;
  d.flops_rate_ref = 100e9;
  d.bytes_rate_ref = 10e9;
  return d;
}

class GovernorTest : public ::testing::Test {
 protected:
  GovernorTest() : socket_(cfg_, 0), gov_(socket_, params_) {}

  /// Runs the control loop for `ms` milliseconds against the socket.
  void run(int ms) {
    for (int i = 0; i < ms; ++i) {
      gov_.tick();
      const auto inst = socket_.evaluate();
      gov_.record_power(inst.pkg_power_w, 0.001);
    }
  }

  msr::PowerLimit limit(double both_w) {
    msr::PowerLimit pl;
    pl.long_term_w = both_w;
    pl.long_term_window_s = 1.0;
    pl.long_term_enabled = true;
    pl.short_term_w = both_w;
    pl.short_term_window_s = 0.01;
    pl.short_term_enabled = true;
    return pl;
  }

  hw::SocketConfig cfg_;
  GovernorParams params_;
  hw::SocketModel socket_;
  FirmwareGovernor gov_;
};

TEST_F(GovernorTest, StartsWithHardwareDefaults) {
  EXPECT_DOUBLE_EQ(gov_.limit().long_term_w, 125.0);
  EXPECT_DOUBLE_EQ(gov_.limit().short_term_w, 150.0);
  EXPECT_TRUE(gov_.limit().long_term_enabled);
}

TEST_F(GovernorTest, NoThrottlingWhenDemandBelowCap) {
  hw::PhaseDemand d = hot_demand();
  d.cpu_activity = 0.5;  // well under 125 W
  socket_.set_demand(d);
  run(500);
  EXPECT_DOUBLE_EQ(socket_.effective_core_mhz(), 2800.0);
}

TEST_F(GovernorTest, EnforcesTdpOnHotWorkload) {
  socket_.set_demand(hot_demand());
  run(2000);
  // Settled: long-window average must respect 125 W.
  EXPECT_LE(gov_.long_term_avg_w(), 125.0 + 1.0);
  EXPECT_LT(socket_.effective_core_mhz(), 2800.0);
}

TEST_F(GovernorTest, LowerCapLowersFrequency) {
  socket_.set_demand(hot_demand());
  gov_.set_limit(limit(100.0));
  run(2000);
  const double f100 = socket_.effective_core_mhz();
  gov_.set_limit(limit(80.0));
  run(2000);
  const double f80 = socket_.effective_core_mhz();
  EXPECT_LT(f80, f100);
  EXPECT_LE(gov_.long_term_avg_w(), 81.0);
}

TEST_F(GovernorTest, CapTakesTimeToBite) {
  // Sec. IV-D: the consumed power can exceed a freshly lowered cap for a
  // while — verify the settling takes at least a few milliseconds and
  // that power eventually complies.
  socket_.set_demand(hot_demand());
  run(1500);
  gov_.set_limit(limit(90.0));
  gov_.tick();
  const auto inst = socket_.evaluate();
  EXPECT_GT(inst.pkg_power_w, 90.0);  // not yet applied
  run(1500);
  EXPECT_LE(socket_.evaluate().pkg_power_w, 92.0);
}

TEST_F(GovernorTest, ThrottleSlewLimitsStepPerTick) {
  socket_.set_demand(hot_demand());
  run(100);
  const double before = gov_.current_limit_mhz();
  gov_.set_limit(limit(70.0));
  gov_.tick();
  EXPECT_GE(gov_.current_limit_mhz(),
            before - params_.throttle_slew_mhz - 1e-9);
}

TEST_F(GovernorTest, RecoversAfterCapRaise) {
  socket_.set_demand(hot_demand());
  gov_.set_limit(limit(80.0));
  run(2000);
  EXPECT_LT(socket_.effective_core_mhz(), 2500.0);
  gov_.set_limit(limit(200.0));
  run(3000);
  EXPECT_DOUBLE_EQ(socket_.effective_core_mhz(), 2800.0);
}

TEST_F(GovernorTest, ShortTermAllowsBurstsLongTermHolds) {
  // With a 150 W short-term and 125 W long-term, a cold start lets power
  // exceed 125 briefly, but the 1 s average converges below the limit.
  socket_.set_demand(hot_demand());
  double max_instant = 0.0;
  for (int i = 0; i < 3000; ++i) {
    gov_.tick();
    const auto inst = socket_.evaluate();
    max_instant = std::max(max_instant, inst.pkg_power_w);
    gov_.record_power(inst.pkg_power_w, 0.001);
  }
  EXPECT_GT(max_instant, 125.0);
  EXPECT_LE(gov_.long_term_avg_w(), 126.0);
}

TEST_F(GovernorTest, DisabledConstraintNotEnforced) {
  socket_.set_demand(hot_demand());
  msr::PowerLimit pl = limit(60.0);
  pl.long_term_enabled = false;
  pl.short_term_enabled = false;
  gov_.set_limit(pl);
  run(1000);
  EXPECT_DOUBLE_EQ(socket_.effective_core_mhz(), 2800.0);
}

TEST_F(GovernorTest, IdleSocketNeverThrottled) {
  socket_.set_demand(hw::PhaseDemand::make_idle());
  gov_.set_limit(limit(65.0));
  run(1000);
  EXPECT_DOUBLE_EQ(socket_.effective_core_mhz(), 2800.0);
}

TEST(GovernorWindowTest, FaultSizedLongWindowMatchesASmallReference) {
  // Two stacked bit flips turn the long-term window's Y field into 30:
  // 2^30 time units = 2^20 s, about 1.05e9 ticks.  Storage grows with the
  // samples pushed, so over a few thousand ticks the governor must behave
  // bit for bit like one whose window is merely longer than the run.
  hw::SocketConfig cfg;
  GovernorParams params;
  hw::SocketModel socket(cfg, 0), ref_socket(cfg, 0);
  FirmwareGovernor gov(socket, params), ref(ref_socket, params);
  socket.set_demand(hot_demand());
  ref_socket.set_demand(hot_demand());

  msr::PowerLimit pl = gov.limit();
  pl.long_term_w = 90.0;
  pl.long_term_window_s = msr::decode_time_window(30, msr::RaplUnits{});
  ASSERT_GT(pl.long_term_window_s / params.tick_s, 1e9);
  gov.set_limit(pl);
  pl.long_term_window_s = 5.0;  // 5000 ticks: never fills below
  ref.set_limit(pl);

  for (int i = 0; i < 4000; ++i) {
    gov.tick();
    ref.tick();
    ASSERT_EQ(gov.current_limit_mhz(), ref.current_limit_mhz()) << i;
    const double p = socket.evaluate().pkg_power_w;
    ASSERT_EQ(p, ref_socket.evaluate().pkg_power_w) << i;
    gov.record_power(p, params.tick_s);
    ref.record_power(p, params.tick_s);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(gov.long_term_avg_w()),
              std::bit_cast<std::uint64_t>(ref.long_term_avg_w()))
        << i;
  }
  EXPECT_LT(socket.effective_core_mhz(), cfg.core_max_mhz)
      << "the 90 W cap should bite, so the decisions were exercised";
}

}  // namespace
}  // namespace dufp::rapl
