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

// ---------------------------------------------------------------------------
// calm_run: the engine's tier-2 kernel against the per-tick reference.

/// A socket and its governor, so two rigs can start from identical state.
struct Rig {
  explicit Rig(const hw::PhaseDemand& d) : socket(cfg, 0), gov(socket, params) {
    socket.set_demand(d);
  }
  /// Reference tick: what the engine's exact stepper does.
  void step() {
    gov.tick();
    gov.record_power(socket.evaluate().pkg_power_w, params.tick_s);
  }
  hw::SocketConfig cfg;
  GovernorParams params;
  hw::SocketModel socket;
  FirmwareGovernor gov;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_window(const WindowedMean& a, const WindowedMean& b) {
  EXPECT_EQ(bits(a.mean()), bits(b.mean()));
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.run_length(), b.run_length());
}

void expect_same_governor(const FirmwareGovernor& a,
                          const FirmwareGovernor& b) {
  expect_same_window(a.long_window(), b.long_window());
  expect_same_window(a.short_window(), b.short_window());
  EXPECT_EQ(a.windows_uniform(), b.windows_uniform());
  EXPECT_EQ(bits(a.current_limit_mhz()), bits(b.current_limit_mhz()));
}

/// Runs calm_run(v, n) on `a` and the per-tick reference on `b` (same
/// state, same v) up to the reference's first flip; both must agree on
/// where it is and on every observable before it.  Returns the count.
std::size_t expect_calm_run_matches(Rig& a, Rig& b, std::size_t n) {
  const double v = a.socket.evaluate().pkg_power_w;
  EXPECT_EQ(bits(v), bits(b.socket.evaluate().pkg_power_w));
  const double limit_before = a.gov.current_limit_mhz();
  const std::size_t k = a.gov.calm_run(v, n);
  std::size_t ref = 0;
  while (ref < n && b.gov.planned_limit_mhz() == b.gov.current_limit_mhz()) {
    b.gov.tick();
    b.gov.record_power(v, b.params.tick_s);
    ++ref;
  }
  EXPECT_EQ(k, ref) << "calm_run stopped at a different tick";
  expect_same_governor(a.gov, b.gov);
  // The flip tick is the caller's: the applied limit has not moved, and
  // the decision the caller's tick() will take moves it.
  EXPECT_EQ(bits(a.gov.current_limit_mhz()), bits(limit_before));
  if (k < n) {
    EXPECT_NE(a.gov.planned_limit_mhz(), a.gov.current_limit_mhz());
  }
  return k;
}

/// Drives `a` the way the engine's stretch does (calm_run, then the flip
/// tick as tick() + record_power()) and `b` tick by tick, for `ticks`
/// ticks; returns the number of flips.
std::size_t drive_like_engine(Rig& a, Rig& b, std::size_t ticks) {
  std::size_t flips = 0;
  for (std::size_t t = 0; t < ticks;) {
    t += expect_calm_run_matches(a, b, ticks - t);
    if (t == ticks) break;
    a.step();
    b.step();
    expect_same_governor(a.gov, b.gov);
    ++flips;
    ++t;
  }
  return flips;
}

msr::PowerLimit capped(const FirmwareGovernor& gov, double w,
                       double long_window_s) {
  msr::PowerLimit pl = gov.limit();
  pl.long_term_w = w;
  pl.short_term_w = w;
  pl.long_term_window_s = long_window_s;
  return pl;
}

TEST(GovernorCalmRunTest, FullWindowsMatchPerTickUpToTheFlip) {
  Rig a(hot_demand());
  Rig b(hot_demand());
  a.gov.set_limit(capped(a.gov, 90.0, 1.0));
  b.gov.set_limit(capped(b.gov, 90.0, 1.0));
  for (int i = 0; i < 2500; ++i) {
    a.step();
    b.step();
  }
  ASSERT_TRUE(a.gov.long_window().full() && a.gov.short_window().full());
  EXPECT_GT(drive_like_engine(a, b, 3000), 0u)
      << "the cap never moved the limit: no flip was checked";
  EXPECT_LT(a.socket.effective_core_mhz(), a.cfg.core_max_mhz);
}

TEST(GovernorCalmRunTest, FillingWindowsMatchPerTick) {
  // Fresh governors: both windows fill inside the first calm runs, so the
  // per-tick body hands over to the register-resident one mid-call.
  Rig a(hot_demand());
  Rig b(hot_demand());
  a.gov.set_limit(capped(a.gov, 90.0, 1.0));
  b.gov.set_limit(capped(b.gov, 90.0, 1.0));
  ASSERT_EQ(a.gov.long_window().size(), 0u);
  EXPECT_GT(drive_like_engine(a, b, 2500), 0u);
  EXPECT_TRUE(a.gov.long_window().full());
}

TEST(GovernorCalmRunTest, FaultSizedWindowGrownPastEagerSlots) {
  // A long window past RingBuffer::kEagerSlots grows while it fills and is
  // then a full ring of its declared size.
  const double window_s = 2.5 * RingBuffer<double>::kEagerSlots * 0.001;
  Rig a(hot_demand());
  Rig b(hot_demand());
  a.gov.set_limit(capped(a.gov, 90.0, window_s));
  b.gov.set_limit(capped(b.gov, 90.0, window_s));
  const std::size_t cap = a.gov.long_window().capacity();
  ASSERT_GT(cap, 2 * RingBuffer<double>::kEagerSlots);
  EXPECT_GT(drive_like_engine(a, b, cap + 3000), 0u);
  EXPECT_TRUE(a.gov.long_window().full());
}

TEST(GovernorCalmRunTest, TopStateCellHasNoUpperEdge) {
  // Demand well under the cap: the limit sits at core_max, whose cell is
  // unbounded above, so every tick is calm.
  hw::PhaseDemand d = hot_demand();
  d.cpu_activity = 0.5;
  Rig a(d);
  Rig b(d);
  for (int i = 0; i < 1500; ++i) {
    a.step();
    b.step();
  }
  ASSERT_EQ(a.gov.current_limit_mhz(), a.cfg.core_max_mhz);
  EXPECT_EQ(expect_calm_run_matches(a, b, 5000), 5000u);
  EXPECT_TRUE(a.gov.windows_uniform());
  EXPECT_EQ(a.gov.calm_run(a.socket.evaluate().pkg_power_w, 0), 0u);
}

}  // namespace
}  // namespace dufp::rapl
