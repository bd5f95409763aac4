#include "rapl/firmware_governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "hwmodel/socket_model.h"
#include "msr/registers.h"
#include "rapl/cell_cache.h"
#include "workloads/profiles.h"

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
// calm_run: the engine's calm-stretch kernel against the per-tick reference.

/// A socket and its governor, so two rigs can start from identical state.
struct Rig {
  explicit Rig(const hw::PhaseDemand& d, const GovernorParams& p = {})
      : params(p), socket(cfg, 0), gov(socket, params) {
    socket.set_demand(d);
  }
  /// Reference tick: what the engine's exact stepper does.
  void step() {
    gov.tick();
    gov.record_power(socket.evaluate().pkg_power_w, params.tick_s);
  }
  /// What the engine does at an applied P-state before calm_run: fills
  /// its entry.  The lanes stand in for the engine's increments; the
  /// governor only stores them.
  void fill() {
    const hw::SocketInstant inst = socket.evaluate();
    gov.fill_flip_entry(inst.pkg_power_w, lanes_at(inst));
  }
  static std::array<double, FirmwareGovernor::kFlipLanes> lanes_at(
      const hw::SocketInstant& inst) {
    std::array<double, FirmwareGovernor::kFlipLanes> lanes{};
    lanes[0] = inst.pkg_power_w;
    lanes[4] = inst.core_mhz;
    return lanes;
  }
  hw::SocketConfig cfg;
  GovernorParams params;
  hw::SocketModel socket;
  FirmwareGovernor gov;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every observable of a window: sum, size, trailing run and each sample
/// in order (which pins where the next add writes).
void expect_same_window(const WindowedMean& a, const WindowedMean& b) {
  EXPECT_EQ(bits(a.sum()), bits(b.sum()));
  EXPECT_EQ(bits(a.mean()), bits(b.mean()));
  EXPECT_EQ(a.run_length(), b.run_length());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a.from_oldest(i)), bits(b.from_oldest(i))) << "sample " << i;
  }
}

void expect_same_governor(const FirmwareGovernor& a,
                          const FirmwareGovernor& b) {
  expect_same_window(a.long_window(), b.long_window());
  expect_same_window(a.short_window(), b.short_window());
  EXPECT_EQ(bits(a.current_limit_mhz()), bits(b.current_limit_mhz()));
}

void expect_same_rig(const Rig& a, const Rig& b) {
  expect_same_governor(a.gov, b.gov);
  EXPECT_EQ(bits(a.socket.core_freq_limit_mhz()),
            bits(b.socket.core_freq_limit_mhz()));
  EXPECT_EQ(bits(a.socket.core_freq_limit_mhz()),
            bits(a.gov.current_limit_mhz()));
}

/// Runs calm_run(n) with no room to log a flip on `a` and the per-tick
/// reference on `b` (same state) up to the reference's first flip; both
/// must agree on where it is and on every observable before it.  Returns
/// the count.
std::size_t expect_calm_run_matches(Rig& a, Rig& b, std::size_t n) {
  EXPECT_EQ(bits(a.socket.evaluate().pkg_power_w),
            bits(b.socket.evaluate().pkg_power_w));
  const double limit_before = a.gov.current_limit_mhz();
  a.fill();
  const FirmwareGovernor::CalmRun run = a.gov.calm_run(n, {});
  EXPECT_EQ(run.flips, 0u);
  std::size_t ref = 0;
  while (ref < n && b.gov.planned_limit_mhz() == b.gov.current_limit_mhz()) {
    b.step();
    ++ref;
  }
  EXPECT_EQ(run.ticks, ref) << "calm_run stopped at a different tick";
  expect_same_rig(a, b);
  // The flip tick is the caller's: the applied limit has not moved, and
  // the decision the caller's tick() will take moves it.
  EXPECT_EQ(bits(a.gov.current_limit_mhz()), bits(limit_before));
  if (run.ticks < n) {
    EXPECT_NE(a.gov.planned_limit_mhz(), a.gov.current_limit_mhz());
  }
  return run.ticks;
}

/// Drives `a` with calm_run taking no flip (each flip tick is the
/// caller's tick() + record_power()) and `b` tick by tick, for `ticks`
/// ticks; returns the number of flips.
std::size_t drive_like_engine(Rig& a, Rig& b, std::size_t ticks) {
  std::size_t flips = 0;
  for (std::size_t t = 0; t < ticks;) {
    t += expect_calm_run_matches(a, b, ticks - t);
    if (t == ticks) break;
    a.step();
    b.step();
    expect_same_rig(a, b);
    ++flips;
    ++t;
  }
  return flips;
}

/// What a flipping drive saw.
struct FlipDrive {
  std::size_t kernel_flips = 0;  ///< flips calm_run took
  std::size_t fills = 0;         ///< flip ticks left to the caller
  /// Tick of the first flip calm_run took, counted from the drive's start.
  std::size_t first_kernel_flip = std::numeric_limits<std::size_t>::max();
};

/// Drives `a` the way the engine's stretch does — calm_run with a flip
/// log, and each flip it leaves as tick() + record_power() + fill — and
/// `b` tick by tick, for `ticks` ticks.  Every logged flip must be a tick
/// on which the reference moved its limit to the logged state, the
/// logged state's lanes must be the ones filled there, and after every
/// call both rigs must agree bit for bit.
FlipDrive drive_flipping(Rig& a, Rig& b, std::size_t ticks) {
  FlipDrive out;
  std::vector<FirmwareGovernor::Flip> log(ticks);
  for (std::size_t t = 0; t < ticks;) {
    a.fill();
    const FirmwareGovernor::CalmRun run = a.gov.calm_run(ticks - t, log);
    std::size_t f = 0;
    for (std::size_t i = 0; i < run.ticks; ++i) {
      const bool flip =
          b.gov.planned_limit_mhz() != b.gov.current_limit_mhz();
      b.step();
      EXPECT_EQ(flip, f < run.flips && log[f].tick == i) << "tick " << t + i;
      if (f < run.flips && log[f].tick == i) {
        out.first_kernel_flip = std::min(out.first_kernel_flip, t + i);
        EXPECT_EQ(bits(pstate_mhz(a.cfg, log[f].pstate)),
                  bits(b.gov.current_limit_mhz()));
        const auto want = Rig::lanes_at(b.socket.evaluate());
        EXPECT_TRUE(std::equal(want.begin(), want.end(),
                               a.gov.flip_lanes(log[f].pstate)));
        ++f;
      }
    }
    EXPECT_EQ(f, run.flips);
    expect_same_rig(a, b);
    if (testing::Test::HasFailure()) return out;
    out.kernel_flips += run.flips;
    t += run.ticks;
    if (t == ticks) break;
    // A flip the kernel left: the reference moves its limit here too.
    EXPECT_NE(b.gov.planned_limit_mhz(), b.gov.current_limit_mhz());
    a.step();
    b.step();
    expect_same_rig(a, b);
    ++out.fills;
    ++t;
  }
  return out;
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
  EXPECT_EQ(a.gov.long_window().run_length(),
            a.gov.long_window().capacity());
  EXPECT_EQ(a.gov.short_window().run_length(),
            a.gov.short_window().capacity());
  EXPECT_EQ(a.gov.calm_run(0, {}).ticks, 0u);
}

/// A cap between two neighbouring P-states' powers: the governor dithers
/// between them, so flips are frequent and revisit the same states.
msr::PowerLimit dithering(const Rig& rig) {
  hw::SocketModel probe(rig.cfg, 0);
  probe.set_demand(rig.socket.demand());
  const double p_lo = probe.package_power_at(2000.0);
  const double p_hi = probe.package_power_at(2100.0);
  msr::PowerLimit pl = rig.gov.limit();
  pl.long_term_w = p_lo + (p_hi - p_lo) / 2.0;
  pl.short_term_w = pl.long_term_w;
  return pl;
}

TEST(GovernorCalmRunTest, FlipsInsideTheKernelMatchPerTick) {
  Rig a(hot_demand());
  Rig b(hot_demand());
  a.gov.set_limit(dithering(a));
  b.gov.set_limit(dithering(b));
  for (int i = 0; i < 2500; ++i) {
    a.step();
    b.step();
  }
  ASSERT_TRUE(a.gov.long_window().full() && a.gov.short_window().full());
  const FlipDrive d = drive_flipping(a, b, 6000);
  // First visits to each dithered state leave the kernel once; every
  // later flip into them stays inside.
  EXPECT_GT(d.fills, 0u);
  EXPECT_GT(d.kernel_flips, 10 * d.fills);
}

TEST(GovernorCalmRunTest, FlippingRunStartsWithFillingWindows) {
  // Fresh governors: the first calls run the per-tick body while the
  // windows fill, taking each flip into a filled entry there too, then
  // hand over to the register-resident loop.
  Rig a(hot_demand());
  Rig b(hot_demand());
  a.gov.set_limit(dithering(a));
  b.gov.set_limit(dithering(b));
  ASSERT_EQ(a.gov.long_window().size(), 0u);
  const FlipDrive d = drive_flipping(a, b, 4000);
  EXPECT_TRUE(a.gov.long_window().full());
  EXPECT_GT(d.fills, 0u);
  EXPECT_GT(d.kernel_flips, 0u);
  EXPECT_LT(d.first_kernel_flip, a.gov.long_window().capacity())
      << "no flip was taken while the long window filled";
}

/// Moves the cap every 200 ticks (the agent's interval) among three
/// values around `base`, so each cap comes back with a limit epoch of its
/// own, and drives `a` like the engine against `b` tick by tick.
/// Returns the flips the kernel took.
std::size_t drive_cap_steps(Rig& a, Rig& b, const msr::PowerLimit& base,
                            double step_w, int steps) {
  std::size_t kernel_flips = 0;
  for (int i = 0; i < steps; ++i) {
    msr::PowerLimit pl = base;
    pl.long_term_w += step_w * static_cast<double>(i % 3 - 1);
    pl.short_term_w += step_w * static_cast<double>(i % 3 - 1);
    a.gov.set_limit(pl);
    b.gov.set_limit(pl);
    kernel_flips += drive_flipping(a, b, 200).kernel_flips;
    if (testing::Test::HasFailure()) break;
  }
  return kernel_flips;
}

TEST(GovernorCalmRunTest, CapMovingEvery200TicksMatchesPerTick) {
  Rig a(hot_demand());
  Rig b(hot_demand());
  const msr::PowerLimit base = dithering(a);
  a.gov.set_limit(base);
  b.gov.set_limit(base);
  for (int i = 0; i < 2500; ++i) {
    a.step();
    b.step();
  }
  EXPECT_GT(drive_cap_steps(a, b, base, 1.5, 30), 100u);
}

TEST(GovernorCalmRunTest, OneConstraintDisabledMatchesPerTick) {
  // Short-term off (the long window alone decides), then long-term off.
  for (const bool short_on : {false, true}) {
    Rig a(hot_demand());
    Rig b(hot_demand());
    msr::PowerLimit pl = dithering(a);
    pl.short_term_enabled = short_on;
    pl.long_term_enabled = !short_on;
    a.gov.set_limit(pl);
    b.gov.set_limit(pl);
    for (int i = 0; i < 2500; ++i) {
      a.step();
      b.step();
    }
    EXPECT_GT(drive_flipping(a, b, 4000).kernel_flips, 10u) << short_on;
  }
}

TEST(GovernorCalmRunTest, ZeroGainMatchesPerTick) {
  // Without gain the allowance is the smaller limit whatever the windows
  // hold, so every threshold is "every sum" or "no sum", and only a cap
  // move flips the state.
  GovernorParams params;
  params.headroom_gain = 0.0;
  Rig a(hot_demand(), params);
  Rig b(hot_demand(), params);
  const msr::PowerLimit base = dithering(a);
  a.gov.set_limit(base);
  b.gov.set_limit(base);
  for (int i = 0; i < 2500; ++i) {
    a.step();
    b.step();
  }
  EXPECT_GT(drive_cap_steps(a, b, base, 10.0, 12), 0u);
}

TEST(GovernorCalmRunTest, UserPStateChangeRefillsTheFlipTable) {
  // A user P-state limit at the lower dithered state makes the upper one
  // draw the lower one's power, without bumping the socket's state
  // version.  Entries filled before the change would feed the windows the
  // old power; the table must empty and refill instead.
  Rig a(hot_demand());
  Rig b(hot_demand());
  a.gov.set_limit(dithering(a));
  b.gov.set_limit(dithering(b));
  for (int i = 0; i < 2500; ++i) {
    a.step();
    b.step();
  }
  const FlipDrive before = drive_flipping(a, b, 3000);
  ASSERT_GT(before.kernel_flips, 0u);
  // Change it at the lower state, so the next flip goes into the upper
  // one, whose entry the old key filled.
  for (int i = 0; i < 1000 && a.gov.current_limit_mhz() != 2000.0; ++i) {
    a.step();
    b.step();
  }
  ASSERT_EQ(a.gov.current_limit_mhz(), 2000.0);
  const std::uint64_t version = a.socket.state_version();
  a.socket.set_user_pstate_limit_mhz(2000.0);
  b.socket.set_user_pstate_limit_mhz(2000.0);
  ASSERT_EQ(a.socket.state_version(), version);
  const FlipDrive after = drive_flipping(a, b, 3000);
  EXPECT_GT(after.fills, 0u) << "no entry was refilled";
}

// ---------------------------------------------------------------------------
// The cell table against the reference search: planned_limit_mhz() walks
// cached edges, planned_limit_reference_mhz() runs the search afresh, and
// the two must agree bit for bit where it is hardest — on each side of
// every flip point.

/// Every distinct phase demand of the ten applications, the idle demand,
/// and one without core-dynamic power (the search's dyn_at_ref <= 0
/// branch).
std::vector<hw::PhaseDemand> sweep_demands() {
  std::vector<hw::PhaseDemand> out;
  const auto add = [&](const hw::PhaseDemand& d) {
    if (std::find(out.begin(), out.end(), d) == out.end()) out.push_back(d);
  };
  for (const workloads::AppId app : workloads::all_apps()) {
    for (const auto& phase : workloads::profile(app).phases()) {
      add(phase.demand());
    }
  }
  add(hw::PhaseDemand::make_idle());
  hw::PhaseDemand no_dyn = hot_demand();
  no_dyn.cpu_activity = 0.0;
  add(no_dyn);
  return out;
}

/// Makes the governor's allowance exactly `w` (> 0): with both windows
/// empty the long-term average reads as its own limit, so that term is
/// w + gain * 0, and the short-term constraint is off.
void set_allowance(FirmwareGovernor& gov, double w) {
  msr::PowerLimit pl = gov.limit();
  pl.long_term_w = w;
  pl.short_term_enabled = false;
  gov.set_limit(pl);
}

/// The flip point into the P-state at `mhz`: the smallest positive
/// allowance whose reference decision reaches it.  `probe` has no slew
/// limit, so its reference decision is the search output itself.
double reference_flip(FirmwareGovernor& probe, double mhz) {
  std::uint64_t lo = 0;  // +0.0 is never probed: it disables the limit
  std::uint64_t hi = bits(1e300);
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    set_allowance(probe, std::bit_cast<double>(mid));
    if (probe.planned_limit_reference_mhz() >= mhz) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return std::bit_cast<double>(hi);
}

/// One socket state of the sweep and its reference flip points: entry j
/// is the flip into state j + 1.
struct SweepState {
  double uncore_lo = 0.0;
  double uncore_hi = 0.0;
  hw::PhaseDemand demand;
  std::vector<double> flips;
};

void enter(hw::SocketModel& socket, const SweepState& state) {
  socket.set_uncore_window_mhz(state.uncore_lo, state.uncore_hi);
  socket.set_demand(state.demand);
}

/// Compares the two decisions for the socket's current state.  Allowances:
/// 1 W and 10 W (below every demand's fixed power, so the search's budget
/// is <= 0), and each flip point and the double one ULP below it.  Applied
/// limits: every third state from core_min, and core_max.  The throttle
/// slew spans three states and the unthrottle slew one, so each flip moves
/// the decision from at least one of them; `visible_flips` counts those.
void sweep_state(const SweepState& state, FirmwareGovernor& gov,
                 std::size_t& visible_flips) {
  std::vector<double> points = {1.0, 10.0};
  std::vector<double> settle = {1.0};
  for (std::size_t j = 0; j < state.flips.size(); ++j) {
    points.push_back(std::nextafter(state.flips[j], 0.0));
    points.push_back(state.flips[j]);
    if ((j + 1) % 3 == 0 || j + 1 == state.flips.size()) {
      settle.push_back(state.flips[j]);
    }
  }
  for (const double start : settle) {
    set_allowance(gov, start);
    for (int i = 0; i < 30; ++i) gov.tick();  // past every slew limit
    ASSERT_EQ(gov.planned_limit_reference_mhz(), gov.current_limit_mhz());
    double below = 0.0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      set_allowance(gov, points[p]);
      const double planned = gov.planned_limit_mhz();
      ASSERT_EQ(bits(planned), bits(gov.planned_limit_reference_mhz()))
          << "allowance " << points[p] << " applied "
          << gov.current_limit_mhz();
      if (p % 2 == 1 && p > 1 && planned != below) ++visible_flips;
      below = planned;
    }
  }
}

TEST(GovernorCellTableTest, MatchesTheReferenceSearchAtEveryFlip) {
  const hw::SocketConfig cfg;
  const auto n_states = static_cast<std::size_t>(std::lround(
                            (cfg.core_max_mhz - cfg.core_min_mhz) /
                            cfg.core_step_mhz)) +
                        1;
  // Every state: three uncore windows x every sweep demand.  The flip
  // points come from a governor without slew limits, whose reference
  // decision is the search output itself.
  std::vector<SweepState> states;
  {
    GovernorParams no_slew;
    no_slew.throttle_slew_mhz = 1e6;
    no_slew.unthrottle_slew_mhz = 1e6;
    hw::SocketModel socket(cfg, 0);
    FirmwareGovernor probe(socket, no_slew);
    for (const auto& [lo, hi] : {std::pair{1200.0, 2400.0},
                                 std::pair{1200.0, 1700.0},
                                 std::pair{1800.0, 2000.0}}) {
      for (const hw::PhaseDemand& d : sweep_demands()) {
        SweepState state{lo, hi, d, {}};
        enter(socket, state);
        for (std::size_t j = 1; j < n_states; ++j) {
          state.flips.push_back(reference_flip(
              probe, cfg.core_min_mhz +
                         static_cast<double>(j) * cfg.core_step_mhz));
        }
        states.push_back(std::move(state));
      }
    }
  }
  ASSERT_GE(states.size(), 3 * 12u);

  hw::SocketModel socket(cfg, 0);
  FirmwareGovernor gov(socket, GovernorParams{});
  std::size_t visible_flips = 0;
  for (const SweepState& state : states) {
    enter(socket, state);
    sweep_state(state, gov, visible_flips);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(visible_flips, states.size() * (n_states - 1));

  // Every edge is a closed-form estimate walked a double or two to the
  // flip: about four probes per build, counting the two range checks,
  // against ~25 for a seeded bisection.
  const CellStats& stats = gov.cell_stats();
  EXPECT_GT(stats.cold_builds, 0u);
  EXPECT_LE(stats.probes, 5 * stats.cold_builds);
}

// ---------------------------------------------------------------------------
// The calm kernel's thresholds against the allowance they stand for.

/// The allowance as tick() forms it over full windows: the smaller term
/// of the binding constraints, +inf when none binds.
double allowance_over_sums(const msr::PowerLimit& pl, double gain,
                           std::int64_t long_q, std::size_t long_span,
                           std::int64_t short_q, std::size_t short_span) {
  double a = std::numeric_limits<double>::infinity();
  if (pl.long_term_enabled && pl.long_term_w > 0.0) {
    a = std::min(a, allowance_term(pl.long_term_w, gain, long_q, long_span));
  }
  if (pl.short_term_enabled && pl.short_term_w > 0.0) {
    a = std::min(a,
                 allowance_term(pl.short_term_w, gain, short_q, short_span));
  }
  return a;
}

/// Sums at which to ask both forms: the threshold and its neighbours
/// (inside [0, INT64_MAX]), and random sums, small and physical.
std::vector<std::int64_t> probe_sums(std::int64_t t, std::size_t span,
                                     std::mt19937_64& gen) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> out;
  for (int d = -2; d <= 2; ++d) {
    if (t == std::numeric_limits<std::int64_t>::min()) {
      if (d >= 0) out.push_back(d);
    } else if (!(d < 0 && t < -d) && !(d > 0 && t > kMax - d)) {
      out.push_back(t + d);
    }
  }
  // Up to a window full of 400 W samples.
  const double full = static_cast<double>(span) * 400.0 * 0x1p30;
  const double cap = std::min(full, 0x1p62);
  out.push_back(static_cast<std::int64_t>(
      std::uniform_real_distribution<double>(0.0, cap)(gen)));
  out.push_back(static_cast<std::int64_t>(gen() % 4096));
  return out;
}

TEST(GovernorThresholdTest, SumsAtTheThresholdsAnswerLikeTheAllowance) {
  // Edges: the governor's own flip points under a few socket states,
  // random watts (negative ones included), and the two infinities.
  std::mt19937_64 gen(27);
  std::vector<double> edges = {-std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::infinity()};
  {
    GovernorParams no_slew;
    no_slew.throttle_slew_mhz = 1e6;
    no_slew.unthrottle_slew_mhz = 1e6;
    const hw::SocketConfig cfg;
    hw::SocketModel socket(cfg, 0);
    FirmwareGovernor probe(socket, no_slew);
    hw::PhaseDemand cool = hot_demand();
    cool.cpu_activity = 0.4;
    for (const hw::PhaseDemand& d : {hot_demand(), cool}) {
      socket.set_demand(d);
      for (double mhz = cfg.core_min_mhz + cfg.core_step_mhz;
           mhz <= cfg.core_max_mhz; mhz += cfg.core_step_mhz) {
        edges.push_back(reference_flip(probe, mhz));
      }
    }
  }
  std::uniform_real_distribution<double> watts(-50.0, 400.0);
  for (int i = 0; i < 40; ++i) edges.push_back(watts(gen));

  const std::size_t spans[] = {1, 10, 1000, std::size_t{1} << 30};
  const double gains[] = {0.0, 0.5, 2.0, 7.0};
  std::uniform_real_distribution<double> limits(1.0, 300.0);
  std::size_t interior = 0;
  for (int draw = 0; draw < 20'000; ++draw) {
    msr::PowerLimit pl;
    pl.long_term_w = limits(gen);
    pl.short_term_w = limits(gen);
    pl.long_term_enabled = (draw & 1) != 0;
    pl.short_term_enabled = (draw & 2) != 0;
    const double gain = gains[gen() % 4];
    const std::size_t long_span = spans[gen() % 4];
    const std::size_t short_span = spans[gen() % 4];
    // Every other group of four (one per enable combination) takes an
    // edge near one of the limits, where the sums that reach it are
    // neither none nor all.
    const double near = gen() % 2 == 0 ? pl.long_term_w : pl.short_term_w;
    const double edge = (draw / 4) % 2 == 0 ? edges[gen() % edges.size()]
                                            : near + watts(gen) / 20.0;
    const SumThresholds t =
        sum_thresholds(pl, gain, long_span, short_span, edge);
    for (const std::int64_t q : {t.long_q, t.short_q}) {
      if (q > 0 && q < std::numeric_limits<std::int64_t>::max()) ++interior;
    }
    for (const std::int64_t ls : probe_sums(t.long_q, long_span, gen)) {
      for (const std::int64_t ss : probe_sums(t.short_q, short_span, gen)) {
        const bool by_sums = ls <= t.long_q && ss <= t.short_q;
        const bool by_allowance =
            allowance_over_sums(pl, gain, ls, long_span, ss, short_span) >=
            edge;
        ASSERT_EQ(by_sums, by_allowance)
            << "limits " << pl.long_term_w << "/" << pl.short_term_w
            << " on " << pl.long_term_enabled << pl.short_term_enabled
            << " gain " << gain << " spans " << long_span << "/"
            << short_span << " edge " << edge << " sums " << ls << "/" << ss
            << " thresholds " << t.long_q << "/" << t.short_q;
      }
    }
  }
  EXPECT_GT(interior, 4000u) << "too few thresholds inside the sum range";
}

}  // namespace
}  // namespace dufp::rapl
