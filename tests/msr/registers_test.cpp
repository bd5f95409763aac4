#include "msr/registers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace dufp::msr {
namespace {

TEST(RaplUnitsTest, SkylakeDefaults) {
  const RaplUnits u;
  EXPECT_DOUBLE_EQ(u.watts_per_unit(), 0.125);
  EXPECT_DOUBLE_EQ(u.joules_per_unit(), 1.0 / 16384.0);
  EXPECT_DOUBLE_EQ(u.seconds_per_unit(), 1.0 / 1024.0);
}

TEST(RaplUnitsTest, EncodeDecodeRoundTrip) {
  RaplUnits u;
  u.power_unit_bits = 3;
  u.energy_unit_bits = 14;
  u.time_unit_bits = 10;
  const auto raw = encode_rapl_units(u);
  const auto back = decode_rapl_units(raw);
  EXPECT_EQ(back.power_unit_bits, 3u);
  EXPECT_EQ(back.energy_unit_bits, 14u);
  EXPECT_EQ(back.time_unit_bits, 10u);
}

TEST(RaplUnitsTest, KnownRawValue) {
  // Skylake-SP reads 0x000a0e03 from MSR 0x606.
  EXPECT_EQ(encode_rapl_units(RaplUnits{}), 0x000a0e03ull);
}

TEST(TimeWindowTest, EncodeDecodeNearRoundTrip) {
  const RaplUnits u;
  for (double s : {0.001, 0.00976, 0.1, 0.5, 0.999424, 2.0, 10.0}) {
    const auto field = encode_time_window(s, u);
    const double back = decode_time_window(field, u);
    // The format quantizes to 2^Y * (1 + Z/4): successive representable
    // values differ by at most 25 %.
    EXPECT_NEAR(back, s, s * 0.15) << "window " << s;
  }
}

TEST(TimeWindowTest, PaperDefaultWindows) {
  const RaplUnits u;
  // 1 s long-term window: 2^10 * 1 * (1/1024 s) = 1.0 exactly.
  const auto f1 = encode_time_window(1.0, u);
  EXPECT_DOUBLE_EQ(decode_time_window(f1, u), 1.0);
  // 10 ms short-term window: closest representable is 2^3 * 1.25 / 1024.
  const auto f2 = encode_time_window(0.01, u);
  EXPECT_NEAR(decode_time_window(f2, u), 0.01, 0.002);
}

/// The exhaustive search encode_time_window replaced: every (Y, Z) in
/// field order, keeping the first of least error.
std::uint32_t exhaustive_encode(double seconds, const RaplUnits& u) {
  const double tu = u.seconds_per_unit();
  std::uint32_t best_field = 0;
  double best_err = std::numeric_limits<double>::infinity();
  double pow2 = 1.0;
  for (std::uint32_t y = 0; y < 32; ++y, pow2 *= 2.0) {
    for (std::uint32_t z = 0; z < 4; ++z) {
      const double w = pow2 * (1.0 + static_cast<double>(z) / 4.0) * tu;
      const double err = std::abs(w - seconds);
      if (err < best_err) {
        best_err = err;
        best_field = y | (z << 5);
      }
    }
  }
  return best_field;
}

TEST(TimeWindowTest, EncodeMatchesTheExhaustiveSearch) {
  std::mt19937_64 rng(20261019);
  for (const unsigned bits : {0u, 3u, 10u, 15u}) {
    RaplUnits u;
    u.time_unit_bits = bits;
    std::vector<double> inputs = {0.0,
                                  std::numeric_limits<double>::denorm_min(),
                                  1e-310,
                                  std::numeric_limits<double>::min(),
                                  1e300,
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::infinity()};
    // Every exact window, one ulp either side, and the midpoints between
    // neighbours, where the tie-break decides.
    double previous = 0.0;
    for (std::uint32_t i = 0; i < 128; ++i) {  // candidate 4Y + Z
      const double w = decode_time_window(i / 4 | (i % 4) << 5, u);
      inputs.push_back(w);
      inputs.push_back(std::nextafter(w, 0.0));
      inputs.push_back(std::nextafter(w, 1e300));
      inputs.push_back(previous + (w - previous) / 2.0);
      previous = w;
    }
    // Log-uniform requests over the whole range and beyond.
    std::uniform_real_distribution<double> exponent(-40.0, 40.0);
    for (int k = 0; k < 20000; ++k) {
      inputs.push_back(std::exp2(exponent(rng)));
    }
    for (const double s : inputs) {
      ASSERT_EQ(encode_time_window(s, u), exhaustive_encode(s, u))
          << "seconds " << s << " time unit bits " << bits;
    }
  }
}

TEST(TimeWindowTest, FieldIsSevenBits) {
  const RaplUnits u;
  EXPECT_LE(encode_time_window(1e6, u), 0x7Fu);
}

TEST(PowerLimitTest, RoundTripBothConstraints) {
  const RaplUnits u;
  PowerLimit pl;
  pl.long_term_w = 125.0;
  pl.long_term_window_s = 1.0;
  pl.long_term_enabled = true;
  pl.long_term_clamped = true;
  pl.short_term_w = 150.0;
  pl.short_term_window_s = 0.01;
  pl.short_term_enabled = true;
  pl.short_term_clamped = false;

  const auto back = decode_power_limit(encode_power_limit(pl, u), u);
  EXPECT_DOUBLE_EQ(back.long_term_w, 125.0);
  EXPECT_DOUBLE_EQ(back.short_term_w, 150.0);
  EXPECT_TRUE(back.long_term_enabled);
  EXPECT_TRUE(back.long_term_clamped);
  EXPECT_TRUE(back.short_term_enabled);
  EXPECT_FALSE(back.short_term_clamped);
  EXPECT_FALSE(back.locked);
  EXPECT_DOUBLE_EQ(back.long_term_window_s, 1.0);
}

TEST(PowerLimitTest, PowerQuantizedToEighthWatt) {
  const RaplUnits u;
  PowerLimit pl;
  pl.long_term_w = 100.06;  // closest representable: 100.0
  const auto back = decode_power_limit(encode_power_limit(pl, u), u);
  EXPECT_NEAR(back.long_term_w, 100.06, 0.0625);
  EXPECT_DOUBLE_EQ(back.long_term_w * 8.0,
                   std::round(back.long_term_w * 8.0));
}

TEST(PowerLimitTest, LockBitSurvives) {
  const RaplUnits u;
  PowerLimit pl;
  pl.locked = true;
  EXPECT_TRUE(decode_power_limit(encode_power_limit(pl, u), u).locked);
}

TEST(PowerLimitTest, FieldsDoNotBleed) {
  const RaplUnits u;
  PowerLimit pl;
  pl.long_term_w = 4095.875;  // max representable in 15 bits at 1/8 W
  pl.short_term_w = 0.0;
  const auto back = decode_power_limit(encode_power_limit(pl, u), u);
  EXPECT_DOUBLE_EQ(back.long_term_w, 4095.875);
  EXPECT_DOUBLE_EQ(back.short_term_w, 0.0);
}

TEST(PowerLimitTest, OverRangeClamps) {
  const RaplUnits u;
  PowerLimit pl;
  pl.long_term_w = 1e9;
  const auto back = decode_power_limit(encode_power_limit(pl, u), u);
  EXPECT_DOUBLE_EQ(back.long_term_w, 4095.875);
}

TEST(PowerInfoTest, RoundTrip) {
  const RaplUnits u;
  PowerInfo info;
  info.tdp_w = 125.0;
  info.min_power_w = 60.0;
  info.max_power_w = 250.0;
  const auto back = decode_power_info(encode_power_info(info, u), u);
  EXPECT_DOUBLE_EQ(back.tdp_w, 125.0);
  EXPECT_DOUBLE_EQ(back.min_power_w, 60.0);
  EXPECT_DOUBLE_EQ(back.max_power_w, 250.0);
}

TEST(EnergyCounterTest, JoulesToUnits) {
  const RaplUnits u;
  EXPECT_EQ(joules_to_energy_units(1.0, u), 16384ull);
  EXPECT_EQ(joules_to_energy_units(0.0, u), 0ull);
}

TEST(UncoreRatioTest, RoundTrip) {
  UncoreRatioLimit l;
  l.max_ratio = 24;
  l.min_ratio = 12;
  const auto back = decode_uncore_ratio_limit(encode_uncore_ratio_limit(l));
  EXPECT_EQ(back.max_ratio, 24u);
  EXPECT_EQ(back.min_ratio, 12u);
}

TEST(UncoreRatioTest, PinnedWindow) {
  UncoreRatioLimit l;
  l.max_ratio = 18;
  l.min_ratio = 18;
  const auto back = decode_uncore_ratio_limit(encode_uncore_ratio_limit(l));
  EXPECT_EQ(back.max_ratio, back.min_ratio);
}

TEST(UncoreRatioTest, ReversedWindowRejected) {
  UncoreRatioLimit l;
  l.max_ratio = 12;
  l.min_ratio = 24;
  EXPECT_THROW(encode_uncore_ratio_limit(l), std::invalid_argument);
}

TEST(UncoreRatioTest, MhzConversions) {
  EXPECT_DOUBLE_EQ(uncore_ratio_to_mhz(24), 2400.0);
  EXPECT_EQ(uncore_mhz_to_ratio(2400.0), 24u);
  EXPECT_EQ(uncore_mhz_to_ratio(2449.0), 24u);  // rounds
  EXPECT_EQ(uncore_mhz_to_ratio(2450.0), 25u);
}

TEST(UncorePerfStatusTest, RoundTrip) {
  EXPECT_EQ(decode_uncore_perf_status(encode_uncore_perf_status(17)), 17u);
}

}  // namespace
}  // namespace dufp::msr
