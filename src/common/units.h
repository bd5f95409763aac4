// Unit conventions used across the library.
//
// We deliberately use plain `double` with a strict naming convention rather
// than heavyweight quantity types (CG F.15: simple, conventional ways of
// passing information).  The convention:
//
//   *_w     watts            *_j     joules
//   *_mhz   megahertz        *_ghz   gigahertz (only at API boundaries)
//   *_s     seconds          *_us    microseconds (integer)
//   *_gbps  gigabytes/second *_gflops  1e9 FLOP/s
//
// Conversion helpers below keep the factors out of call sites.
#pragma once

#include <cstdint>

namespace dufp {

/// Microseconds per second; the simulation clock counts integer microseconds.
inline constexpr std::int64_t kMicrosPerSecond = 1'000'000;

constexpr double mhz_to_ghz(double mhz) { return mhz / 1000.0; }
constexpr double ghz_to_mhz(double ghz) { return ghz * 1000.0; }

constexpr double us_to_seconds(std::int64_t us) {
  return static_cast<double>(us) / static_cast<double>(kMicrosPerSecond);
}
constexpr std::int64_t seconds_to_us(double s) {
  return static_cast<std::int64_t>(s * static_cast<double>(kMicrosPerSecond) +
                                   (s >= 0 ? 0.5 : -0.5));
}

constexpr double uw_to_watts(std::uint64_t uw) {
  return static_cast<double>(uw) * 1e-6;
}
constexpr std::uint64_t watts_to_uw(double w) {
  return static_cast<std::uint64_t>(w * 1e6 + 0.5);
}

constexpr double uj_to_joules(std::uint64_t uj) {
  return static_cast<double>(uj) * 1e-6;
}

/// Delta between two readings of a monotonic counter that wraps modulo
/// `wrap_range` (0 = the counter never wraps in practice, e.g. 64-bit).
/// Single-wrap assumption: valid whenever the counter is sampled at least
/// once per wrap period, which RAPL's ~minutes-long energy wrap and a
/// 200 ms controller trivially satisfy.  This is THE helper for every
/// raw-counter delta in the tree — naive `after - before` subtraction is
/// wrong for ~2^-32 of samples and shows up as a huge negative (or, cast
/// unsigned, astronomically positive) energy spike.
constexpr std::uint64_t wrap_delta(std::uint64_t before, std::uint64_t after,
                                   std::uint64_t wrap_range) {
  if (wrap_range == 0 || after >= before) return after - before;
  return wrap_range - before + after;  // single wrap
}

/// FLOP/s expressed in GFLOP/s at reporting boundaries.
constexpr double flops_to_gflops(double flops) { return flops * 1e-9; }

/// Bytes/s expressed in GB/s (1e9 bytes, as PAPI-derived tools report).
constexpr double bps_to_gbps(double bps) { return bps * 1e-9; }

}  // namespace dufp
