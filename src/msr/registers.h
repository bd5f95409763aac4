// Intel MSR layouts used by RAPL power capping and uncore frequency
// scaling, bit-accurate to the Skylake-SP generation (Xeon Gold 6130, the
// paper's testbed).  Sources: Intel SDM vol. 4, and the layouts assumed by
// the `powercap` and `intel_uncore_frequency` Linux drivers.
//
// Everything here is pure encode/decode — no device access — so it is
// shared verbatim between the simulated backend and a real /dev/cpu MSR
// backend.
#pragma once

#include <cstdint>

namespace dufp::msr {

// ---------------------------------------------------------------------------
// Register addresses.
// ---------------------------------------------------------------------------
inline constexpr std::uint32_t kMsrRaplPowerUnit = 0x606;
inline constexpr std::uint32_t kMsrPkgPowerLimit = 0x610;
inline constexpr std::uint32_t kMsrPkgEnergyStatus = 0x611;
inline constexpr std::uint32_t kMsrPkgPowerInfo = 0x614;
inline constexpr std::uint32_t kMsrDramPowerLimit = 0x618;
inline constexpr std::uint32_t kMsrDramEnergyStatus = 0x619;
inline constexpr std::uint32_t kMsrUncoreRatioLimit = 0x620;
inline constexpr std::uint32_t kMsrUncorePerfStatus = 0x621;
inline constexpr std::uint32_t kIa32Mperf = 0xE7;
inline constexpr std::uint32_t kIa32Aperf = 0xE8;
inline constexpr std::uint32_t kIa32PerfCtl = 0x199;

// ---------------------------------------------------------------------------
// MSR_RAPL_POWER_UNIT (0x606)
//
//   bits  3:0  power unit:  1 / 2^PU watts
//   bits 12:8  energy unit: 1 / 2^EU joules
//   bits 19:16 time unit:   1 / 2^TU seconds
//
// Skylake-SP defaults: PU=3 (0.125 W), EU=14 (~61 uJ), TU=10 (~977 us).
// ---------------------------------------------------------------------------
struct RaplUnits {
  unsigned power_unit_bits = 3;
  unsigned energy_unit_bits = 14;
  unsigned time_unit_bits = 10;

  double watts_per_unit() const { return 1.0 / double(1u << power_unit_bits); }
  double joules_per_unit() const {
    return 1.0 / double(1u << energy_unit_bits);
  }
  double seconds_per_unit() const {
    return 1.0 / double(1u << time_unit_bits);
  }
};

std::uint64_t encode_rapl_units(const RaplUnits& u);
RaplUnits decode_rapl_units(std::uint64_t raw);

// ---------------------------------------------------------------------------
// RAPL time-window encoding (7-bit field inside the power-limit MSRs):
//
//   window = 2^Y * (1 + Z/4) * time_unit,   Y = bits 4:0, Z = bits 6:5
// ---------------------------------------------------------------------------

/// Encodes `seconds` into the closest representable 7-bit (Y,Z) field.
/// Values are clamped to the representable range.
std::uint32_t encode_time_window(double seconds, const RaplUnits& u);
double decode_time_window(std::uint32_t field, const RaplUnits& u);

// ---------------------------------------------------------------------------
// MSR_PKG_POWER_LIMIT (0x610)
//
//   bits 14:0   power limit #1 (long term), in power units
//   bit  15     enable #1
//   bit  16     clamp #1
//   bits 23:17  time window #1
//   bits 46:32  power limit #2 (short term)
//   bit  47     enable #2
//   bit  48     clamp #2
//   bits 55:49  time window #2
//   bit  63     lock
// ---------------------------------------------------------------------------
struct PowerLimit {
  double long_term_w = 0.0;
  double long_term_window_s = 0.0;
  bool long_term_enabled = false;
  bool long_term_clamped = false;

  double short_term_w = 0.0;
  double short_term_window_s = 0.0;
  bool short_term_enabled = false;
  bool short_term_clamped = false;

  bool locked = false;
};

std::uint64_t encode_power_limit(const PowerLimit& pl, const RaplUnits& u);
PowerLimit decode_power_limit(std::uint64_t raw, const RaplUnits& u);

// ---------------------------------------------------------------------------
// MSR_PKG_POWER_INFO (0x614)
//
//   bits 14:0   thermal spec power (TDP), power units
//   bits 30:16  minimum power
//   bits 46:32  maximum power
//   bits 53:48  maximum time window
// ---------------------------------------------------------------------------
struct PowerInfo {
  double tdp_w = 0.0;
  double min_power_w = 0.0;
  double max_power_w = 0.0;
};

std::uint64_t encode_power_info(const PowerInfo& info, const RaplUnits& u);
PowerInfo decode_power_info(std::uint64_t raw, const RaplUnits& u);

// ---------------------------------------------------------------------------
// Energy status counters (0x611 / 0x619): 32-bit, count energy units,
// wrap modulo 2^32.  The counter source reports them in microjoules with
// that wrap range, and the sampler's counter_delta handles the wrap.
// ---------------------------------------------------------------------------

/// Converts joules into raw counter units (used by the simulated backend).
std::uint64_t joules_to_energy_units(double joules, const RaplUnits& u);

// ---------------------------------------------------------------------------
// MSR_UNCORE_RATIO_LIMIT (0x620)
//
//   bits 6:0   maximum uncore ratio (x 100 MHz)
//   bits 14:8  minimum uncore ratio (x 100 MHz)
// ---------------------------------------------------------------------------
struct UncoreRatioLimit {
  unsigned max_ratio = 24;  ///< 2.4 GHz
  unsigned min_ratio = 12;  ///< 1.2 GHz
};

std::uint64_t encode_uncore_ratio_limit(const UncoreRatioLimit& l);
UncoreRatioLimit decode_uncore_ratio_limit(std::uint64_t raw);

/// MSR_UNCORE_PERF_STATUS (0x621): bits 6:0 = current uncore ratio.
std::uint64_t encode_uncore_perf_status(unsigned current_ratio);
unsigned decode_uncore_perf_status(std::uint64_t raw);

/// Uncore ratio <-> MHz helpers (1 ratio unit = 100 MHz).
constexpr double uncore_ratio_to_mhz(unsigned ratio) { return ratio * 100.0; }
constexpr unsigned uncore_mhz_to_ratio(double mhz) {
  return static_cast<unsigned>(mhz / 100.0 + 0.5);
}

// ---------------------------------------------------------------------------
// IA32_PERF_CTL (0x199): bits 15:8 = target P-state ratio (x 100 MHz).
// Used by the DUFP-F extension (the paper's Sec. VII future work) to pin
// the core clock directly instead of relying on RAPL's internal DVFS.
// ---------------------------------------------------------------------------
std::uint64_t encode_perf_ctl(unsigned target_ratio);
unsigned decode_perf_ctl(std::uint64_t raw);

}  // namespace dufp::msr
