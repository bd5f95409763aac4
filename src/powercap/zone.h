// A C++ mirror of the `powercap` library's package RAPL zone
// (https://github.com/powercap/powercap, the library the paper uses for
// capping, Sec. IV-C): numbered constraints, microwatt / microsecond
// units, and the long_term / short_term constraint naming of intel-rapl
// sysfs.  DUFP caps only the package: the paper's platform has no DRAM
// capping (Sec. II-B), and energy is read through the counter source.
//
// Implemented purely over the MsrDevice interface, so the same code drives
// the simulated backend here and would drive /dev/cpu/*/msr on hardware.
#pragma once

#include <cstdint>

#include "msr/device.h"
#include "msr/registers.h"

namespace dufp::powercap {

/// Constraint indices follow intel-rapl: 0 = long_term, 1 = short_term.
enum class ConstraintId : int { long_term = 0, short_term = 1 };

/// Package RAPL zone ("intel-rapl:<socket>") of the socket `dev` drives:
/// both constraints enforced.
class PackageZone {
 public:
  explicit PackageZone(msr::MsrDevice& dev);

  std::uint64_t power_limit_uw(int constraint) const;
  void set_power_limit_uw(int constraint, std::uint64_t uw);
  std::uint64_t time_window_us(int constraint) const;
  void set_time_window_us(int constraint, std::uint64_t us);

  // -- typed convenience wrappers (watts / seconds) ---------------------------
  double power_limit_w(ConstraintId c) const;
  void set_power_limit_w(ConstraintId c, double watts);
  double time_window_s(ConstraintId c) const;

  /// TDP as reported by MSR_PKG_POWER_INFO.
  double tdp_w() const;

 private:
  msr::PowerLimit read_limit() const;
  void write_limit(const msr::PowerLimit& pl);

  msr::MsrDevice& dev_;
  msr::RaplUnits units_;
};

}  // namespace dufp::powercap
