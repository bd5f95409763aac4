// The simulated package control unit: exposes the RAPL and uncore MSRs on
// a SimulatedMsr device and enforces the programmed limits on a
// SocketModel through the firmware governor.
//
// Register map provided (per socket):
//   0x606 MSR_RAPL_POWER_UNIT     read-only, Skylake-SP units
//   0x610 MSR_PKG_POWER_LIMIT     r/w, drives the firmware governor
//   0x611 MSR_PKG_ENERGY_STATUS   dynamic, 32-bit wrapping counter
//   0x614 MSR_PKG_POWER_INFO      read-only (TDP etc.)
//   0x618 MSR_DRAM_POWER_LIMIT    r/w but *inactive*: the paper's platform
//                                 does not support DRAM capping (Sec. II-B)
//   0x619 MSR_DRAM_ENERGY_STATUS  dynamic
//   0x620 MSR_UNCORE_RATIO_LIMIT  r/w, clamps the socket's uncore window
//   0x621 MSR_UNCORE_PERF_STATUS  dynamic, current uncore ratio
//   0xE7/0xE8 IA32_MPERF/APERF    dynamic, per-core cycle counters
#pragma once

#include "hwmodel/socket_model.h"
#include "msr/registers.h"
#include "msr/sim_msr.h"
#include "rapl/firmware_governor.h"

namespace dufp::rapl {

class RaplEngine {
 public:
  RaplEngine(hw::SocketModel& socket, msr::SimulatedMsr& msr,
             const GovernorParams& params = {});

  RaplEngine(const RaplEngine&) = delete;
  RaplEngine& operator=(const RaplEngine&) = delete;

  /// Firmware control step; call once per simulation tick before the
  /// socket is evaluated.
  void tick() { governor_.tick(); }

  /// Accounting step; call once per tick after the socket was evaluated.
  void record(const hw::SocketInstant& instant, double dt_s) {
    governor_.record_power(instant.pkg_power_w, dt_s);
  }

  const msr::RaplUnits& units() const { return units_; }
  const FirmwareGovernor& governor() const { return governor_; }
  FirmwareGovernor& governor() { return governor_; }

 private:
  void install_registers();

  hw::SocketModel& socket_;
  msr::SimulatedMsr& msr_;
  msr::RaplUnits units_;
  FirmwareGovernor governor_;
};

}  // namespace dufp::rapl
