// Performance response of a socket: achievable memory bandwidth as a
// function of uncore/core frequency, and phase progress speed under the
// three-component time decomposition (see hwmodel/demand.h).
#pragma once

#include "hwmodel/demand.h"
#include "hwmodel/socket_config.h"

namespace dufp::hw {

/// Ceiling on progress speed with slack, for bounds that must hold at
/// every operating point.  The reference point is the top of every clock
/// range (f_ref = core max, fu_ref = uncore max), so each dilation term is
/// at least its weight and speed <= 1 / (sum of the demand weights); the
/// weights sum to 1 +/- 1e-6 (SocketModel::set_demand), so speed exceeds
/// 1.0 by ~1e-6 at most, and 1.001 leaves three orders of magnitude of
/// slack.  The engine's leap and stretch bounds rely on it.
inline constexpr double kSpeedBoundMargin = 1.001;

class PerfModel {
 public:
  PerfModel(const MemoryModelParams& params, double f_ref_mhz,
            double fu_ref_mhz);

  /// Achievable DRAM bandwidth (bytes/s) at the given operating point.
  double bandwidth_bps(double core_mhz, double uncore_mhz) const;

  /// Bandwidth at the reference point (normalization constant).
  double ref_bandwidth_bps() const { return ref_bw_bps_; }

  /// Progress speed of a phase relative to the reference point (1.0 =
  /// reference-speed; lower under throttling).  A phase that would take
  /// T_ref seconds at reference takes T_ref / speed at this point.
  double speed(double core_mhz, double uncore_mhz,
               const PhaseDemand& demand) const;

  /// Execution-time dilation = 1 / speed (convenience for tests).
  double dilation(double core_mhz, double uncore_mhz,
                  const PhaseDemand& demand) const;

  /// Prefetch-traffic scaling of the *observed* DRAM byte counters at the
  /// given uncore clock (1.0 at the reference point; see
  /// MemoryModelParams::prefetch_coeff).
  double traffic_factor(double uncore_mhz, const PhaseDemand& demand) const;

  const MemoryModelParams& params() const { return params_; }

 private:
  MemoryModelParams params_;
  double f_ref_mhz_;
  double fu_ref_mhz_;
  double ref_bw_bps_;
};

}  // namespace dufp::hw
