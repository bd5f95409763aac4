// Analytic package / DRAM power functions.  Pure: all state is passed in,
// which lets the RAPL firmware governor evaluate "what would power be at
// frequency f" when searching for the highest compliant P-state, and
// split that search's inverse into a demand-dependent affine map
// (inverse_terms) and a config-only curve (core_mhz_for_scale).
#pragma once

#include "hwmodel/demand.h"
#include "hwmodel/socket_config.h"

namespace dufp::hw {

class PowerModel {
 public:
  PowerModel(const PowerModelParams& params, int cores, double f_ref_mhz,
             double fu_ref_mhz);

  /// Package power at the given operating point under `demand`.
  double package_power_w(double core_mhz, double uncore_mhz,
                         const PhaseDemand& demand) const;

  /// DRAM domain power at the given achieved bandwidth.
  double dram_power_w(double bytes_per_second) const;

  /// Core-domain component only (used by tests and diagnostics).
  double core_power_w(double core_mhz, const PhaseDemand& demand) const;

  /// Uncore-domain component only.
  double uncore_power_w(double uncore_mhz, const PhaseDemand& demand) const;

  /// The two terms of the power inverse that the uncore clock and the
  /// demand alone fix: every watt that does not scale with the core
  /// clock, and the core-dynamic watts at the reference clock.
  struct InverseTerms {
    double fixed_w = 0.0;
    double dyn_at_ref_w = 0.0;
  };
  InverseTerms inverse_terms(double uncore_mhz,
                             const PhaseDemand& demand) const;

  /// Unquantized core clock whose core-dynamic power is `target_scale`
  /// times the reference clock's: the inverse of the CV²f curve, clamped
  /// to the reference clock from scale 1 up.  Depends on the power model
  /// parameters alone, which is what lets the firmware governor tabulate
  /// its P-state thresholds once per socket config.
  double core_mhz_for_scale(double target_scale) const;

  /// Analytic inverse of package_power_w in the core-frequency argument:
  /// the (unquantized) core clock at which package power equals
  /// `target_w`, given the uncore clock and demand.  Returns 0 when no
  /// frequency complies and the reference clock when the demand has no
  /// core-dynamic power; otherwise core_mhz_for_scale of
  /// (target_w − fixed_w) / dyn_at_ref_w.
  double core_mhz_for_power(double target_w, double uncore_mhz,
                            const PhaseDemand& demand) const;

  const PowerModelParams& params() const { return params_; }

 private:
  PowerModelParams params_;
  int cores_;
  double f_ref_mhz_;
  double fu_ref_mhz_;
};

}  // namespace dufp::hw
