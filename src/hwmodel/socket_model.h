// Stateful model of one socket: actuator settings (core frequency limit
// from the RAPL governor, uncore window from MSR 0x620), current workload
// demand, and ground-truth accumulators (energy, flops, bytes, cycles)
// that the RAPL counters and the PAPI-like layer read from.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/expect.h"
#include "hwmodel/demand.h"
#include "hwmodel/perf_model.h"
#include "hwmodel/power_model.h"
#include "hwmodel/socket_config.h"

namespace dufp::hw {

class SocketModel {
 public:
  SocketModel(const SocketConfig& config, int socket_id);

  int socket_id() const { return socket_id_; }
  const SocketConfig& config() const { return config_; }
  const PowerModel& power_model() const { return power_model_; }
  const PerfModel& perf_model() const { return perf_model_; }

  // -- actuators --------------------------------------------------------------

  /// RAPL firmware DVFS decision: the highest core frequency the package
  /// may run at.  Clamped to the P-state range and quantized to the step.
  /// The governor re-asserts its limit every tick and it is a no-op
  /// almost every time, so the compare-before-invalidate lives here where
  /// the engine loop inlines it.
  void set_core_freq_limit_mhz(double mhz) {
    const double q = quantize_core_mhz(mhz);
    if (q != core_freq_limit_mhz_) {
      core_freq_limit_mhz_ = q;
      cache_valid_ = false;
    }
  }
  double core_freq_limit_mhz() const { return core_freq_limit_mhz_; }

  /// Uncore window from MSR_UNCORE_RATIO_LIMIT (min <= max expected; a
  /// reversed window is normalized like the hardware does).
  void set_uncore_window_mhz(double min_mhz, double max_mhz);
  double uncore_window_min_mhz() const { return uncore_min_mhz_; }
  double uncore_window_max_mhz() const { return uncore_max_mhz_; }

  /// Software P-state request (IA32_PERF_CTL), independent of the RAPL
  /// limit; the effective clock is the minimum of both.
  void set_user_pstate_limit_mhz(double mhz);
  double user_pstate_limit_mhz() const { return user_pstate_mhz_; }

  // -- demand ------------------------------------------------------------------

  /// Re-asserted every segment by the engine; a no-op unless the demand
  /// actually changed (inline for the same reason as the limit setter).
  void set_demand(const PhaseDemand& demand) {
    DUFP_EXPECT(demand.w_cpu >= 0.0 && demand.w_mem >= 0.0 &&
                demand.w_unc >= 0.0 && demand.w_fixed >= 0.0);
    const double sum =
        demand.w_cpu + demand.w_mem + demand.w_unc + demand.w_fixed;
    DUFP_EXPECT(std::abs(sum - 1.0) < 1e-6);
    if (!(demand == demand_)) {
      demand_ = demand;
      cache_valid_ = false;
      ++state_version_;
    }
  }
  const PhaseDemand& demand() const { return demand_; }

  // -- evaluation ---------------------------------------------------------------

  /// Core clock actually applied: P-state governor is `performance`, so
  /// the request is the all-core max; RAPL's limit caps it.
  double effective_core_mhz() const;

  /// Uncore clock actually applied: the hardware UFS requests max under
  /// load (the conservative default behaviour the paper criticizes) and
  /// min when idle; the MSR window clamps it.
  double effective_uncore_mhz() const;

  /// Full instantaneous state at the current settings and demand.
  ///
  /// Memoized: the result is a pure function of the actuator settings and
  /// the demand, so it is recomputed only after one of them actually
  /// changes (the setters compare before invalidating).  The firmware
  /// governor rewrites its frequency limit every tick but rarely *changes*
  /// it, which makes this the single biggest win on the simulation hot
  /// path — and because the cached struct is returned bit-for-bit, the
  /// memoization is invisible to the determinism contract.
  SocketInstant evaluate() const {
    if (cache_valid_) return cached_instant_;
    return evaluate_slow();
  }

  /// Package power if the core clock were `core_mhz` (current demand and
  /// uncore setting): the forward model at a hypothetical clock.
  double package_power_at(double core_mhz) const;

  /// Unquantized core clock at which package power would equal `target_w`
  /// (current demand and uncore setting); see
  /// PowerModel::core_mhz_for_power.  The firmware governor's reference
  /// decision and tests call it; the engine's decisions go through the
  /// governor's cell tables and never run this bisection.
  double core_mhz_for_power(double target_w) const;

  /// Monotone counter bumped whenever demand or the uncore window — the
  /// inputs of core_mhz_for_power besides the target — actually change.
  /// Callers that cache anything derived from the socket state (the
  /// governor's state ways) key their caches on it.
  std::uint64_t state_version() const { return state_version_; }

  // -- ground-truth accounting ---------------------------------------------------

  /// Integrates one time step (the simulation engine calls this once per
  /// tick with the instant it just evaluated).
  void accumulate(const SocketInstant& instant, double dt_s) {
    DUFP_EXPECT(dt_s >= 0.0);
    pkg_energy_j_ += instant.pkg_power_w * dt_s;
    dram_energy_j_ += instant.dram_power_w * dt_s;
    flops_total_ += instant.flops_rate * dt_s;
    bytes_total_ += instant.bytes_rate * dt_s;
    aperf_cycles_ += instant.core_mhz * 1e6 * dt_s;
    mperf_cycles_ += config_.core_base_mhz * 1e6 * dt_s;
  }

  double pkg_energy_j() const { return pkg_energy_j_; }
  double dram_energy_j() const { return dram_energy_j_; }
  double flops_total() const { return flops_total_; }
  double bytes_total() const { return bytes_total_; }

  /// APERF-style actual-cycles counter (all cores run at the same clock in
  /// this model, so one counter serves every core).
  std::uint64_t aperf_cycles() const {
    return static_cast<std::uint64_t>(aperf_cycles_);
  }
  /// MPERF-style reference-cycles counter (base clock).
  std::uint64_t mperf_cycles() const {
    return static_cast<std::uint64_t>(mperf_cycles_);
  }

  /// Snapshot of the six ground-truth accumulators, in the order
  /// accumulate() updates them.  Engine support for the event-leaping
  /// fast path: the simulation gathers these into flat per-lane arrays,
  /// replays the exact per-tick additions externally for a whole gap, and
  /// restores the results — bit-identical to calling accumulate() once
  /// per tick because the additions are the same operations in the same
  /// order on the same values.
  struct Accumulators {
    double pkg_energy_j = 0.0;
    double dram_energy_j = 0.0;
    double flops_total = 0.0;
    double bytes_total = 0.0;
    double aperf_cycles = 0.0;
    double mperf_cycles = 0.0;
  };
  Accumulators accumulators() const {
    return {pkg_energy_j_, dram_energy_j_, flops_total_,
            bytes_total_,  aperf_cycles_,  mperf_cycles_};
  }
  /// Restores a snapshot advanced externally (see accumulators()).  Does
  /// not touch actuators, demand, or the evaluation memos.
  void restore_accumulators(const Accumulators& a) {
    pkg_energy_j_ = a.pkg_energy_j;
    dram_energy_j_ = a.dram_energy_j;
    flops_total_ = a.flops_total;
    bytes_total_ = a.bytes_total;
    aperf_cycles_ = a.aperf_cycles;
    mperf_cycles_ = a.mperf_cycles;
  }

  /// Quantizes a core frequency to the P-state grid (clamped to range).
  double quantize_core_mhz(double mhz) const {
    const double clamped =
        std::clamp(mhz, config_.core_min_mhz, config_.core_max_mhz);
    const double steps = std::round((clamped - config_.core_min_mhz) /
                                    config_.core_step_mhz);
    return config_.core_min_mhz + steps * config_.core_step_mhz;
  }
  /// Quantizes an uncore frequency to the ratio grid (clamped to range).
  double quantize_uncore_mhz(double mhz) const {
    const double clamped =
        std::clamp(mhz, config_.uncore_min_mhz, config_.uncore_max_mhz);
    const double steps = std::round((clamped - config_.uncore_min_mhz) /
                                    config_.uncore_step_mhz);
    return config_.uncore_min_mhz + steps * config_.uncore_step_mhz;
  }

 private:
  /// Cache-miss tail of evaluate(): the full model evaluation.
  SocketInstant evaluate_slow() const;
  SocketConfig config_;
  int socket_id_;
  PowerModel power_model_;
  PerfModel perf_model_;

  double core_freq_limit_mhz_;
  double user_pstate_mhz_;
  double uncore_min_mhz_;
  double uncore_max_mhz_;
  PhaseDemand demand_ = PhaseDemand::make_idle();

  mutable SocketInstant cached_instant_{};
  mutable bool cache_valid_ = false;

  // See state_version(); bumped by the demand and uncore-window setters.
  std::uint64_t state_version_ = 1;

  double pkg_energy_j_ = 0.0;
  double dram_energy_j_ = 0.0;
  double flops_total_ = 0.0;
  double bytes_total_ = 0.0;
  double aperf_cycles_ = 0.0;
  double mperf_cycles_ = 0.0;
};

}  // namespace dufp::hw
