#include "hwmodel/socket_model.h"

#include <algorithm>
#include <cmath>

#include "common/expect.h"

namespace dufp::hw {

SocketModel::SocketModel(const SocketConfig& config, int socket_id)
    : config_(config),
      socket_id_(socket_id),
      power_model_(config.power, config.cores, config.f_ref_mhz(),
                   config.fu_ref_mhz()),
      perf_model_(config.memory, config.f_ref_mhz(), config.fu_ref_mhz()),
      core_freq_limit_mhz_(config.core_max_mhz),
      user_pstate_mhz_(config.core_max_mhz),
      uncore_min_mhz_(config.uncore_min_mhz),
      uncore_max_mhz_(config.uncore_max_mhz) {
  DUFP_EXPECT(socket_id >= 0);
  DUFP_EXPECT(config.cores > 0);
  DUFP_EXPECT(config.core_min_mhz < config.core_max_mhz);
  DUFP_EXPECT(config.uncore_min_mhz < config.uncore_max_mhz);
}

void SocketModel::set_uncore_window_mhz(double min_mhz, double max_mhz) {
  // Hardware normalizes a reversed window by honouring the max field.
  if (min_mhz > max_mhz) min_mhz = max_mhz;
  const double qmin = quantize_uncore_mhz(min_mhz);
  const double qmax = quantize_uncore_mhz(max_mhz);
  if (qmin != uncore_min_mhz_ || qmax != uncore_max_mhz_) {
    uncore_min_mhz_ = qmin;
    uncore_max_mhz_ = qmax;
    cache_valid_ = false;
    ++state_version_;
  }
}

void SocketModel::set_user_pstate_limit_mhz(double mhz) {
  const double q = quantize_core_mhz(mhz);
  if (q != user_pstate_mhz_) {
    user_pstate_mhz_ = q;
    cache_valid_ = false;
  }
}

double SocketModel::effective_core_mhz() const {
  // Intel P-state `performance` governor: request the all-core maximum;
  // the RAPL limit and an explicit IA32_PERF_CTL request pull it down.
  return std::min({config_.core_max_mhz, core_freq_limit_mhz_,
                   user_pstate_mhz_});
}

double SocketModel::effective_uncore_mhz() const {
  // Default Skylake UFS behaviour: uncore pegs at the window maximum
  // whenever there is work (the conservatism DUF exists to fix) and drops
  // to the window minimum when idle.
  const double requested =
      demand_.idle ? config_.uncore_min_mhz : config_.uncore_max_mhz;
  return std::clamp(requested, uncore_min_mhz_, uncore_max_mhz_);
}

SocketInstant SocketModel::evaluate_slow() const {
  for (const InstantWay& w : instant_ways_) {
    if (w.valid && w.core_limit == core_freq_limit_mhz_ &&
        w.user_pstate == user_pstate_mhz_ && w.version == state_version_) {
      cached_instant_ = w.instant;
      cache_valid_ = true;
      return cached_instant_;
    }
  }
  SocketInstant out;
  out.core_mhz = effective_core_mhz();
  out.uncore_mhz = effective_uncore_mhz();
  out.speed = perf_model_.speed(out.core_mhz, out.uncore_mhz, demand_);
  out.flops_rate = demand_.flops_rate_ref * out.speed;
  out.bytes_rate = demand_.bytes_rate_ref * out.speed *
                   perf_model_.traffic_factor(out.uncore_mhz, demand_);
  out.pkg_power_w =
      power_model_.package_power_w(out.core_mhz, out.uncore_mhz, demand_);
  out.dram_power_w = power_model_.dram_power_w(out.bytes_rate);
  cached_instant_ = out;
  cache_valid_ = true;
  InstantWay& way = instant_ways_[instant_rr_++ % kInstantWays];
  way.core_limit = core_freq_limit_mhz_;
  way.user_pstate = user_pstate_mhz_;
  way.version = state_version_;
  way.instant = out;
  way.valid = true;
  return out;
}

double SocketModel::package_power_at(double core_mhz) const {
  return power_model_.package_power_w(quantize_core_mhz(core_mhz),
                                      effective_uncore_mhz(), demand_);
}

double SocketModel::core_mhz_for_power(double target_w) const {
  return power_model_.core_mhz_for_power(target_w, effective_uncore_mhz(),
                                         demand_);
}

}  // namespace dufp::hw
