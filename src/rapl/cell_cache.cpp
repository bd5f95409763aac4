#include "rapl/cell_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "hwmodel/power_model.h"

namespace dufp::rapl {

namespace {

/// The numeric fields the edge computation reads, compared exactly (bit
/// patterns via ==; configs are program constants, never NaN).  Listed
/// explicitly so adding a SocketConfig field forces a conscious decision
/// here: does it reach the power model / grid geometry or not?
bool same_edge_inputs(const hw::SocketConfig& a, const hw::SocketConfig& b) {
  const auto& pa = a.power;
  const auto& pb = b.power;
  const auto& ma = a.memory;
  const auto& mb = b.memory;
  return a.cores == b.cores && a.core_min_mhz == b.core_min_mhz &&
         a.core_max_mhz == b.core_max_mhz &&
         a.core_base_mhz == b.core_base_mhz &&
         a.core_step_mhz == b.core_step_mhz &&
         a.uncore_min_mhz == b.uncore_min_mhz &&
         a.uncore_max_mhz == b.uncore_max_mhz &&
         a.uncore_step_mhz == b.uncore_step_mhz &&
         pa.static_w == pb.static_w && pa.core_idle_w == pb.core_idle_w &&
         pa.core_dyn_w == pb.core_dyn_w && pa.v_slope == pb.v_slope &&
         pa.v_min_frac == pb.v_min_frac &&
         pa.uncore_base_w == pb.uncore_base_w &&
         pa.uncore_act_w == pb.uncore_act_w &&
         pa.uncore_alpha == pb.uncore_alpha &&
         pa.dram_background_w == pb.dram_background_w &&
         pa.dram_w_per_gbps == pb.dram_w_per_gbps &&
         ma.peak_bw_gbps == mb.peak_bw_gbps &&
         ma.fu_sat_mhz == mb.fu_sat_mhz && ma.conc_base == mb.conc_base &&
         ma.conc_slope == mb.conc_slope &&
         ma.prefetch_coeff == mb.prefetch_coeff;
}

/// The exact double in (lo, hi] where the monotone predicate `reaches`
/// turns true, given 0 <= lo < hi, !reaches(lo) and reaches(hi).  Bisects
/// the bit lattice, whose order is the order of non-negative doubles.
template <class Reaches>
double lowest_reaching(double lo, double hi, Reaches&& reaches) {
  auto lo_bits = std::bit_cast<std::uint64_t>(lo);
  auto hi_bits = std::bit_cast<std::uint64_t>(hi);
  while (hi_bits - lo_bits > 1) {
    const std::uint64_t mid = lo_bits + (hi_bits - lo_bits) / 2;
    if (reaches(std::bit_cast<double>(mid))) {
      hi_bits = mid;
    } else {
      lo_bits = mid;
    }
  }
  return std::bit_cast<double>(hi_bits);
}

/// scale_thresholds()' table: per P-state, a bit-lattice bisection over
/// target scales with probes of the config-only half of the P-state
/// search.  Its output is monotone in the scale (the inner bisection
/// compares against a threshold that moves one way, and floor and clamp
/// keep a monotone input monotone), which is what makes one threshold per
/// state exact.
std::vector<double> build_scale_thresholds(const hw::SocketConfig& cfg) {
  const hw::PowerModel model(cfg.power, cfg.cores, cfg.f_ref_mhz(),
                             cfg.fu_ref_mhz());
  std::vector<double> table(pstate_count(cfg));
  for (std::size_t idx = 0; idx < table.size(); ++idx) {
    const double target = pstate_mhz(cfg, idx);
    const auto reaches = [&](double ts) {
      return floor_to_pstate_mhz(cfg, model.core_mhz_for_scale(ts)) >=
             target;
    };
    if (reaches(0.0)) {
      table[idx] = -std::numeric_limits<double>::infinity();
    } else if (!reaches(1.0)) {
      table[idx] = std::numeric_limits<double>::infinity();
    } else {
      table[idx] = lowest_reaching(0.0, 1.0, reaches);
    }
  }
  return table;
}

}  // namespace

std::size_t pstate_count(const hw::SocketConfig& cfg) {
  return static_cast<std::size_t>(std::lround(
             (cfg.core_max_mhz - cfg.core_min_mhz) / cfg.core_step_mhz)) +
         1;
}

double floor_to_pstate_mhz(const hw::SocketConfig& cfg, double exact_mhz) {
  if (!std::isfinite(exact_mhz)) return cfg.core_max_mhz;
  const double floored =
      std::floor((exact_mhz - cfg.core_min_mhz) / cfg.core_step_mhz) *
          cfg.core_step_mhz +
      cfg.core_min_mhz;
  return std::clamp(floored, cfg.core_min_mhz, cfg.core_max_mhz);
}

SharedCellCache& SharedCellCache::instance() {
  static SharedCellCache cache;
  return cache;
}

const double* SharedCellCache::scale_thresholds(const hw::SocketConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const InternedConfig& known : configs_) {
    if (same_edge_inputs(known.cfg, cfg)) return known.scale_thresholds.data();
  }
  configs_.push_back(InternedConfig{cfg, build_scale_thresholds(cfg)});
  return configs_.back().scale_thresholds.data();
}

}  // namespace dufp::rapl
