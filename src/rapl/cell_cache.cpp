#include "rapl/cell_cache.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "hwmodel/power_model.h"

namespace dufp::rapl {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

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

/// Fixed table geometry: 2^15 slots at 3/4 max load ≈ 24k resident
/// edges (a full tournament grid pins a few thousand distinct edges) in
/// ~4 MB, allocated once so the in-run paths never touch the heap.
constexpr std::size_t kSlotBits = 15;
constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
constexpr std::size_t kMaxResident = kSlots - kSlots / 4;

std::uint64_t hash_key(const SharedCellCache::Key& k) {
  // FNV-1a over the key words; cheap and fine for a process-local table.
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t w : k) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// scale_thresholds()' table: per P-state, the bit-lattice bisection the
/// governor runs over allowances, here over target scales with probes of
/// the config-only half of the search.  Its output is monotone in the
/// scale (the inner bisection compares against a threshold that moves one
/// way, and floor and clamp keep a monotone input monotone), which is what
/// makes one threshold per state exact.
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

SharedCellCache::SharedCellCache() : slots_(kSlots) {
  const char* env = std::getenv("DUFP_SHARED_CELL_CACHE");
  enabled_ = env == nullptr || std::strcmp(env, "0") != 0;
}

SharedCellCache& SharedCellCache::instance() {
  static SharedCellCache cache;
  return cache;
}

std::uint32_t SharedCellCache::intern_config(const hw::SocketConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    if (same_edge_inputs(configs_[i].cfg, cfg)) {
      return static_cast<std::uint32_t>(i);
    }
  }
  configs_.push_back(InternedConfig{cfg, build_scale_thresholds(cfg)});
  return static_cast<std::uint32_t>(configs_.size() - 1);
}

const double* SharedCellCache::scale_thresholds(
    std::uint32_t config_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return configs_.at(config_id).scale_thresholds.data();
}

SharedCellCache::Key SharedCellCache::make_key(std::uint32_t config_id,
                                               std::size_t idx,
                                               double unc_min, double unc_max,
                                               const hw::PhaseDemand& d) {
  return Key{config_id,
             static_cast<std::uint64_t>(idx),
             bits_of(unc_min),
             bits_of(unc_max),
             bits_of(d.w_cpu),
             bits_of(d.w_mem),
             bits_of(d.w_unc),
             bits_of(d.w_fixed),
             bits_of(d.flops_rate_ref),
             bits_of(d.bytes_rate_ref),
             bits_of(d.cpu_activity),
             bits_of(d.mem_activity),
             d.idle ? 1u : 0u};
}

/// Linear probe to the key's slot (used, matching) or its insertion
/// point (first unused slot of the probe chain).  The table never runs
/// truly full — inserts stop at kMaxResident — so the walk terminates.
std::size_t SharedCellCache::probe_locked(const Key& key) const {
  std::size_t i = static_cast<std::size_t>(hash_key(key)) & (kSlots - 1);
  while (slots_[i].used && slots_[i].key != key) {
    i = (i + 1) & (kSlots - 1);
  }
  return i;
}

bool SharedCellCache::lookup(const Key& key, double* edge) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return false;
  const Slot& slot = slots_[probe_locked(key)];
  if (!slot.used) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *edge = slot.edge;
  return true;
}

void SharedCellCache::insert(const Key& key, double edge) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  Slot& slot = slots_[probe_locked(key)];
  // First writer wins; a racing build computed the identical bits.
  if (slot.used) return;
  if (resident_ >= kMaxResident) {
    ++stats_.full_drops;
    return;
  }
  slot.key = key;
  slot.edge = edge;
  slot.used = true;
  ++resident_;
  ++stats_.inserts;
}

bool SharedCellCache::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void SharedCellCache::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

void SharedCellCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Interned configs survive: governors hold their dense ids for the
  // process lifetime, and recycling an id would alias two different
  // configs under one key.  Only the edges (and stats) reset.
  for (Slot& slot : slots_) slot.used = false;
  resident_ = 0;
  stats_ = GlobalStats{};
}

SharedCellCache::GlobalStats SharedCellCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  GlobalStats out = stats_;
  out.entries = resident_;
  return out;
}

}  // namespace dufp::rapl
