#include "rapl/firmware_governor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/expect.h"
#include "hwmodel/socket_model.h"

namespace dufp::rapl {

namespace {

/// The allowance expression given the two window averages.  The limit
/// and gain are parameters so that the calm-run kernel can pass local
/// copies it keeps in registers; every caller shares this one
/// floating-point expression.
double allowance_from(const msr::PowerLimit& limit, double gain,
                      double long_avg_w, double short_avg_w) {
  double allowance = std::numeric_limits<double>::infinity();
  if (limit.long_term_enabled && limit.long_term_w > 0.0) {
    allowance =
        std::min(allowance,
                 limit.long_term_w + gain * (limit.long_term_w - long_avg_w));
  }
  if (limit.short_term_enabled && limit.short_term_w > 0.0) {
    allowance = std::min(
        allowance,
        limit.short_term_w + gain * (limit.short_term_w - short_avg_w));
  }
  return allowance;
}

/// True when `allowance_w` lies in the applied limit's cell [lo, hi), so
/// the decision keeps the limit; the top state's cell has no upper edge.
/// A non-finite allowance plans core_max in the reference decision; +inf
/// matches the test exactly (it passes only for the top state), and the
/// never-occurring NaN / -inf fail every comparison and merely end a
/// calm run.
bool in_calm_cell(double allowance_w, double lo, double hi, bool top) {
  return allowance_w >= lo && (top || allowance_w < hi);
}

}  // namespace

FirmwareGovernor::FirmwareGovernor(hw::SocketModel& socket,
                                   const GovernorParams& params)
    : socket_(socket),
      params_(params),
      long_window_(window_ticks(1.0)),
      short_window_(window_ticks(0.01)),
      current_limit_mhz_(socket.config().core_max_mhz) {
  DUFP_EXPECT(params.tick_s > 0.0);
  // Start from the hardware default constraints.
  msr::PowerLimit def;
  def.long_term_w = socket.config().long_term_default_w;
  def.long_term_window_s = socket.config().long_term_window_s;
  def.long_term_enabled = true;
  def.long_term_clamped = true;
  def.short_term_w = socket.config().short_term_default_w;
  def.short_term_window_s = socket.config().short_term_window_s;
  def.short_term_enabled = true;
  def.short_term_clamped = true;
  set_limit(def);
  // Cell-edge cache slots for every P-state, allocated up front so the
  // decision paths stay allocation-free in steady state.
  const auto& cfg = socket.config();
  const auto n_states = static_cast<std::size_t>(std::lround(
                            (cfg.core_max_mhz - cfg.core_min_mhz) /
                            cfg.core_step_mhz)) +
                        1;
  cells_.resize(n_states * kCellWays);
  // Intern the config with the process-wide cell cache now: the dense id
  // goes into every shared key, and interning up front keeps the in-run
  // cache paths allocation-free (the alloc-guard contract).
  shared_cfg_ = SharedCellCache::instance().intern_config(cfg);
  // The cell table identifies "search output" with "grid point": the
  // P-state range must be an exact multiple of the step (true of real
  // hardware grids), or the search's top clamp could return an off-grid
  // frequency no cell represents.
  DUFP_EXPECT(grid_mhz(n_states - 1) == cfg.core_max_mhz);
}

std::size_t FirmwareGovernor::window_ticks(double window_s) const {
  const double ticks = window_s / params_.tick_s;
  return static_cast<std::size_t>(std::max(1.0, std::round(ticks)));
}

void FirmwareGovernor::set_limit(const msr::PowerLimit& limit) {
  limit_ = limit;
  const std::size_t lw = window_ticks(limit.long_term_window_s);
  const std::size_t sw = window_ticks(limit.short_term_window_s);
  // Re-create windows only when the span changed; otherwise preserve the
  // accumulated history (a cap change must not forget recent consumption,
  // or a decrease would be toothless for a full window).
  if (lw != 0 && lw != long_window_.capacity()) {
    long_window_ = WindowedMean(lw);
  }
  if (sw != 0 && sw != short_window_.capacity()) {
    short_window_ = WindowedMean(sw);
  }
}

double FirmwareGovernor::current_allowance() const {
  const double long_avg = long_window_.size() > 0 ? long_window_.mean()
                                                  : limit_.long_term_w;
  const double short_avg = short_window_.size() > 0 ? short_window_.mean()
                                                    : limit_.short_term_w;
  return allowance_from(limit_, params_.headroom_gain, long_avg, short_avg);
}

void FirmwareGovernor::tick() {
  current_limit_mhz_ = planned_limit_mhz();
  socket_.set_core_freq_limit_mhz(current_limit_mhz_);
}

double FirmwareGovernor::planned_limit_mhz() const {
  return planned_cached(current_allowance());
}

double FirmwareGovernor::planned_limit_reference_mhz() const {
  return planned_from_allowance(current_allowance());
}

double FirmwareGovernor::planned_from_allowance(double allowance_w) const {
  const auto& cfg = socket_.config();
  double target = cfg.core_max_mhz;
  if (std::isfinite(allowance_w)) {
    target = highest_compliant_mhz(std::max(allowance_w, 0.0));
  }

  // Slew limiting.
  if (target < current_limit_mhz_) {
    target = std::max(target, current_limit_mhz_ - params_.throttle_slew_mhz);
  } else if (target > current_limit_mhz_) {
    target =
        std::min(target, current_limit_mhz_ + params_.unthrottle_slew_mhz);
  }
  return socket_.quantize_core_mhz(target);
}

bool FirmwareGovernor::steady_state(double pkg_power_w) const {
  return long_window_.steady_under(pkg_power_w) &&
         short_window_.steady_under(pkg_power_w) &&
         planned_limit_mhz() == current_limit_mhz_;
}

double FirmwareGovernor::grid_mhz(std::size_t idx) const {
  // Must match the FP expression of highest_compliant_mhz's flooring
  // (floor result * step + min) bit for bit.
  const auto& cfg = socket_.config();
  return static_cast<double>(idx) * cfg.core_step_mhz + cfg.core_min_mhz;
}

double FirmwareGovernor::lowest_allowance_reaching(std::size_t idx) const {
  // The P-state search clamps the allowance at zero, so its output is
  // constant for allowance <= 0 and monotone nondecreasing above (the
  // inner bisection compares against a threshold that moves one way, and
  // floor/clamp of a monotone input stay monotone).
  const double target = grid_mhz(idx);
  const auto reaches = [&](double a) {
    ++cell_stats_.probes;
    return highest_compliant_mhz(std::max(a, 0.0)) >= target;
  };
  const auto bits_of = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  // Seed the bracket from the forward power model: analytically the
  // search output crosses `target` exactly at the package power of the
  // target state, and the search's inner bisection lands within a hair
  // of the analytic inverse.  A verified narrow bracket around the seed
  // cuts the probe count roughly in half; if verification fails (clamp
  // regions, degenerate demands) fall back to the full positive range.
  std::uint64_t lo = 0;  // bits of +0.0
  std::uint64_t hi = 0;
  const double seed = socket_.package_power_at(target);
  bool bracketed = false;
  if (std::isfinite(seed) && seed > 0.0) {
    const double lo_seed = seed * (1.0 - 1e-9);
    const double hi_seed = seed * (1.0 + 1e-9);
    if (lo_seed > 0.0 && !reaches(lo_seed) && reaches(hi_seed)) {
      lo = bits_of(lo_seed);  // search(lo) < target
      hi = bits_of(hi_seed);  // search(hi) >= target
      bracketed = true;
    }
  }
  if (!bracketed) {
    if (reaches(0.0)) return -std::numeric_limits<double>::infinity();
    constexpr double kTop = 1e300;
    if (!reaches(kTop)) return std::numeric_limits<double>::infinity();
    hi = bits_of(kTop);
  }
  // Bisect the positive-double bit lattice (IEEE-754 ordering of
  // positive doubles matches their bit patterns): probes of the real
  // search pin the exact double where its output flips, so the cached
  // edge can never disagree with the computation it replaces.
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    double probe;
    std::memcpy(&probe, &mid, sizeof probe);
    if (reaches(probe)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  double edge;
  std::memcpy(&edge, &hi, sizeof edge);
  return edge;
}

double FirmwareGovernor::cell_edge(std::size_t idx) const {
  DUFP_EXPECT(idx * kCellWays < cells_.size());
  CellSlot* ways = cells_.data() + idx * kCellWays;
  const std::uint64_t ver = socket_.state_version();
  // The ways are kept in recency order (front = most recently used), so
  // the common case — socket state unmoved since the front slot was last
  // confirmed — is a single integer compare.
  const auto promote = [&](std::size_t w) -> double {
    if (w != 0) {
      const CellSlot hit = ways[w];
      for (std::size_t i = w; i > 0; --i) ways[i] = ways[i - 1];
      ways[0] = hit;
    }
    return ways[0].edge;
  };
  for (std::size_t w = 0; w < kCellWays; ++w) {
    if (ways[w].valid && ways[w].version == ver) {
      ++cell_stats_.local_hits;
      return promote(w);
    }
  }
  // The state moved (uncore retune, phase change); it may still be one
  // seen before — DUFP controllers sweep the uncore window range and
  // workloads revisit phases, so match by content and re-confirm.
  const hw::PhaseDemand& d = socket_.demand();
  const double umin = socket_.uncore_window_min_mhz();
  const double umax = socket_.uncore_window_max_mhz();
  for (std::size_t w = 0; w < kCellWays; ++w) {
    if (ways[w].valid && ways[w].unc_min == umin && ways[w].unc_max == umax &&
        ways[w].demand == d) {
      ways[w].version = ver;
      ++cell_stats_.local_hits;
      return promote(w);
    }
  }
  // Never-seen state for *this* governor: consult the process-wide
  // shared cache — another governor (same config, other socket, other
  // run, other repetition) may have pinned this exact edge already.  A
  // hit fills the way with the identical bits the local bisection would
  // produce, so the refill below is the only place the P-state search
  // still runs.
  SharedCellCache& shared = SharedCellCache::instance();
  const SharedCellCache::Key key =
      SharedCellCache::make_key(shared_cfg_, idx, umin, umax, d);
  CellSlot& slot = ways[kCellWays - 1];
  if (slot.valid) ++cell_stats_.way_evictions;
  double edge;
  if (shared.lookup(key, &edge)) {
    ++cell_stats_.shared_hits;
  } else {
    edge = lowest_allowance_reaching(idx);
    ++cell_stats_.cold_builds;
    shared.insert(key, edge);
  }
  slot.edge = edge;
  slot.version = ver;
  slot.unc_min = umin;
  slot.unc_max = umax;
  slot.demand = d;
  slot.valid = true;
  return promote(kCellWays - 1);
}

double FirmwareGovernor::planned_cached(double allowance_w) const {
  const auto& cfg = socket_.config();
  double target = cfg.core_max_mhz;
  if (std::isfinite(allowance_w)) {
    // Locate the allowance's cell — the P-state the search would return —
    // starting from the applied limit's cell (where a calm tick lands in
    // one or two comparisons) and walking only as far as the slew limits
    // can matter: past them the clamp fixes the outcome regardless of
    // how much further the search result lies.
    const std::size_t n = cells_.size() / kCellWays;
    auto k = static_cast<std::size_t>(std::lround(
        (current_limit_mhz_ - cfg.core_min_mhz) / cfg.core_step_mhz));
    if (allowance_w >= cell_edge(k)) {
      while (k + 1 < n &&
             grid_mhz(k) < current_limit_mhz_ + params_.unthrottle_slew_mhz &&
             allowance_w >= cell_edge(k + 1)) {
        ++k;
      }
    } else {
      while (k > 0 &&
             grid_mhz(k) > current_limit_mhz_ - params_.throttle_slew_mhz) {
        --k;
        if (allowance_w >= cell_edge(k)) break;
      }
    }
    target = grid_mhz(k);
  }

  // Slew limiting and quantization, shared verbatim with the reference
  // decision (planned_from_allowance).
  if (target < current_limit_mhz_) {
    target = std::max(target, current_limit_mhz_ - params_.throttle_slew_mhz);
  } else if (target > current_limit_mhz_) {
    target =
        std::min(target, current_limit_mhz_ + params_.unthrottle_slew_mhz);
  }
  return socket_.quantize_core_mhz(target);
}

std::size_t FirmwareGovernor::calm_run(double recorded_w,
                                       std::size_t max_ticks) {
  // Calm ticks leave the limit and the socket state alone, so the cell
  // checked here stays valid for the whole run.
  if (calm_limit_ != current_limit_mhz_ ||
      calm_version_ != socket_.state_version()) {
    refresh_calm_cell();
  }
  const double lo = calm_lo_;
  const double hi = calm_hi_;
  const bool top = calm_top_;

  // While a window fills, add() changes its divisor and may grow its
  // storage: the per-tick body, one add() per window.
  std::size_t k = 0;
  for (; k < max_ticks && !(long_window_.full() && short_window_.full());
       ++k) {
    if (!in_calm_cell(current_allowance(), lo, hi, top)) return k;
    long_window_.add(recorded_w);
    short_window_.add(recorded_w);
  }
  if (k == max_ticks) return k;

  // Both windows full: the same allowance expression over register-held
  // sums.  The limit and gain are copied into locals too — the slot
  // stores could alias the members, which would force a reload per tick.
  const msr::PowerLimit limit = limit_;
  const double gain = params_.headroom_gain;
  WindowedMean::Cursor lw = long_window_.cursor(recorded_w);
  WindowedMean::Cursor sw = short_window_.cursor(recorded_w);
  const std::size_t room = max_ticks - k;
  std::size_t j = 0;
  for (; j < room; ++j) {
    const double a = allowance_from(limit, gain, lw.mean(), sw.mean());
    if (!in_calm_cell(a, lo, hi, top)) break;
    lw.add();
    sw.add();
  }
  long_window_.commit(lw, j);
  short_window_.commit(sw, j);
  return k + j;
}

void FirmwareGovernor::refresh_calm_cell() {
  // The applied limit's cell edges, flattened into members so the calm
  // test itself is two comparisons; revalidated by (limit, state version).
  const auto& cfg = socket_.config();
  const std::size_t n = cells_.size() / kCellWays;
  const auto idx = static_cast<std::size_t>(std::lround(
      (current_limit_mhz_ - cfg.core_min_mhz) / cfg.core_step_mhz));
  calm_lo_ = cell_edge(idx);
  calm_top_ = idx + 1 >= n;
  calm_hi_ = calm_top_ ? 0.0 : cell_edge(idx + 1);
  calm_limit_ = current_limit_mhz_;
  calm_version_ = socket_.state_version();
}

double FirmwareGovernor::highest_compliant_mhz(double allowance_w) const {
  const auto& cfg = socket_.config();
  // Analytic inverse of the power model, floored to the P-state grid so
  // the chosen state's power is at or below the allowance.
  const double exact = socket_.core_mhz_for_power(allowance_w);
  if (!std::isfinite(exact)) return cfg.core_max_mhz;
  const double floored =
      std::floor((exact - cfg.core_min_mhz) / cfg.core_step_mhz) *
          cfg.core_step_mhz +
      cfg.core_min_mhz;
  return std::clamp(floored, cfg.core_min_mhz, cfg.core_max_mhz);
}

}  // namespace dufp::rapl
