#include "rapl/firmware_governor.h"

#include <algorithm>
#include <cmath>
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
  const std::size_t n_states = pstate_count(cfg);
  cells_.resize(n_states * kCellWays);
  // Intern the config with the process-wide cell cache now: the dense id
  // goes into every shared key, interning builds the config's threshold
  // table on first sight, and doing both up front keeps the in-run cache
  // paths allocation-free (the alloc-guard contract).
  SharedCellCache& shared = SharedCellCache::instance();
  shared_cfg_ = shared.intern_config(cfg);
  scale_thresholds_ = shared.scale_thresholds(shared_cfg_);
  // The cell table identifies "search output" with "grid point": the
  // P-state range must be an exact multiple of the step (true of real
  // hardware grids), or the search's top clamp could return an off-grid
  // frequency no cell represents.
  DUFP_EXPECT(pstate_mhz(cfg, n_states - 1) == cfg.core_max_mhz);
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
    // Analytic inverse of the power model, floored to the P-state grid so
    // the chosen state's power is at or below the allowance.
    target = floor_to_pstate_mhz(
        cfg, socket_.core_mhz_for_power(std::max(allowance_w, 0.0)));
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

double FirmwareGovernor::lowest_allowance_reaching(std::size_t idx) const {
  // The P-state search clamps the allowance at zero, so its output is
  // constant for allowance <= 0 and monotone nondecreasing above.  It
  // sees a positive budget b only through the target scale
  // b / dyn_at_ref, and the floored output reaches state idx exactly when
  // that scale is at or above the config's threshold for idx; the two
  // degenerate branches come first, in core_mhz_for_power's order.
  const auto& cfg = socket_.config();
  const double target = pstate_mhz(cfg, idx);
  const hw::PowerModel::InverseTerms terms =
      socket_.power_model().inverse_terms(socket_.effective_uncore_mhz(),
                                          socket_.demand());
  const double threshold = scale_thresholds_[idx];
  const auto reaches = [&](double a) {
    ++cell_stats_.probes;
    const double b = std::max(a, 0.0) - terms.fixed_w;
    if (b <= 0.0) return floor_to_pstate_mhz(cfg, 0.0) >= target;
    if (terms.dyn_at_ref_w <= 0.0) {
      return floor_to_pstate_mhz(cfg, cfg.f_ref_mhz()) >= target;
    }
    // The search is flat from scale 1 up; clamping there keeps a scale
    // that overflowed to +inf below an unreachable state's +inf.
    return std::min(b / terms.dyn_at_ref_w, 1.0) >= threshold;
  };
  // Seed the bracket from the forward power model: analytically the
  // search output crosses `target` exactly at the package power of the
  // target state, and the search's inner bisection lands within a hair
  // of the analytic inverse.  A verified narrow bracket around the seed
  // cuts the probe count roughly in half; if verification fails (clamp
  // regions, degenerate demands) fall back to the full positive range.
  double lo = 0.0;
  double hi = 0.0;
  const double seed = socket_.package_power_at(target);
  bool bracketed = false;
  if (std::isfinite(seed) && seed > 0.0) {
    const double lo_seed = seed * (1.0 - 1e-9);
    const double hi_seed = seed * (1.0 + 1e-9);
    if (lo_seed > 0.0 && !reaches(lo_seed) && reaches(hi_seed)) {
      lo = lo_seed;  // search(lo) < target
      hi = hi_seed;  // search(hi) >= target
      bracketed = true;
    }
  }
  if (!bracketed) {
    if (reaches(0.0)) return -std::numeric_limits<double>::infinity();
    constexpr double kTop = 1e300;
    if (!reaches(kTop)) return std::numeric_limits<double>::infinity();
    hi = kTop;
  }
  // Each probe answers as the search would, so the bisection pins the
  // exact double where the search output flips: the cached edge can
  // never disagree with the computation it replaces.
  return lowest_reaching(lo, hi, reaches);
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
             pstate_mhz(cfg, k) <
                 current_limit_mhz_ + params_.unthrottle_slew_mhz &&
             allowance_w >= cell_edge(k + 1)) {
        ++k;
      }
    } else {
      while (k > 0 &&
             pstate_mhz(cfg, k) >
                 current_limit_mhz_ - params_.throttle_slew_mhz) {
        --k;
        if (allowance_w >= cell_edge(k)) break;
      }
    }
    target = pstate_mhz(cfg, k);
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

}  // namespace dufp::rapl
