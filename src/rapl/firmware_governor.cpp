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
      pstate_(pstate_count(socket.config()) - 1) {
  DUFP_EXPECT(params.tick_s > 0.0);
  DUFP_EXPECT(params.throttle_slew_mhz >= 0.0 &&
              params.unthrottle_slew_mhz >= 0.0);
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
  // A row for every way, allocated up front so the decision paths stay
  // allocation-free in steady state.
  const auto& cfg = socket.config();
  const std::size_t n_states = pstate_count(cfg);
  rows_.resize(n_states * kStateWays);
  for (std::size_t w = 0; w < kStateWays; ++w) ways_[w].row = w * n_states;
  // The config's threshold table is built (or found) now, so the in-run
  // cache paths stay allocation-free (the alloc-guard contract).
  scale_thresholds_ = SharedCellCache::instance().scale_thresholds(cfg);
  // The cell table identifies "search output" with "grid point": the
  // P-state range must be an exact multiple of the step (true of real
  // hardware grids), or the search's top clamp could return an off-grid
  // frequency no cell represents.
  DUFP_EXPECT(pstate_mhz(cfg, n_states - 1) == cfg.core_max_mhz);

  // The decision's slew limits and quantization in index space: run the
  // MHz expressions of planned_from_allowance once per applied state.
  // Every grid state must quantize to itself, so a walk that stops inside
  // the slew window needs no rounding.
  const auto index_of = [&](double target_mhz) {
    const double q = socket.quantize_core_mhz(target_mhz);
    const auto idx = static_cast<std::size_t>(
        std::lround((q - cfg.core_min_mhz) / cfg.core_step_mhz));
    DUFP_EXPECT(idx < n_states && pstate_mhz(cfg, idx) == q);
    return idx;
  };
  slew_.resize(n_states);
  for (std::size_t p = 0; p < n_states; ++p) {
    const double cur = pstate_mhz(cfg, p);
    DUFP_EXPECT(index_of(cur) == p);
    Slew& sl = slew_[p];
    sl.up_reach = p;
    while (sl.up_reach + 1 < n_states &&
           pstate_mhz(cfg, sl.up_reach) < cur + params_.unthrottle_slew_mhz) {
      ++sl.up_reach;
    }
    sl.up_final = index_of(std::min(pstate_mhz(cfg, sl.up_reach),
                                    cur + params_.unthrottle_slew_mhz));
    sl.down_reach = p;
    while (sl.down_reach > 0 &&
           pstate_mhz(cfg, sl.down_reach) > cur - params_.throttle_slew_mhz) {
      --sl.down_reach;
    }
    sl.down_final = index_of(std::max(pstate_mhz(cfg, sl.down_reach),
                                      cur - params_.throttle_slew_mhz));
  }
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

inline FirmwareGovernor::StateEntry* FirmwareGovernor::state_row() const {
  const StateWay& front = ways_.front();
  if (front.version != socket_.state_version() ||
      front.user_mhz != socket_.user_pstate_limit_mhz()) {
    find_state();
  }
  return rows_.data() + ways_.front().row;
}

void FirmwareGovernor::find_state() const {
  const std::uint64_t version = socket_.state_version();
  const hw::PhaseDemand& demand = socket_.demand();
  const double umin = socket_.uncore_window_min_mhz();
  const double umax = socket_.uncore_window_max_mhz();
  constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  const std::size_t n = slew_.size();
  // A state version names one socket state, so a front way whose version
  // matches is current and only the user limit moved.  Otherwise the
  // state may still be one seen before — match by content, re-confirm,
  // and move it to the front.
  std::size_t w = 0;
  if (ways_[0].version != version) {
    while (w < kStateWays &&
           !(ways_[w].valid && ways_[w].unc_min == umin &&
             ways_[w].unc_max == umax && ways_[w].demand == demand)) {
      ++w;
    }
    if (w < kStateWays) {
      ++cell_stats_.local_hits;
    } else {
      // Never-seen state for this governor: the least recently used way
      // takes it with an empty row.
      w = kStateWays - 1;
      StateWay& way = ways_[w];
      if (way.valid) ++cell_stats_.way_evictions;
      way.unc_min = umin;
      way.unc_max = umax;
      way.demand = demand;
      way.valid = true;
      for (std::size_t j = 0; j < n; ++j) {
        rows_[way.row + j].edge = kUnset;
        rows_[way.row + j].recorded_w = kUnset;
      }
    }
    ways_[w].version = version;
    std::rotate(ways_.begin(), ways_.begin() + static_cast<std::ptrdiff_t>(w),
                ways_.begin() + static_cast<std::ptrdiff_t>(w) + 1);
  }
  // Edges do not depend on the user P-state limit, operating points do.
  StateWay& front = ways_.front();
  const double user_mhz = socket_.user_pstate_limit_mhz();
  if (front.user_mhz != user_mhz) {
    for (std::size_t j = 0; j < n; ++j) rows_[front.row + j].recorded_w = kUnset;
    front.user_mhz = user_mhz;
  }
}

inline double FirmwareGovernor::row_edge(StateEntry* row, std::size_t j) const {
  double& e = row[j].edge;
  if (std::isnan(e)) [[unlikely]] {
    e = lowest_allowance_reaching(j);
    ++cell_stats_.cold_builds;
  }
  return e;
}

std::size_t FirmwareGovernor::next_pstate(double allowance_w, std::size_t p,
                                          StateEntry* row) const {
  // Locate the allowance's cell — the P-state the search would return —
  // starting from p's own cell (where a calm tick lands in one or two
  // comparisons) and walking only as far as the slew limits can matter:
  // past them the clamp fixes the outcome regardless of how much further
  // the search result lies.  A non-finite allowance plans core_max, which
  // the up-slew clamps to where the walk up would stop.
  const Slew& sl = slew_[p];
  std::size_t k = p;
  if (!std::isfinite(allowance_w)) {
    k = sl.up_reach;
  } else if (allowance_w >= row_edge(row, k)) {
    while (k < sl.up_reach && allowance_w >= row_edge(row, k + 1)) ++k;
  } else {
    while (k > sl.down_reach) {
      --k;
      if (allowance_w >= row_edge(row, k)) break;
    }
  }
  // Slew limiting and quantization: only the walk's last state can lie
  // past a slew limit.
  if (k < p) return k == sl.down_reach ? sl.down_final : k;
  if (k > p) return k == sl.up_reach ? sl.up_final : k;
  return p;
}

void FirmwareGovernor::tick() {
  pstate_ = planned_pstate();
  socket_.set_core_freq_limit_mhz(current_limit_mhz());
}

double FirmwareGovernor::planned_limit_mhz() const {
  return pstate_mhz(socket_.config(), planned_pstate());
}

double FirmwareGovernor::planned_limit_reference_mhz() const {
  return planned_from_allowance(current_allowance());
}

std::size_t FirmwareGovernor::planned_pstate() const {
  return next_pstate(current_allowance(), pstate_, state_row());
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
  const double current = current_limit_mhz();
  if (target < current) {
    target = std::max(target, current - params_.throttle_slew_mhz);
  } else if (target > current) {
    target = std::min(target, current + params_.unthrottle_slew_mhz);
  }
  return socket_.quantize_core_mhz(target);
}

bool FirmwareGovernor::steady_state(double pkg_power_w) const {
  return long_window_.steady_under(pkg_power_w) &&
         short_window_.steady_under(pkg_power_w) &&
         planned_pstate() == pstate_;
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
  if (reaches(0.0)) return -std::numeric_limits<double>::infinity();
  constexpr double kTop = 1e300;
  if (!reaches(kTop)) return std::numeric_limits<double>::infinity();
  // Closed form: past the fixed watts the probe is the compare
  // (a - fixed) / dyn_at_ref >= T[idx], so the flip sits where
  // a = fixed + T[idx] * dyn_at_ref; without a finite threshold or a
  // dynamic term it is the first double above the fixed watts.  The
  // rounded subtraction and division are monotone in a, and the fixed
  // watts are non-negative, so nothing cancels and the exact flipping
  // double lies within a double or two of the estimate.  Walking there
  // with the probe itself lands on the bits a bisection would: a
  // monotone predicate flips at exactly one double.
  double edge = terms.fixed_w;
  if (terms.dyn_at_ref_w > 0.0 && std::isfinite(threshold)) {
    edge += threshold * terms.dyn_at_ref_w;
  }
  edge = std::clamp(edge, 0.0, kTop);
  // reaches(0) is false and reaches(kTop) true, so either walk ends; the
  // step bound turns a broken estimate into an error instead of a hang.
  constexpr int kMaxWalk = 64;
  int steps = 0;
  if (reaches(edge)) {
    for (double below = std::nextafter(edge, 0.0); reaches(below);
         below = std::nextafter(below, 0.0)) {
      edge = below;
      DUFP_ASSERT(++steps < kMaxWalk);
    }
  } else {
    do {
      edge = std::nextafter(edge, kTop);
      DUFP_ASSERT(++steps < kMaxWalk);
    } while (!reaches(edge));
  }
  return edge;
}

void FirmwareGovernor::fill_flip_entry(
    double recorded_w, std::span<const double, kFlipLanes> lanes) {
  DUFP_EXPECT(recorded_w >= 0.0);
  StateEntry& e = state_row()[pstate_];
  e.recorded_w = recorded_w;
  std::copy(lanes.begin(), lanes.end(), e.lanes.begin());
}

FirmwareGovernor::CalmRun FirmwareGovernor::calm_run(std::size_t max_ticks,
                                                     std::span<Flip> flips) {
  // Nothing inside the kernel moves the socket state, so the row found
  // here holds for the whole call.
  DUFP_EXPECT(max_ticks <= std::numeric_limits<std::uint32_t>::max());
  StateEntry* const row = state_row();
  const std::size_t n = slew_.size();
  std::size_t p = pstate_;
  const double v = row[p].recorded_w;
  DUFP_EXPECT(!std::isnan(v));
  double lo = row_edge(row, p);
  bool top = p + 1 == n;
  double hi = top ? 0.0 : row_edge(row, p + 1);

  // While a window fills, add() changes its divisor and may grow its
  // storage: the per-tick body, one add() per window, and the first flip
  // is the caller's.
  std::size_t k = 0;
  for (; k < max_ticks && !(long_window_.full() && short_window_.full());
       ++k) {
    if (!in_calm_cell(current_allowance(), lo, hi, top)) return {k, 0};
    long_window_.add(v);
    short_window_.add(v);
  }
  if (k == max_ticks) return {k, 0};

  // Both windows full: the same allowance expression over register-held
  // sums.  The limit and gain are copied into locals too — the slot
  // stores could alias the members, which would force a reload per tick.
  const msr::PowerLimit limit = limit_;
  const double gain = params_.headroom_gain;
  WindowedMean::Cursor lw = long_window_.cursor(v);
  WindowedMean::Cursor sw = short_window_.cursor(v);
  std::size_t logged = 0;
  for (; k < max_ticks; ++k) {
    const double a = allowance_from(limit, gain, lw.mean(), sw.mean());
    if (in_calm_cell(a, lo, hi, top)) {
      lw.add();
      sw.add();
      continue;
    }
    // Flip tick k: tick() would apply state q, and record_power() push
    // q's recorded power.
    if (logged == flips.size()) break;
    const std::size_t q = next_pstate(a, p, row);
    const double vq = row[q].recorded_w;
    if (std::isnan(vq)) break;
    flips[logged++] = {static_cast<std::uint32_t>(k),
                       static_cast<std::uint32_t>(q)};
    p = q;
    lw.add(vq);
    sw.add(vq);
    // The next tick's calm test needs q's cell.  A call that ends here
    // leaves it to the next call, which may run under another socket
    // state, so no edge is built that no decision needs.
    if (k + 1 < max_ticks) {
      lo = row_edge(row, q);
      top = q + 1 == n;
      hi = top ? 0.0 : row_edge(row, q + 1);
    }
  }
  long_window_.commit(lw);
  short_window_.commit(sw);
  if (p != pstate_) {
    pstate_ = p;
    socket_.set_core_freq_limit_mhz(current_limit_mhz());
  }
  return {k, logged};
}

}  // namespace dufp::rapl
