#include "rapl/firmware_governor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/expect.h"
#include "hwmodel/socket_model.h"

namespace dufp::rapl {

namespace {

constexpr std::int64_t kEverySum = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kNoSum = std::numeric_limits<std::int64_t>::min();

/// One constraint's term given its window average: the one floating-point
/// expression every form of the decision shares.
double term_at(double limit_w, double gain, double avg_w) {
  return limit_w + gain * (limit_w - avg_w);
}

/// A constraint takes part in the decision only when enabled with a
/// positive limit.
bool binds(bool enabled, double limit_w) { return enabled && limit_w > 0.0; }

/// The allowance given the two window averages: the smaller of the binding
/// constraints' terms, +inf when none binds.
double allowance_from(const msr::PowerLimit& limit, double gain,
                      double long_avg_w, double short_avg_w) {
  double allowance = std::numeric_limits<double>::infinity();
  if (binds(limit.long_term_enabled, limit.long_term_w)) {
    allowance =
        std::min(allowance, term_at(limit.long_term_w, gain, long_avg_w));
  }
  if (binds(limit.short_term_enabled, limit.short_term_w)) {
    allowance =
        std::min(allowance, term_at(limit.short_term_w, gain, short_avg_w));
  }
  return allowance;
}

/// One constraint's threshold (see sum_thresholds).
std::int64_t largest_sum_reaching(double limit_w, double gain,
                                  std::size_t span, double edge_w) {
  if (edge_w == -std::numeric_limits<double>::infinity()) return kEverySum;
  if (edge_w == std::numeric_limits<double>::infinity()) return kNoSum;
  const auto reaches = [&](std::int64_t s) {
    return allowance_term(limit_w, gain, s, span) >= edge_w;
  };
  // limit + gain·(limit − s/(span·2^30)) >= edge solved for s; with no
  // gain the term is the limit whatever the sum, and the probes below
  // find that out from s = 0.
  double estimate = 0.0;
  if (gain > 0.0) {
    estimate = static_cast<double>(span) * 0x1p30 *
               (limit_w + (limit_w - edge_w) / gain);
  }
  std::int64_t s0 = 0;
  if (estimate >= 0x1p63) {
    s0 = kEverySum;
  } else if (estimate > 0.0) {
    s0 = static_cast<std::int64_t>(estimate);
  }
  // Gallop from the estimate to a bracket reaches(lo) && !reaches(hi),
  // doubling the step; the term is monotone, so the ends of the sum range
  // settle the sentinels.  Then bisect: the rounding the estimate skipped
  // moves the answer by a quantum or so on the RAPL windows, by more on
  // fault-sized ones.
  std::int64_t lo = s0;
  std::int64_t hi = s0;
  if (reaches(s0)) {
    for (std::uint64_t step = 1;; step *= 2) {
      if (lo == kEverySum) return kEverySum;
      hi = step >= static_cast<std::uint64_t>(kEverySum - lo)
               ? kEverySum
               : lo + static_cast<std::int64_t>(step);
      if (!reaches(hi)) break;
      lo = hi;
    }
  } else {
    for (std::uint64_t step = 1;; step *= 2) {
      if (hi == 0) return kNoSum;
      lo = step >= static_cast<std::uint64_t>(hi)
               ? 0
               : hi - static_cast<std::int64_t>(step);
      if (reaches(lo)) break;
      hi = lo;
    }
  }
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (reaches(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

double allowance_term(double limit_w, double gain, std::int64_t sum_q,
                      std::size_t span) {
  return term_at(limit_w, gain, quanta_mean(sum_q, span));
}

SumThresholds sum_thresholds(const msr::PowerLimit& limit, double gain,
                             std::size_t long_span, std::size_t short_span,
                             double edge_w) {
  SumThresholds t{kEverySum, kEverySum};
  if (binds(limit.long_term_enabled, limit.long_term_w)) {
    t.long_q = largest_sum_reaching(limit.long_term_w, gain, long_span, edge_w);
  }
  if (binds(limit.short_term_enabled, limit.short_term_w)) {
    t.short_q =
        largest_sum_reaching(limit.short_term_w, gain, short_span, edge_w);
  }
  return t;
}

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
  const std::size_t lw = window_ticks(limit.long_term_window_s);
  const std::size_t sw = window_ticks(limit.short_term_window_s);
  if (limit.long_term_w != limit_.long_term_w ||
      limit.short_term_w != limit_.short_term_w ||
      limit.long_term_enabled != limit_.long_term_enabled ||
      limit.short_term_enabled != limit_.short_term_enabled ||
      lw != long_window_.capacity() || sw != short_window_.capacity()) {
    ++limit_epoch_;
  }
  limit_ = limit;
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
        StateEntry& e = rows_[way.row + j];
        e.edge = kUnset;
        e.recorded_q = -1;
        e.epoch = 0;
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
    for (std::size_t j = 0; j < n; ++j) rows_[front.row + j].recorded_q = -1;
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

inline SumThresholds FirmwareGovernor::row_thresholds(StateEntry* row,
                                                     std::size_t j) const {
  StateEntry& e = row[j];
  if (e.epoch != limit_epoch_) [[unlikely]] {
    e.thresholds = sum_thresholds(limit_, params_.headroom_gain,
                                  long_window_.capacity(),
                                  short_window_.capacity(), row_edge(row, j));
    e.epoch = limit_epoch_;
  }
  return e.thresholds;
}

template <typename Reaches>
std::size_t FirmwareGovernor::next_pstate(std::size_t p,
                                          Reaches reaches) const {
  // Locate the allowance's cell — the P-state the search would return —
  // starting from p's own cell (where a calm tick lands in one or two
  // questions) and walking only as far as the slew limits can matter:
  // past them the clamp fixes the outcome regardless of how much further
  // the search result lies.
  const Slew& sl = slew_[p];
  std::size_t k = p;
  if (reaches(k)) {
    while (k < sl.up_reach && reaches(k + 1)) ++k;
  } else {
    while (k > sl.down_reach) {
      --k;
      if (reaches(k)) break;
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

inline bool FirmwareGovernor::allowance_reaches(double allowance_w,
                                                StateEntry* row,
                                                std::size_t j) const {
  // A non-finite allowance plans core_max: it reaches every state, so the
  // walk stops where the up-slew clamps, and no edge is built for it.
  return !std::isfinite(allowance_w) || allowance_w >= row_edge(row, j);
}

std::size_t FirmwareGovernor::planned_pstate() const {
  const double a = current_allowance();
  StateEntry* const row = state_row();
  return next_pstate(
      pstate_, [&](std::size_t j) { return allowance_reaches(a, row, j); });
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
  const std::int64_t q = to_quanta(pkg_power_w);
  return long_window_.steady_under(q) && short_window_.steady_under(q) &&
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
  StateEntry& e = state_row()[pstate_];
  e.recorded_q = to_quanta(recorded_w);
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
  std::int64_t v = row[p].recorded_q;
  DUFP_EXPECT(v >= 0);
  std::size_t k = 0;
  std::size_t logged = 0;
  // Every return applies the state the last flip moved to.
  const auto finish = [&] {
    if (p != pstate_) {
      pstate_ = p;
      socket_.set_core_freq_limit_mhz(current_limit_mhz());
    }
    return CalmRun{k, logged};
  };

  // While a window fills, add() changes its divisor and may grow its
  // storage: the per-tick body in tick()'s allowance form, one add() per
  // window.
  for (; k < max_ticks && !(long_window_.full() && short_window_.full());
       ++k) {
    const double a = current_allowance();
    const auto reaches = [&](std::size_t j) {
      return allowance_reaches(a, row, j);
    };
    if (!reaches(p) || (p + 1 < n && reaches(p + 1))) {
      if (logged == flips.size()) return finish();
      const std::size_t q = next_pstate(p, reaches);
      if (row[q].recorded_q < 0) return finish();
      flips[logged++] = {static_cast<std::uint32_t>(k),
                         static_cast<std::uint32_t>(q)};
      p = q;
      v = row[q].recorded_q;
    }
    long_window_.add_quanta(v);
    short_window_.add_quanta(v);
  }
  if (k == max_ticks) return finish();

  // Both windows full: the sums, in registers, against the thresholds of
  // the applied state (lo) and the one above it (hi).  The allowance lies
  // in the applied state's cell when it reaches lo's edge and not hi's.
  WindowedMean::Cursor lw = long_window_.cursor(v);
  WindowedMean::Cursor sw = short_window_.cursor(v);
  SumThresholds lo = row_thresholds(row, p);
  bool top = p + 1 == n;
  SumThresholds hi = top ? SumThresholds{} : row_thresholds(row, p + 1);
  while (k < max_ticks) {
    if (sw.uniform()) {
      // The short sum stays put, so the cell is a range of long sums.
      const std::int64_t ss = sw.sum();
      const std::int64_t upper = ss <= lo.short_q ? lo.long_q : kNoSum;
      const std::int64_t lower = top || ss > hi.short_q ? kNoSum : hi.long_q;
      const std::size_t m = lw.add_while_in(lower, upper, max_ticks - k);
      sw.repeat(m);
      k += m;
      if (k == max_ticks) break;
    } else {
      const std::int64_t ls = lw.sum();
      const std::int64_t ss = sw.sum();
      if (ls <= lo.long_q && ss <= lo.short_q &&
          (top || ls > hi.long_q || ss > hi.short_q)) {
        lw.add();
        sw.add();
        ++k;
        continue;
      }
    }
    // Flip tick k: tick() would apply state q, and record_power() push
    // q's recorded power.
    if (logged == flips.size()) break;
    const std::int64_t ls = lw.sum();
    const std::int64_t ss = sw.sum();
    const std::size_t q = next_pstate(p, [&](std::size_t j) {
      const SumThresholds t = row_thresholds(row, j);
      return ls <= t.long_q && ss <= t.short_q;
    });
    const std::int64_t vq = row[q].recorded_q;
    if (vq < 0) break;
    flips[logged++] = {static_cast<std::uint32_t>(k),
                       static_cast<std::uint32_t>(q)};
    p = q;
    lw.add(vq);
    sw.add(vq);
    ++k;
    // The next tick's calm test needs q's cell.  A call that ends here
    // leaves it to the next call, which may run under another socket
    // state, so no edge is built that no decision needs.
    if (k < max_ticks) {
      lo = row_thresholds(row, q);
      top = q + 1 == n;
      hi = top ? SumThresholds{} : row_thresholds(row, q + 1);
    }
  }
  long_window_.commit(lw);
  short_window_.commit(sw);
  return finish();
}

}  // namespace dufp::rapl
