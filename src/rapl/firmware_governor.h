// Simulated RAPL firmware (the package control unit's power-limiting
// loop).  Runs at simulation-tick resolution (1 ms): maintains a running
// average of package power per constraint window and picks the highest
// core P-state whose predicted power respects every enabled constraint,
// with realistic slew limits.
//
// This reproduces the behaviours the paper leans on:
//  * enforcement is via core DVFS (Sec. II-B: "RAPL uses DVFS");
//  * the long-term constraint allows short excursions above the limit as
//    long as the window average complies; the short-term constraint
//    bounds those excursions;
//  * a freshly lowered cap takes tens of milliseconds to bite (Sec. IV-D:
//    "some time is needed to apply a new power cap"), because the window
//    average must drain and the P-state slews down step by step.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ring_buffer.h"
#include "hwmodel/demand.h"
#include "hwmodel/socket_model.h"
#include "msr/registers.h"
#include "rapl/cell_cache.h"

namespace dufp::rapl {

struct GovernorParams {
  double tick_s = 0.001;  ///< control-loop period

  /// Correction aggressiveness: instantaneous allowance is
  /// limit + gain * (limit - window_average); >0 lets the package burst
  /// above a cold limit and forces under-shoot after an overshoot.
  double headroom_gain = 2.0;

  /// P-state slew: throttling is fast (thermal protection), unthrottling
  /// deliberate (avoids oscillation) — per tick, in MHz.
  double throttle_slew_mhz = 300.0;
  double unthrottle_slew_mhz = 100.0;
};

/// One constraint's term of the allowance, limit + gain·(limit − mean),
/// over a full window of `span` samples summing to `sum_q` quanta.  The
/// decision's allowance is the smaller of the terms of the constraints
/// that bind (enabled, with a positive limit), +inf when none does.  A
/// term falls weakly as the sum grows (gain >= 0).
double allowance_term(double limit_w, double gain, std::int64_t sum_q,
                      std::size_t span);

/// Where the allowance reaches an edge, as window sums: over full windows
/// of `long_span` and `short_span` samples, the allowance under `limit`
/// is at or above `edge_w` exactly when long sum <= long_q and short sum
/// <= short_q.
struct SumThresholds {
  std::int64_t long_q = 0;
  std::int64_t short_q = 0;
};

/// Each threshold is the largest sum s >= 0 at which its constraint's term
/// still reaches the edge: INT64_MAX when every sum does (a -inf edge
/// among them) or the constraint does not bind, INT64_MIN when none does
/// (a +inf edge among them).  Found from the closed form
/// span·2^30·(limit + (limit − edge)/gain), settled on the exact integer
/// with the term itself: a gallop, then a bisection.
SumThresholds sum_thresholds(const msr::PowerLimit& limit, double gain,
                             std::size_t long_span, std::size_t short_span,
                             double edge_w);

class FirmwareGovernor {
 public:
  /// Lanes of the simulation engine's per-tick increments (sim::Simulation's
  /// accumulator lanes) kept per P-state for calm_run's flips
  /// (fill_flip_entry).  The governor stores them for the engine's replay
  /// and never reads them.
  static constexpr std::size_t kFlipLanes = 11;

  /// One flip tick calm_run took: its index counted from the call's first
  /// tick, and the P-state (index above core_min) it moved the limit to.
  struct Flip {
    std::uint32_t tick = 0;
    std::uint32_t pstate = 0;
  };

  /// What one calm_run call did.
  struct CalmRun {
    std::size_t ticks = 0;  ///< ticks run, calm and flip alike
    std::size_t flips = 0;  ///< flip-log entries written
  };

  FirmwareGovernor(hw::SocketModel& socket, const GovernorParams& params);

  /// Installs new constraints (from an MSR 0x610 write).  Re-sizes the
  /// averaging windows; accumulated history within the old windows is
  /// kept where it fits.
  void set_limit(const msr::PowerLimit& limit);
  const msr::PowerLimit& limit() const { return limit_; }

  /// Chooses and applies the core-frequency limit for the next tick.
  /// Call once per tick, before the socket is evaluated.
  void tick();

  /// Feeds the power actually drawn over the tick just simulated; the
  /// windows count it in quanta (to_quanta).
  void record_power(double pkg_power_w, double dt_s) {
    DUFP_EXPECT(dt_s > 0.0);
    long_window_.add(pkg_power_w);
    short_window_.add(pkg_power_w);
  }

  /// Window averages (diagnostics / tests).
  double long_term_avg_w() const { return long_window_.mean(); }
  double short_term_avg_w() const { return short_window_.mean(); }
  /// The averaging windows themselves (tests compare sizes and runs).
  const WindowedMean& long_window() const { return long_window_; }
  const WindowedMean& short_window() const { return short_window_; }

  /// Frequency limit currently applied (MHz).
  double current_limit_mhz() const {
    return pstate_mhz(socket_.config(), pstate_);
  }

  /// The simulation engine's calm-stretch kernel.  Runs up to `max_ticks`
  /// cycles of tick() + record_power(v(p)), where v(p) is the recorded
  /// power of the P-state p the tick applies, as fill_flip_entry filled it
  /// for the socket's current state, and reports how many it ran.
  ///
  /// A calm tick keeps the applied limit: its tick() would be a no-op
  /// write, so only its window pushes are observable, and the kernel
  /// performs exactly those.  The decision is tick()'s own (see
  /// planned_limit_mhz): the allowance must stay inside the applied
  /// state's cell.  A flip tick moves the limit: the kernel finds the new
  /// state with tick()'s walk, slew and quantization code, pushes the new
  /// state's recorded power and logs the flip in `flips`.  It stops before
  /// a flip it cannot take — the new state's entry is not filled, or the
  /// log is full — and that tick is the caller's: tick(), then
  /// record_power(v) and fill_flip_entry at the new state.  After
  /// calm_run returns {k, f}, the governor and its socket's core limit
  /// are bit-identical to k such cycles.
  ///
  /// While a window fills, each tick takes tick()'s allowance form and the
  /// plain add() path, since the divisor and the storage can still change.
  /// Once both windows are full their sums, write positions and slot
  /// pointers live in registers (WindowedMean::Cursor) and are committed
  /// once at the end, and "the allowance reaches state j" is two integer
  /// compares of the window sums against j's thresholds
  /// (sum_thresholds), so neither a calm tick nor a flip divides.
  /// While the short window holds one value throughout its sum is fixed,
  /// and the calm test is a range test on the long sum alone
  /// (WindowedMean::Cursor::add_while_in).  Requires the applied
  /// P-state's entry filled.
  CalmRun calm_run(std::size_t max_ticks, std::span<Flip> flips);

  /// Fills the applied P-state's entry for the socket's current state:
  /// `recorded_w` is the power record_power() is fed there, `lanes` the
  /// engine's per-tick increments there.  Entries are kept per socket
  /// state (uncore window, demand and user P-state limit: what an
  /// operating point depends on besides the core limit), so a state the
  /// socket returns to finds them filled.
  void fill_flip_entry(double recorded_w,
                       std::span<const double, kFlipLanes> lanes);

  /// The lanes filled for P-state `pstate` under the socket's current
  /// state; the engine replays them for the flips calm_run logged.
  const double* flip_lanes(std::size_t pstate) const {
    return rows_[ways_.front().row + pstate].lanes.data();
  }

  /// The control decision of tick() without the actuation: the quantized
  /// frequency limit the governor would apply given the current windows.
  ///
  /// Computed without running the P-state search: the allowance axis
  /// partitions into cells on which the search output is constant (it is
  /// a monotone step function of the allowance), and the exact cell
  /// edges — the precise doubles where the search output flips — are
  /// cached per P-state in the row of a socket state, keyed on the uncore
  /// window and the phase demand (the search's only other inputs).
  /// Locating the allowance's cell costs a few comparisons, and the slew
  /// limits and quantization are applied in P-state index space from a
  /// per-state table built at construction, so no rounding call runs.
  /// An edge is built the first time a state's row needs it, in closed
  /// form: the
  /// allowance where the target scale meets the config's threshold for
  /// the state (SharedCellCache::scale_thresholds), walked to the exact
  /// double where the threshold probe — which answers exactly as the
  /// search would — flips, in about four probes.
  double planned_limit_mhz() const;

  /// Reference implementation of the same decision via a fresh P-state
  /// search (the pre-cell-table code path).  Exposed so equivalence
  /// tests (GovernorCellTableTest) can check the cached decision
  /// bit-for-bit; not used on any engine path.
  double planned_limit_reference_mhz() const;

  /// Cell-table economics of this governor since construction: cold edge
  /// builds, probes spent inside them, socket states found in the ways
  /// and ways evicted.  They
  /// depend on this governor's history alone, never on other governors
  /// in the process.  A pure observer — reading it never perturbs the
  /// cache.
  const CellStats& cell_stats() const { return cell_stats_; }

 private:
  /// Where the decision's slew limits and quantization land, in P-state
  /// index space, for one applied state p: the walk from p reaches no
  /// lower than `down_reach` and no higher than `up_reach`, and only
  /// those two states can lie past a slew limit, where the clamped,
  /// quantized target is `down_final` / `up_final`.  Every state between
  /// them is its own quantized target.  Built at construction with the
  /// decision's own MHz expressions, so the index-space decision is the
  /// MHz one bit for bit.
  struct Slew {
    std::size_t down_reach = 0;
    std::size_t down_final = 0;
    std::size_t up_reach = 0;
    std::size_t up_final = 0;
  };

  /// What the governor keeps about one P-state under one socket state.
  struct StateEntry {
    /// The cell edge: the exact double where the P-state search first
    /// reaches the state; -inf when every allowance does, +inf when none
    /// does, NaN until built.
    double edge = 0.0;
    /// What record_power() is fed at the state, in quanta
    /// (fill_flip_entry); -1 until filled.
    std::int64_t recorded_q = -1;
    /// Where the allowance reaches the edge, as window sums, under the
    /// limit of epoch `epoch` (row_thresholds).
    SumThresholds thresholds;
    std::uint64_t epoch = 0;
    std::array<double, kFlipLanes> lanes{};
  };

  /// One socket state the governor has met: the inputs an operating
  /// point depends on besides the core limit, and the state's row of
  /// entries, one per P-state, in rows_.  Edges depend on the uncore
  /// window and the demand; recorded powers and lanes also on the user
  /// P-state limit, which the socket's state version does not cover.
  struct StateWay {
    std::uint64_t version = 0;  ///< state version at last confirmation
    double unc_min = 0.0;
    double unc_max = 0.0;
    hw::PhaseDemand demand;
    double user_mhz = 0.0;  ///< limit the row's powers and lanes hold for
    std::size_t row = 0;    ///< first entry of the row in rows_
    bool valid = false;
  };
  /// Socket states kept, in recency order.  Workloads alternate between
  /// phases and DUFP controllers sweep the uncore window, so a state
  /// comes back, and with its row its edges, powers and lanes: nothing is
  /// rebuilt or refilled on a return.  Sixteen build fewer edges than
  /// eight on the ledger workloads (DESIGN.md §7b).
  static constexpr std::size_t kStateWays = 16;

  /// Instantaneous allowance from the current window averages — the
  /// first half of the control decision; an empty window averages at its
  /// own limit.
  double current_allowance() const;
  /// Reference second half of the decision: fresh P-state search
  /// (SocketModel::core_mhz_for_power floored onto the grid), slew,
  /// quantization.
  double planned_from_allowance(double allowance_w) const;
  /// The P-state tick() applies next.
  std::size_t planned_pstate() const;
  /// The decision's second half from applied state p, shared by tick()
  /// and calm_run: the cell walk, asking reaches(j) for "the allowance
  /// reaches state j", then slew and quantization through slew_.  tick()
  /// answers with the allowance against the row's edges, calm_run with
  /// the window sums against the row's thresholds.  Bit-identical to
  /// planned_from_allowance by construction: exact edges, exact
  /// thresholds, and slew_ built from the same expressions.
  template <typename Reaches>
  std::size_t next_pstate(std::size_t p, Reaches reaches) const;
  /// tick()'s answer to next_pstate's question: the allowance against
  /// row entry j's edge.
  bool allowance_reaches(double allowance_w, StateEntry* row,
                         std::size_t j) const;

  /// The current socket state's row.  The common case — the front way's
  /// version and user limit match — is two compares; otherwise
  /// find_state.
  StateEntry* state_row() const;
  /// Moves the current socket state's way to the front: found by content
  /// and re-confirmed, or claimed from the least recently used way with
  /// an empty row.  A new user P-state limit empties the row's powers.
  void find_state() const;
  /// Row entry j's edge, built on first use.
  double row_edge(StateEntry* row, std::size_t j) const;
  /// Row entry j's thresholds under the current limit, built on first use
  /// in the limit's epoch.
  SumThresholds row_thresholds(StateEntry* row, std::size_t j) const;
  /// Smallest allowance for which the P-state search reaches grid state
  /// `idx`: the closed-form estimate fixed_w + T[idx] · dyn_at_ref_w,
  /// walked over the double lattice to the exact double where the
  /// threshold probe flips.
  double lowest_allowance_reaching(std::size_t idx) const;

  std::size_t window_ticks(double window_s) const;

  hw::SocketModel& socket_;
  GovernorParams params_;
  msr::PowerLimit limit_;
  /// Bumped by set_limit whenever a limit, an enable bit or a window span
  /// changes, which is all a threshold depends on besides its edge; an
  /// entry's thresholds hold while their epoch matches.
  std::uint64_t limit_epoch_ = 1;
  WindowedMean long_window_;
  WindowedMean short_window_;
  /// Applied P-state, steps above core_min.
  std::size_t pstate_;
  /// Per applied P-state: where the slew limits land (see Slew).
  std::vector<Slew> slew_;
  /// The socket-state ways and their rows (kStateWays × P-states),
  /// allocated at construction.  Mutable: the decision paths are const,
  /// and the lazily built cache is an invisible memo.
  mutable std::array<StateWay, kStateWays> ways_{};
  mutable std::vector<StateEntry> rows_;
  /// This socket config's threshold table, fetched at construction so
  /// the in-run cache paths never allocate or lock.
  const double* scale_thresholds_ = nullptr;
  /// Economics counters (see cell_stats()); mutable for the same reason
  /// the ways are.
  mutable CellStats cell_stats_;
};

}  // namespace dufp::rapl
