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

#include <cstddef>
#include <cstdint>
#include <optional>
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

class FirmwareGovernor {
 public:
  FirmwareGovernor(hw::SocketModel& socket, const GovernorParams& params);

  /// Installs new constraints (from an MSR 0x610 write).  Re-sizes the
  /// averaging windows; accumulated history within the old windows is
  /// kept where it fits.
  void set_limit(const msr::PowerLimit& limit);
  const msr::PowerLimit& limit() const { return limit_; }

  /// Chooses and applies the core-frequency limit for the next tick.
  /// Call once per tick, before the socket is evaluated.
  void tick();

  /// Feeds the power actually drawn over the tick just simulated.
  void record_power(double pkg_power_w, double dt_s) {
    DUFP_EXPECT(dt_s > 0.0);
    DUFP_EXPECT(pkg_power_w >= 0.0);
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
  double current_limit_mhz() const { return current_limit_mhz_; }

  /// True when the governor is at a bitwise fixed point under a constant
  /// recorded package power of `pkg_power_w`: both averaging windows are
  /// full of exactly that value with a round-off-stable running sum, and
  /// re-running the control decision would reproduce the currently
  /// applied frequency limit bit for bit.  While this holds, a
  /// tick()+record_power(pkg_power_w) cycle changes no observable
  /// governor or socket state — the precondition the simulation's
  /// event-leaping fast path relies on to skip the control loop entirely.
  bool steady_state(double pkg_power_w) const;

  /// O(1) pre-gate for steady_state: both windows consist entirely of one
  /// bitwise-identical value.  Cheap enough to poll every tick.
  bool windows_uniform() const {
    return long_window_.full() &&
           long_window_.run_length() >= long_window_.capacity() &&
           short_window_.full() &&
           short_window_.run_length() >= short_window_.capacity();
  }

  /// Calm-run kernel of the simulation engine's tier-2 stretch.  Runs up
  /// to `max_ticks` calm ticks under a constant recorded package power
  /// and returns how many it ran.  A calm tick is one whose control
  /// decision keeps the applied frequency limit: its tick() would be a
  /// no-op write, so only record_power(recorded_w)'s window pushes are
  /// observable, and the kernel performs exactly those.  The first tick
  /// whose decision would move the limit (a flip tick) ends the run
  /// untouched; the returned count is its index, and the caller runs it
  /// as tick() + record_power().  After calm_run(v, N) returns k, the
  /// governor is bit-identical to k cycles of tick() + record_power(v).
  ///
  /// The decision is the cell-table decision tick() itself uses (see
  /// planned_limit_mhz): the allowance must stay inside the applied
  /// limit's own cell, two comparisons against cached edges.  Once both
  /// windows are full, their sums, write positions and slot pointers
  /// live in registers (WindowedMean::Cursor) and are committed once at
  /// the end; while a window is still filling, each tick takes the plain
  /// add() path, since the divisor and the storage can still change.
  std::size_t calm_run(double recorded_w, std::size_t max_ticks);

  /// The control decision of tick() without the actuation: the quantized
  /// frequency limit the governor would apply given the current windows.
  ///
  /// Computed without running the P-state search: the allowance axis
  /// partitions into cells on which the search output is constant (it is
  /// a monotone step function of the allowance), and the exact cell
  /// edges — the precise doubles where the search output flips, pinned
  /// by bisecting the IEEE-754 bit lattice with probes of the real
  /// search — are cached per P-state, keyed on the uncore window and the
  /// phase demand (the search's only other inputs).  Locating the
  /// allowance's cell costs a few comparisons; the bisection runs only
  /// when an edge is first needed for a never-seen socket state.
  double planned_limit_mhz() const;

  /// Reference implementation of the same decision via a fresh P-state
  /// search (the pre-cell-table code path).  Exposed so equivalence
  /// tests can check the cached decision bit-for-bit; not used on any
  /// engine path.
  double planned_limit_reference_mhz() const;

  /// Cell-table economics of this governor since construction: cold edge
  /// builds, probes spent inside them, hits served by the process-wide
  /// shared cache, way evictions.  A pure observer — reading it never
  /// perturbs the cache.
  const CellStats& cell_stats() const { return cell_stats_; }

 private:
  /// One cached edge of the allowance→P-state partition: the exact
  /// double where the P-state search first reaches the state `idx` steps
  /// above core_min.  Keyed on the inputs the search depends on besides
  /// the allowance, so edges survive a DUFP controller hunting the
  /// uncore window and workloads revisiting phases; kCellWays
  /// alternatives per state cover a controller alternating between a few
  /// operating points without thrash.
  struct CellSlot {
    std::uint64_t version = 0;  ///< state version at last confirmation
    double unc_min = 0.0;       ///< uncore window the edge was built for
    double unc_max = 0.0;
    hw::PhaseDemand demand;     ///< demand the edge was built for
    double edge = 0.0;
    bool valid = false;
  };
  /// A DUFP controller's uncore hunt sweeps the full ratio range (a dozen
  /// or more distinct windows), so the ways must cover the whole sweep or
  /// the cache thrashes and the edge bisection dominates the run again.
  /// Hits are moved to the front, keeping the common case one compare.
  static constexpr std::size_t kCellWays = 24;

  /// Instantaneous allowance from the current window averages — the
  /// first half of the control decision; an empty window averages at its
  /// own limit.
  double current_allowance() const;
  /// Refills the flat calm-cell members (calm_lo_/calm_hi_/calm_top_)
  /// from the cell table for the currently applied limit.
  void refresh_calm_cell();
  /// Reference second half of the decision: fresh P-state search, slew,
  /// quantization.
  double planned_from_allowance(double allowance_w) const;
  /// Cell-table second half: bit-identical to planned_from_allowance by
  /// construction (exact cached edges; slew/quantization shared).
  double planned_cached(double allowance_w) const;

  /// Edge of cell `idx` for the socket's current state (lazily built,
  /// cached in cells_; way misses consult the process-wide
  /// SharedCellCache before falling back to the bisection).  -inf when
  /// every allowance reaches the state, +inf when none does.
  double cell_edge(std::size_t idx) const;
  /// Smallest allowance for which the P-state search reaches grid state
  /// `idx`, pinned to the exact flipping double by bit-lattice bisection.
  double lowest_allowance_reaching(std::size_t idx) const;
  /// P-state `idx` in MHz, evaluated with the exact FP expression the
  /// search's grid flooring produces.
  double grid_mhz(std::size_t idx) const;

  /// Highest quantized core frequency with predicted power <= allowance.
  double highest_compliant_mhz(double allowance_w) const;

  std::size_t window_ticks(double window_s) const;

  hw::SocketModel& socket_;
  GovernorParams params_;
  msr::PowerLimit limit_;
  WindowedMean long_window_;
  WindowedMean short_window_;
  double current_limit_mhz_;
  /// Cell-edge cache, kCellWays recency-ordered slots per P-state
  /// (planned_limit_mhz is const — the lazily built cache is an
  /// invisible memo).
  mutable std::vector<CellSlot> cells_;
  /// This socket config's SharedCellCache id, interned at construction
  /// so the in-run cache paths never allocate.
  std::uint32_t shared_cfg_ = 0;
  /// Economics counters (see cell_stats()); mutable for the same reason
  /// cells_ is — the decision paths are const.
  mutable CellStats cell_stats_;

  /// The applied limit's own cell, flattened into members so the calm
  /// test is two comparisons with no cache lookup; revalidated by
  /// (limit, socket state version).
  mutable double calm_lo_ = 0.0;
  mutable double calm_hi_ = 0.0;
  mutable bool calm_top_ = false;  ///< limit is the top state: no upper edge
  mutable double calm_limit_ = -1.0;
  mutable std::uint64_t calm_version_ = 0;
};

}  // namespace dufp::rapl
