// Per-config P-state threshold tables (DESIGN.md §7b): what makes a
// governor's cold cell-edge build a closed form.
//
// A cell edge — the exact IEEE-754 double where the governor's P-state
// search output flips to grid state `idx` — is a pure function of
//   (socket numeric parameters, P-state index, uncore window, PhaseDemand).
// The search sees the allowance a only through its target scale
//   ts = (max(a, 0) − fixed_w) / dyn_at_ref_w,
// whose two terms the uncore clock and the demand alone fix
// (hw::PowerModel::inverse_terms), and its grid-floored output is a
// monotone step function of ts that the socket config alone fixes.  So
// each config carries a threshold table — per P-state, the smallest ts
// whose floored hw::PowerModel::core_mhz_for_scale reaches it, pinned once
// by bit-lattice bisection — and the governor's cold build
// (FirmwareGovernor::lowest_allowance_reaching) starts from the allowance
// where ts meets that threshold, fixed_w + T[idx] · dyn_at_ref_w, and
// walks a few doubles to where its threshold probe flips: the same edge
// bits a bisection with full searches would pin, in about four probes.
//
// A build that cheap needs no cache behind the governor's own ways, so
// edges are never shared between governors and a run's cell statistics
// do not depend on which other runs shared its process.  What is shared
// is the threshold tables: SharedCellCache interns each socket config by
// exact field comparison and builds its table on first sight (~1 ms,
// under a mutex, at governor construction only).  Tables are immutable
// and live for the process, so governors read them without locking and
// the in-run paths never allocate (tests/perf/alloc_guard_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "hwmodel/socket_config.h"

namespace dufp::rapl {

/// Cell-edge table economics for one governor (or summed over a run /
/// grid).  Cheap enough to keep always-on; the grid-throughput bench and
/// the perf ledger read it.
struct CellStats {
  /// Edges built: the first time a socket state's row needed the edge.
  std::uint64_t cold_builds = 0;
  std::uint64_t probes = 0;         ///< threshold probes inside them
  /// Always 0: edges are no longer shared between governors.  Kept only
  /// because perfbench/ledger.cpp still reports it; the benchmark-only
  /// follow-up that drops the ledger's rapl.shared_* rows removes it.
  std::uint64_t shared_hits = 0;
  std::uint64_t way_evictions = 0;  ///< valid state ways overwritten
  /// Socket-state changes whose new state was found again in the
  /// governor's own ways.
  std::uint64_t local_hits = 0;

  void add(const CellStats& o) {
    cold_builds += o.cold_builds;
    probes += o.probes;
    shared_hits += o.shared_hits;
    way_evictions += o.way_evictions;
    local_hits += o.local_hits;
  }
};

/// Number of P-states on the config's core grid, core_min to core_max.
std::size_t pstate_count(const hw::SocketConfig& cfg);

/// P-state `idx` in MHz: bit for bit the double floor_to_pstate_mhz
/// returns for that state.
inline double pstate_mhz(const hw::SocketConfig& cfg, std::size_t idx) {
  return static_cast<double>(idx) * cfg.core_step_mhz + cfg.core_min_mhz;
}

/// The P-state search's last step: an unquantized core clock floored onto
/// the grid, so the chosen state's power is at or below the allowance,
/// and clamped to the grid's range (a non-finite clock maps to core_max).
double floor_to_pstate_mhz(const hw::SocketConfig& cfg, double exact_mhz);

/// The process-wide registry of per-config threshold tables.
class SharedCellCache {
 public:
  static SharedCellCache& instance();

  /// The config's target-scale thresholds, one per P-state: entry idx is
  /// the smallest ts in [0, 1] at which the floored
  /// hw::PowerModel::core_mhz_for_scale(ts) reaches state idx — -inf when
  /// ts = 0 already does, +inf when not even ts = 1 does (the curve is
  /// flat from 1 up).  Configs are interned by exact comparison of every
  /// numeric field entering the edge computation (grid geometry, uncore
  /// window range, power and memory model parameters, core count);
  /// model_name is deliberately ignored.  A config's first call builds
  /// its table (~1 ms); every later call with an equal config returns the
  /// same immutable table, valid for the process lifetime.
  const double* scale_thresholds(const hw::SocketConfig& cfg);

  /// Always zero, like CellStats::shared_hits: there is no edge table to
  /// overflow.  Kept only because perfbench/ledger.cpp reads
  /// stats().full_drops; the same benchmark-only follow-up removes it.
  struct GlobalStats {
    std::uint64_t full_drops = 0;
  };
  GlobalStats stats() const { return {}; }

 private:
  SharedCellCache() = default;

  struct InternedConfig {
    hw::SocketConfig cfg;
    std::vector<double> scale_thresholds;
  };
  std::mutex mu_;
  // A deque never moves its elements, so the table pointers handed out
  // stay valid as configs are added.
  std::deque<InternedConfig> configs_;
};

}  // namespace dufp::rapl
