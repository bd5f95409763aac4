// Process-wide shared cell-edge cache (DESIGN.md §7f).
//
// A cell edge — the exact IEEE-754 double where the governor's P-state
// search output flips to grid state `idx` — is a pure function of
//   (socket numeric parameters, P-state index, uncore window, PhaseDemand):
// the bit-lattice bisection in FirmwareGovernor::lowest_allowance_reaching
// probes only SocketModel::core_mhz_for_power / package_power_at, whose
// inputs are exactly those values.  Two governors anywhere in the process
// whose keys match therefore compute bit-equal edges, so a shared
// read-only cache behind the per-governor ways is invisible to the
// byte-identity contract: a hit replays the identical double the local
// bisection would have produced.
//
// This is the cross-run amortization layer of a grid: repetition 2..N
// of a cell, the other sockets of the same machine, and every
// same-config cell of a grid start warm instead of re-running ~25 planner probes per (P-state, window, demand) tuple —
// the single largest cost of a cold tournament grid (~40% of wall time).
//
// Concurrency: a single mutex guards the table (the plan's ThreadPool
// workers all land here).  Lookups are rare
// relative to calm ticks — the per-governor ways absorb the hot path —
// so the lock is not contended in practice.  Insertion is
// first-writer-wins; a racing second insert computed the identical bits
// anyway.
//
// Allocation discipline: the edge table is a fixed-capacity
// open-addressing array allocated once at singleton construction, so
// lookup/insert never touch the heap — the engine's zero-allocation
// steady-state guarantee (tests/perf/alloc_guard_test) extends through
// the cache.  A full table drops further inserts (counted in
// GlobalStats::full_drops); correctness is unaffected, later runs just
// rebuild those edges locally.
//
// Keys compare the *bit patterns* of every double input (never ==):
// conservative — a -0.0 vs +0.0 mismatch costs a duplicate build, never
// a wrong edge.  Socket configs are interned by exact field comparison
// into small ids so the per-edge key stays a flat array of words
// (interning allocates, but only at governor construction).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "hwmodel/demand.h"
#include "hwmodel/socket_config.h"

namespace dufp::rapl {

/// Cell-edge table economics for one governor (or summed over a run /
/// grid).  Cheap enough to keep always-on; the grid-throughput bench and
/// telemetry read it so the shared-cache win is measurable, not assumed.
struct CellStats {
  std::uint64_t cold_builds = 0;    ///< edge bisections actually run
  std::uint64_t probes = 0;         ///< P-state-search probes inside them
  std::uint64_t shared_hits = 0;    ///< way misses served by the process cache
  std::uint64_t way_evictions = 0;  ///< valid ways overwritten on refill
  std::uint64_t local_hits = 0;     ///< served from the governor's own ways

  void add(const CellStats& o) {
    cold_builds += o.cold_builds;
    probes += o.probes;
    shared_hits += o.shared_hits;
    way_evictions += o.way_evictions;
    local_hits += o.local_hits;
  }
};

class SharedCellCache {
 public:
  /// Flat key: [config id, P-state index, uncore window min/max bits,
  /// the eight PhaseDemand doubles as bits, the idle flag].
  using Key = std::array<std::uint64_t, 13>;

  static SharedCellCache& instance();

  /// Interns a socket config by exact comparison of every numeric field
  /// entering the edge computation (grid geometry, uncore window range,
  /// power and memory model parameters, core count).  Returns a dense id
  /// stable for the process lifetime.  model_name is deliberately
  /// ignored: renaming a part must not split the cache.
  std::uint32_t intern_config(const hw::SocketConfig& cfg);

  /// Builds the per-edge key from the interned config and the live
  /// search inputs.
  static Key make_key(std::uint32_t config_id, std::size_t idx,
                      double unc_min, double unc_max,
                      const hw::PhaseDemand& demand);

  /// True (filling *edge) when the key is cached.  Counts a global hit.
  bool lookup(const Key& key, double* edge);

  /// Publishes a freshly built edge (first writer wins).
  void insert(const Key& key, double edge);

  /// Master switch (default from DUFP_SHARED_CELL_CACHE, on unless "0").
  /// Off: lookup always misses and insert drops — every governor builds
  /// its own edges exactly as before the cache existed.
  bool enabled() const;
  void set_enabled(bool on);

  /// Drops every cached edge (the warm/cold A-B knob of
  /// bench/grid_throughput; also isolates tests) and resets the global
  /// stats.  Interned config ids stay valid — governors hold them for
  /// the process lifetime.
  void clear();

  /// Process-wide totals since the last clear().
  struct GlobalStats {
    std::uint64_t entries = 0;     ///< distinct edges resident
    std::uint64_t hits = 0;        ///< lookups served
    std::uint64_t misses = 0;      ///< lookups not served (while enabled)
    std::uint64_t inserts = 0;     ///< edges published
    std::uint64_t full_drops = 0;  ///< inserts dropped at capacity
  };
  GlobalStats stats() const;

 private:
  SharedCellCache();

  /// One open-addressing slot; `used` never reverts outside clear(), so
  /// plain linear probing stays correct (no tombstones needed).
  struct Slot {
    Key key{};
    double edge = 0.0;
    bool used = false;
  };

  std::size_t probe_locked(const Key& key) const;

  mutable std::mutex mu_;
  bool enabled_ = true;
  std::vector<hw::SocketConfig> configs_;  // interned, id = index
  std::vector<Slot> slots_;                // fixed size, power of two
  std::size_t resident_ = 0;
  GlobalStats stats_;
};

}  // namespace dufp::rapl
