// FleetSpec: the self-contained description of one fleet experiment —
// the budget tree shape, the allocator, the global cap, the traffic, and
// the per-node simulation parameters.  Exactly like harness::GridSpec,
// everything that influences results lives here (never in the
// environment), the canonical JSON is fingerprinted, and a flat job
// index (= node index, rack-major) is a portable identity: any process
// parsing the same spec computes the same allocation plan and runs the
// same node simulation for job i.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "fleet/topology.h"
#include "workloads/profiles.h"

namespace dufp::fleet {

/// Fleet format identities.  The spec and the retry manifest are
/// versioned by harness::kShardDocumentVersion, the result stream by
/// harness::kShardWireVersion, alongside the grid formats.
inline constexpr const char* kFleetSpecFormat = "dufp-fleet-spec";
inline constexpr const char* kFleetResultFormat = "dufp-fleet-result";
inline constexpr const char* kFleetRetryFormat = "dufp-fleet-retry";

struct FleetSpec {
  std::string name = "fleet";
  FleetTopology topology;

  /// FleetAllocatorRegistry name, canonical spelling; parsing
  /// canonicalizes case/alias spellings and rejects unknown names with
  /// the registry's known-names list.
  std::string allocator = "proportional";

  /// The cluster-wide cap.  The default 0 is a sentinel — "derive from
  /// the fleet", i.e. max_cap_w x socket-count, the uncapped fleet —
  /// mirroring core::BalancerConfig::machine_budget_w.
  double global_budget_w = 0.0;

  int epochs = 6;              ///< allocation epochs per run
  double epoch_seconds = 1.0;  ///< nominal wall seconds per epoch

  /// TrafficModel profile + seed driving per-(node, epoch) demand.
  std::string traffic_profile = "diurnal";
  std::uint64_t traffic_seed = 1;

  std::uint64_t seed = 1;  ///< base seed; node i runs with job_seed(seed, i)

  workloads::AppId app = workloads::AppId::cg;  ///< per-node application
  std::string policy = "DUFP";  ///< per-socket agent (core::PolicyRegistry)
  double tolerated_slowdown = 0.10;

  double min_cap_w = 65.0;   ///< per-socket floor (BalancerConfig default)
  double max_cap_w = 125.0;  ///< per-socket ceiling

  double fault_rate = 0.0;  ///< > 0 runs every node under a fault storm
  std::uint64_t fault_seed = 0;

  /// The derived cluster budget: global_budget_w, or the sentinel
  /// resolved to max_cap_w x socket_count.
  double resolved_budget_w() const;

  /// Canonical JSON (fixed key order, %.17g doubles); parse() of the
  /// output reproduces the spec exactly.
  json::Value to_json() const;
  std::string canonical_text() const;
  /// FNV-1a over canonical_text(); stamped into every fleet shard file.
  std::uint64_t fingerprint() const;

  static FleetSpec from_json(const json::Value& v);
  static FleetSpec parse(std::string_view text);
  static FleetSpec load(const std::string& path);

  /// The small reference fleet the quickstart and CI smoke use:
  /// 2 racks x 2 nodes x 4 sockets, 4 epochs.
  static FleetSpec reference();

  /// Every problem found (empty = valid), aggregated house style:
  /// topology bounds, allocator / traffic / policy resolved against
  /// their registries, budget >= the fleet-wide floor, cap ordering.
  std::vector<std::string> validate() const;
};

}  // namespace dufp::fleet
