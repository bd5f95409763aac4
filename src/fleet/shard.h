// The fleet kind of the shard layer (harness/shard.h): a fleet job is one
// *node* simulation — run_fleet_node under the shared allocation plan —
// and the wire carries FleetNodeResult payloads.  run_shard,
// gather_shards_report, RetryManifest, `run --resume` and
// supervise_shard_run are the grids' own code, typed by FleetSpec through
// ShardJobs<FleetSpec> below, so every operational tool (supervisor,
// retry manifests, `gather --partial`) works unchanged at fleet scale.
//
// Serial and sharded executions are byte-identical by construction:
// Phase A (plan_allocations) is a pure function of the spec that every
// process recomputes, and Phase B runs node jobs independently — there
// is no cross-node coordination to order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fleet/node_run.h"
#include "fleet/plan.h"
#include "fleet/spec.h"
#include "harness/shard.h"

namespace dufp::fleet {

/// Everything a gathered fleet produces, in deterministic bytes — the
/// byte surface the fleet determinism suite compares across serial /
/// sharded / supervised executions.
struct FleetOutputs {
  /// Per-(epoch, node) rows: the full allocation trace with demand,
  /// intensity, the rack's grant, wall time, energy and the violation
  /// flag (%.17g doubles).
  std::string allocation_csv;

  /// One row: the fleet-level scorecard (total energy, violation rate,
  /// Jain's fairness over per-node speeds, ...).
  std::string summary_csv;

  /// Prometheus exposition of the fleet telemetry plane: budget and
  /// per-rack / per-node allocation gauges plus allocation-share and
  /// epoch-slowdown histograms.
  std::string prometheus;

  // Headline numbers, for benches and tests.
  double total_energy_j = 0.0;
  double violation_rate = 0.0;  ///< violating (node, epoch) pairs / all
  double jain_fairness = 0.0;   ///< over per-node avg speeds, in (0, 1]
  double mean_speed = 0.0;      ///< mean per-node progress speed
};

/// Renders the deterministic outputs from gathered per-node results.
/// Pure function of (spec, results) — the plan is recomputed — so any
/// execution path that gathered the same results emits the same bytes.
FleetOutputs finalize_fleet(const FleetSpec& spec,
                            const std::vector<FleetNodeResult>& results);

/// Runs every node in-process and finalizes — the serial reference the
/// sharded paths must match byte for byte.
FleetOutputs run_fleet_serial(const FleetSpec& spec);

}  // namespace dufp::fleet

namespace dufp::harness {

/// Fleet jobs: one per node, all under the allocation plan recomputed
/// once per worker.  Node runs are single-threaded; `threads` is unused.
template <>
struct ShardJobs<fleet::FleetSpec> {
  using Result = fleet::FleetNodeResult;
  static constexpr auto encode = fleet::encode_node_result;
  static constexpr auto decode = fleet::decode_node_result;

  ShardJobs(const fleet::FleetSpec& spec_in, int /*threads*/)
      : spec(spec_in), plan(fleet::plan_allocations(spec_in)) {}
  std::vector<Result> run(const std::vector<std::size_t>& nodes) const {
    return fleet::run_fleet_nodes(spec, nodes, plan);
  }

  const fleet::FleetSpec& spec;
  fleet::AllocationPlan plan;
};

}  // namespace dufp::harness
