// Phase B of a fleet run: one node's whole-run simulation under its
// precomputed per-epoch budget schedule.
//
// A node is an ordinary simulated machine (sockets_per_node sockets, the
// usual zones / uncore controls / per-socket DUFP agents from the policy
// registry) with two fleet-specific additions:
//   - a node-level core::BudgetBalancer splitting the node's budget
//     among its sockets every 200 ms, exactly as in the single-machine
//     experiments, and
//   - an epoch clock that walks the AllocationPlan's schedule, calling
//     set_machine_budget_w at each epoch boundary — the moving cap the
//     fleet allocators impose from above.
//
// The node's workload is synthetic: one phase per epoch ("e0", "e1",
// ...), each a scaled copy of the app's time-weighted mean phase whose
// demand follows the traffic intensity of that (node, epoch).  Phases
// map 1:1 onto epochs, so Simulation::phase_totals delivers per-epoch
// energy and wall time for free.
//
// run_fleet_node(spec, node, plan) is a pure function of its arguments
// (seeded with harness::job_seed(spec.seed, node)), which is what lets
// the shard layer treat node indices as portable job identities.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/json.h"
#include "fleet/plan.h"
#include "fleet/spec.h"
#include "sim/simulation.h"

namespace dufp::fleet {

/// One epoch of one node, as gathered into the fleet outputs.
struct EpochRecord {
  double alloc_w = 0.0;       ///< budget the plan granted this epoch
  double demand_w = 0.0;      ///< what the node asked for
  double intensity = 0.0;     ///< the traffic sample behind the demand
  double wall_seconds = 0.0;  ///< slowest socket's wall time in the epoch
  double pkg_energy_j = 0.0;  ///< summed over the node's sockets
  double dram_energy_j = 0.0;
};

/// Everything one node simulation reports upward.
struct FleetNodeResult {
  std::vector<EpochRecord> epochs;
  double exec_seconds = 0.0;   ///< node wall time (slowest socket)
  double pkg_energy_j = 0.0;
  double dram_energy_j = 0.0;
  /// Mean progress speed: nominal workload seconds per wall second
  /// (1.0 = unthrottled); the per-node sample Jain's fairness is
  /// computed over.
  double avg_speed = 0.0;
  std::uint64_t faults_injected = 0;
  std::uint64_t degradations = 0;

  double total_energy_j() const { return pkg_energy_j + dram_energy_j; }
};

/// Bit-exact JSON codec for the fleet wire (doubles travel as IEEE-754
/// hex, see harness/shard_codec.h for the convention).
json::Value encode_node_result(const FleetNodeResult& result);
FleetNodeResult decode_node_result(const json::Value& v);

/// Runs node `node` of the fleet under `plan`'s budget schedule.
/// `plan` must be plan_allocations(spec).  Throws std::invalid_argument
/// on a malformed spec or an out-of-range node.
///
/// `time_leap` toggles the engine's event-leaping fast path (on by
/// default, exact by construction); the switch exists so equivalence
/// tests can byte-compare leap-on against leap-off fleet results.
FleetNodeResult run_fleet_node(const FleetSpec& spec, std::size_t node,
                               const AllocationPlan& plan,
                               bool time_leap = true);

/// A node run wired but not yet executed: the simulation plus every
/// object run_fleet_node would have built around it (balancer, epoch
/// clock, agents, fault decorators), with injectors armed and the budget
/// schedule copied in — the spec/plan need not outlive the object.
/// Drive `simulation()` to completion (Simulation::run(), or
/// advance_once() by advance_once() as the perf ledger does), then call
/// finish() exactly once.
class PreparedFleetNode {
 public:
  PreparedFleetNode(PreparedFleetNode&&) noexcept;
  PreparedFleetNode& operator=(PreparedFleetNode&&) noexcept;
  ~PreparedFleetNode();

  sim::Simulation& simulation();

  /// Collects the FleetNodeResult run_fleet_node would have produced.
  /// Requires the simulation to have run to completion.
  FleetNodeResult finish();

 private:
  friend PreparedFleetNode prepare_fleet_node(const FleetSpec& spec,
                                              std::size_t node,
                                              const AllocationPlan& plan,
                                              bool time_leap);
  struct Impl;
  explicit PreparedFleetNode(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Validates and wires one node run without executing it.
/// run_fleet_node(spec, node, plan, leap) ≡
/// { auto p = prepare_fleet_node(spec, node, plan, leap);
///   p.simulation().run(); return p.finish(); }.
PreparedFleetNode prepare_fleet_node(const FleetSpec& spec, std::size_t node,
                                     const AllocationPlan& plan,
                                     bool time_leap = true);

/// Runs a set of node jobs one after another: results in input order,
/// result i being run_fleet_node(spec, nodes[i], plan, time_leap).
std::vector<FleetNodeResult> run_fleet_nodes(const FleetSpec& spec,
                                             const std::vector<std::size_t>& nodes,
                                             const AllocationPlan& plan,
                                             bool time_leap = true);

}  // namespace dufp::fleet
