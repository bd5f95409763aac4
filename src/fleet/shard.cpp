#include "fleet/shard.h"

#include <stdexcept>

#include "common/string_util.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace dufp::fleet {

namespace {

std::string g17(double v) { return strf("%.17g", v); }

}  // namespace

// -- finalize ----------------------------------------------------------------

FleetOutputs finalize_fleet(const FleetSpec& spec,
                            const std::vector<FleetNodeResult>& results) {
  const std::size_t nodes = spec.topology.node_count();
  if (results.size() != nodes) {
    throw std::invalid_argument(
        strf("finalize_fleet: %zu results for a fleet of %zu nodes",
             results.size(), nodes));
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    if (results[n].epochs.size() != static_cast<std::size_t>(spec.epochs)) {
      throw std::invalid_argument(
          strf("finalize_fleet: node %zu has %zu epoch records, spec has %d "
               "epochs",
               n, results[n].epochs.size(), spec.epochs));
    }
  }
  const AllocationPlan plan = plan_allocations(spec);
  const double tolerated_wall =
      spec.epoch_seconds * (1.0 + spec.tolerated_slowdown);

  FleetOutputs out;

  // -- allocation trace CSV -------------------------------------------------
  std::string csv =
      "epoch,rack,node,node_index,rack_alloc_w,node_alloc_w,demand_w,"
      "intensity,wall_s,pkg_energy_j,dram_energy_j,violation\n";
  std::size_t violations = 0;
  std::size_t epoch_cells = 0;
  for (int e = 0; e < spec.epochs; ++e) {
    const auto ei = static_cast<std::size_t>(e);
    for (std::size_t n = 0; n < nodes; ++n) {
      const EpochRecord& rec = results[n].epochs[ei];
      const bool violated = rec.wall_seconds > tolerated_wall;
      if (violated) ++violations;
      ++epoch_cells;
      const int rack = spec.topology.rack_of(n);
      csv += strf("%d,%d,%d,%zu,", e, rack, spec.topology.slot_of(n), n);
      csv += g17(plan.rack_w[ei][static_cast<std::size_t>(rack)]) + ",";
      csv += g17(rec.alloc_w) + "," + g17(rec.demand_w) + ",";
      csv += g17(rec.intensity) + "," + g17(rec.wall_seconds) + ",";
      csv += g17(rec.pkg_energy_j) + "," + g17(rec.dram_energy_j) + ",";
      csv += violated ? "1\n" : "0\n";
    }
  }
  out.allocation_csv = std::move(csv);

  // -- fleet scorecard ------------------------------------------------------
  double pkg_j = 0.0;
  double dram_j = 0.0;
  double speed_sum = 0.0;
  double speed_sq_sum = 0.0;
  std::uint64_t faults = 0;
  std::uint64_t degradations = 0;
  for (const FleetNodeResult& r : results) {
    pkg_j += r.pkg_energy_j;
    dram_j += r.dram_energy_j;
    speed_sum += r.avg_speed;
    speed_sq_sum += r.avg_speed * r.avg_speed;
    faults += r.faults_injected;
    degradations += r.degradations;
  }
  out.total_energy_j = pkg_j + dram_j;
  out.violation_rate =
      epoch_cells > 0
          ? static_cast<double>(violations) / static_cast<double>(epoch_cells)
          : 0.0;
  out.mean_speed = speed_sum / static_cast<double>(nodes);
  // Jain's fairness index over per-node progress speeds: 1 = perfectly
  // even, 1/n = one node gets everything.
  out.jain_fairness =
      speed_sq_sum > 0.0
          ? (speed_sum * speed_sum) /
                (static_cast<double>(nodes) * speed_sq_sum)
          : 0.0;

  out.summary_csv =
      "allocator,traffic,racks,nodes_per_rack,sockets_per_node,epochs,"
      "budget_w,total_energy_j,pkg_energy_j,dram_energy_j,violation_rate,"
      "jain_fairness,mean_speed,faults_injected,degradations\n";
  out.summary_csv += spec.allocator + "," + spec.traffic_profile + ",";
  out.summary_csv += strf("%d,%d,%d,%d,", spec.topology.racks,
                          spec.topology.nodes_per_rack,
                          spec.topology.sockets_per_node, spec.epochs);
  out.summary_csv += g17(plan.budget_w) + "," + g17(out.total_energy_j) +
                     "," + g17(pkg_j) + "," + g17(dram_j) + ",";
  out.summary_csv += g17(out.violation_rate) + "," +
                     g17(out.jain_fairness) + "," + g17(out.mean_speed) + ",";
  out.summary_csv += strf("%llu,%llu\n",
                          static_cast<unsigned long long>(faults),
                          static_cast<unsigned long long>(degradations));

  // -- telemetry plane ------------------------------------------------------
  // Built at finalize time from the plan and the gathered results (the
  // node simulations run telemetry-free), so the exposition is the same
  // bytes however the nodes were executed.
  telemetry::MetricsRegistry reg;
  const auto ei_last = static_cast<std::size_t>(spec.epochs - 1);
  reg.gauge("dufp_fleet_budget_watts", "Cluster-wide power budget",
            {{"allocator", spec.allocator}})
      .set(plan.budget_w);
  for (int r = 0; r < spec.topology.racks; ++r) {
    reg.gauge("dufp_fleet_rack_allocation_watts",
              "Rack budget in the final epoch",
              {{"rack", std::to_string(r)}})
        .set(plan.rack_w[ei_last][static_cast<std::size_t>(r)]);
  }
  telemetry::Histogram share = reg.histogram(
      "dufp_fleet_allocation_share",
      "Granted/demanded watts per (node, epoch)",
      {0.5, 0.7, 0.8, 0.9, 0.95, 1.0});
  telemetry::Histogram slowdown = reg.histogram(
      "dufp_fleet_epoch_slowdown",
      "Epoch wall time over nominal, minus one, per (node, epoch)",
      {0.0, 0.02, 0.05, 0.1, 0.2, 0.5});
  for (std::size_t n = 0; n < nodes; ++n) {
    reg.gauge("dufp_fleet_node_allocation_watts",
              "Node budget in the final epoch",
              {{"node", std::to_string(spec.topology.slot_of(n))},
               {"rack", std::to_string(spec.topology.rack_of(n))}})
        .set(plan.node_w[ei_last][n]);
    for (const EpochRecord& rec : results[n].epochs) {
      if (rec.demand_w > 0.0) share.observe(rec.alloc_w / rec.demand_w);
      slowdown.observe(rec.wall_seconds / spec.epoch_seconds - 1.0);
    }
  }
  reg.gauge("dufp_fleet_violation_rate",
            "Fraction of (node, epoch) cells over the tolerated slowdown")
      .set(out.violation_rate);
  reg.gauge("dufp_fleet_jain_fairness",
            "Jain's index over per-node progress speeds")
      .set(out.jain_fairness);
  reg.gauge("dufp_fleet_total_energy_joules",
            "Package + DRAM energy over the whole fleet")
      .set(out.total_energy_j);
  telemetry::write_prometheus(reg.collect(), out.prometheus);

  return out;
}

FleetOutputs run_fleet_serial(const FleetSpec& spec) {
  const AllocationPlan plan = plan_allocations(spec);
  std::vector<std::size_t> nodes(spec.topology.node_count());
  for (std::size_t n = 0; n < nodes.size(); ++n) nodes[n] = n;
  return finalize_fleet(spec, run_fleet_nodes(spec, nodes, plan));
}

}  // namespace dufp::fleet
