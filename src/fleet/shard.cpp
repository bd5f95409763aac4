#include "fleet/shard.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/string_util.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace dufp::fleet {

namespace {

using json::Value;

std::string g17(double v) { return strf("%.17g", v); }

}  // namespace

harness::WireIdentity fleet_wire_identity(const FleetSpec& spec) {
  harness::WireIdentity id;
  id.format = kFleetResultFormat;
  id.spec_name = spec.name;
  id.fingerprint_hex = strf(
      "%016llx", static_cast<unsigned long long>(spec.fingerprint()));
  id.job_count = spec.topology.node_count();
  const FleetTopology topo = spec.topology;
  id.job_label = [topo](std::size_t job) { return topo.node_label(job); };
  return id;
}

void run_fleet_shard(const FleetSpec& spec,
                     const harness::ShardRunOptions& options,
                     std::ostream& out) {
  const AllocationPlan plan = plan_allocations(spec);
  harness::run_shard_wire(
      fleet_wire_identity(spec), options,
      [&spec, &plan](const std::vector<std::size_t>& nodes) {
        const std::vector<FleetNodeResult> results =
            run_fleet_nodes(spec, nodes, plan);
        std::vector<Value> payloads;
        payloads.reserve(results.size());
        for (const FleetNodeResult& r : results) {
          payloads.push_back(encode_node_result(r));
        }
        return payloads;
      },
      out);
}

FleetGatherReport gather_fleet_report(const FleetSpec& spec,
                                      const std::vector<std::string>& files,
                                      const harness::GatherOptions& options) {
  FleetGatherReport report;
  report.results.resize(spec.topology.node_count());
  const harness::WireGatherReport wire = harness::gather_wire(
      fleet_wire_identity(spec), files, options,
      [&report](std::size_t job, const Value& result) {
        report.results[job] = decode_node_result(result);
      });
  report.job_count = wire.job_count;
  report.have = wire.have;
  report.missing = wire.missing;
  report.records = wire.records;
  report.duplicates = wire.duplicates;
  report.notes = wire.notes;
  report.header_shards = wire.header_shards;
  return report;
}

// -- retry manifest ----------------------------------------------------------

json::Value FleetRetryManifest::to_json() const {
  Value o = Value::make_object();
  o.add("format", Value::make_string(kFleetRetryFormat));
  o.add("version", Value::make_i64(harness::kShardDocumentVersion));
  o.add("spec", spec.to_json());
  o.add("spec_fingerprint",
        Value::make_string(strf("%016llx", static_cast<unsigned long long>(
                                               spec.fingerprint()))));
  Value arr = Value::make_array();
  for (const std::size_t j : missing) arr.push_back(Value::make_u64(j));
  o.add("missing_jobs", std::move(arr));
  return o;
}

std::string FleetRetryManifest::canonical_text() const {
  return to_json().dump();
}

FleetRetryManifest FleetRetryManifest::from_json(const json::Value& v) {
  if (v.at("format").as_string() != kFleetRetryFormat) {
    throw harness::ShardFormatError("FleetRetryManifest: not a " +
                                    std::string(kFleetRetryFormat) +
                                    " document");
  }
  if (v.at("version").as_i64() != harness::kShardDocumentVersion) {
    throw harness::ShardFormatError(strf(
        "FleetRetryManifest: unsupported version %lld (this build speaks %d)",
        static_cast<long long>(v.at("version").as_i64()),
        harness::kShardDocumentVersion));
  }
  FleetRetryManifest m;
  m.spec = FleetSpec::from_json(v.at("spec"));
  const std::string want = strf(
      "%016llx", static_cast<unsigned long long>(m.spec.fingerprint()));
  if (v.at("spec_fingerprint").as_string() != want) {
    throw harness::ShardFormatError(
        "FleetRetryManifest: embedded spec does not match its recorded "
        "fingerprint (manifest was edited or corrupted)");
  }
  const std::size_t jobs = m.spec.topology.node_count();
  for (const Value& j : v.at("missing_jobs").as_array()) {
    m.missing.push_back(j.as_u64());
  }
  if (m.missing.empty()) {
    throw harness::ShardFormatError(
        "FleetRetryManifest: missing_jobs is empty");
  }
  for (std::size_t i = 0; i < m.missing.size(); ++i) {
    if (m.missing[i] >= jobs ||
        (i > 0 && m.missing[i] <= m.missing[i - 1])) {
      throw harness::ShardFormatError(
          "FleetRetryManifest: missing_jobs must be strictly ascending and "
          "in range");
    }
  }
  return m;
}

FleetRetryManifest FleetRetryManifest::parse(std::string_view text) {
  return from_json(json::parse(text));
}

FleetRetryManifest FleetRetryManifest::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("FleetRetryManifest: cannot open " + path);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

FleetRetryManifest make_fleet_retry_manifest(
    const FleetSpec& spec, const FleetGatherReport& report) {
  if (report.complete()) {
    throw std::logic_error(
        "make_fleet_retry_manifest: gather is complete, nothing to retry");
  }
  FleetRetryManifest m;
  m.spec = spec;
  m.missing = report.missing;
  return m;
}

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
  std::ostringstream prom;
  telemetry::write_prometheus(reg.collect(), prom);
  out.prometheus = prom.str();

  return out;
}

FleetOutputs run_fleet_serial(const FleetSpec& spec) {
  const AllocationPlan plan = plan_allocations(spec);
  std::vector<std::size_t> nodes(spec.topology.node_count());
  for (std::size_t n = 0; n < nodes.size(); ++n) nodes[n] = n;
  return finalize_fleet(spec, run_fleet_nodes(spec, nodes, plan));
}

harness::SupervisorReport supervise_fleet_run(
    const FleetSpec& spec, const harness::SupervisorOptions& options) {
  harness::SupervisedWork work;
  work.job_count = spec.topology.node_count();
  work.run = [&spec](const harness::ShardRunOptions& opts,
                     std::ostream& out) { run_fleet_shard(spec, opts, out); };
  return harness::supervise_work(work, options);
}

}  // namespace dufp::fleet
