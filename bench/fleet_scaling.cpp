// Fleet-scale hierarchical budgeting: every registered fleet allocator
// runs the same traffic on the same budget tree under one global cap,
// and the bench ranks them on total energy, slowdown-violation rate and
// Jain's fairness.  Each fleet is executed twice — in-process serial and
// fanned across forked shard workers under the supervisor — and the
// finalized outputs are byte-compared, extending the shard determinism
// guarantee to the fleet layer at bench scale.
//
// Default shape is 8 racks x 8 nodes x 16 sockets = 1024 sockets; the
// traffic, epochs and budget follow the FleetSpec defaults below.
//
// Knobs:
//   DUFP_SMOKE=1               2 x 2 x 2 fleet, 3 epochs: CI smoke
//   DUFP_FLEET_RACKS / DUFP_FLEET_NODES / DUFP_SOCKETS
//                              tree shape (sockets = per node)
//   DUFP_FLEET_ALLOCATOR=A     rank only this allocator
//   DUFP_FLEET_BUDGET=W        global cap (default 75% of uncapped)
//   DUFP_FLEET_TRAFFIC=P / DUFP_FLEET_TRAFFIC_SEED=S
//                              traffic profile and stream seed
//   DUFP_OUT_DIR=DIR           where BENCH_fleet_scaling.json and
//                              fleet_scaling.csv land (default out)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "fleet/allocator.h"
#include "fleet/shard.h"
#include "fleet/spec.h"
#include "harness/supervisor.h"

namespace dufp::bench {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct AllocatorRow {
  std::string allocator;
  fleet::FleetOutputs outputs;
  double serial_wall = 0.0;
  double sharded_wall = 0.0;
  bool identical = true;
};

int run_main() {
  const bool smoke = std::getenv("DUFP_SMOKE") != nullptr;
  const auto env = harness::BenchOptions::from_env();

  print_banner("fleet_scaling: hierarchical budgeting allocator shoot-out",
               "fleet-scale extension of the paper's power capping (ROADMAP),"
               " not a paper figure");

  fleet::FleetSpec base;
  base.name = smoke ? "fleet-smoke" : "fleet-bench";
  if (smoke) {
    base.topology = {2, 2, 2};
    base.epochs = 3;
    base.epoch_seconds = 0.5;
  } else {
    base.topology = {env.fleet_racks ? env.fleet_racks : 8,
                     env.fleet_nodes_per_rack, env.sockets};
    // The BenchOptions defaults describe a single 4-socket machine;
    // the fleet default is the ISSUE's 1024-socket shape.
    if (env.fleet_racks == 2 && env.fleet_nodes_per_rack == 2 &&
        env.sockets == 4) {
      base.topology = {8, 8, 16};
    }
    base.epochs = 6;
    base.epoch_seconds = 0.5;
  }
  base.traffic_profile = env.fleet_traffic_profile;
  base.traffic_seed = env.fleet_traffic_seed;
  // Default cap: 75% of the uncapped fleet — tight enough that the
  // allocator's choices decide who throttles.
  base.global_budget_w =
      env.fleet_budget_w > 0.0
          ? env.fleet_budget_w
          : 0.75 * base.max_cap_w *
                static_cast<double>(base.topology.socket_count());
  base.fault_rate = env.fault_rate;
  base.fault_seed = env.fault_seed;

  std::vector<std::string> allocators;
  if (!env.fleet_allocator.empty()) {
    allocators.push_back(env.fleet_allocator);
  } else {
    allocators = fleet::FleetAllocatorRegistry::instance().names();
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = static_cast<int>(hw > 4 ? 4 : (hw > 0 ? hw : 1));
  std::printf(
      "fleet: %d racks x %d nodes x %d sockets = %zu sockets, %d epochs, "
      "budget %.0f W (%.0f%% of uncapped), traffic %s seed %llu\n",
      base.topology.racks, base.topology.nodes_per_rack,
      base.topology.sockets_per_node, base.topology.socket_count(),
      base.epochs, base.global_budget_w,
      100.0 * base.global_budget_w /
          (base.max_cap_w * static_cast<double>(base.topology.socket_count())),
      base.traffic_profile.c_str(),
      static_cast<unsigned long long>(base.traffic_seed));
  std::printf("sharded leg: %d supervised worker(s)\n\n", workers);

  std::vector<AllocatorRow> rows;
  for (const std::string& name : allocators) {
    fleet::FleetSpec spec = base;
    spec.allocator = name;

    AllocatorRow row;
    row.allocator = name;
    double t0 = now_seconds();
    row.outputs = fleet::run_fleet_serial(spec);
    row.serial_wall = now_seconds() - t0;

    // Fan the same fleet across forked workers under the supervisor and
    // demand byte-identical finalized outputs.
    const std::string dir = out_path("fleet_bench_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    harness::SupervisorOptions sup;
    sup.out_dir = dir;
    sup.workers = workers;
    sup.chunk_size = 1;
    t0 = now_seconds();
    const auto report = harness::supervise_shard_run(spec, sup);
    harness::GatherOptions gopts;
    gopts.partial = true;
    const auto gathered =
        harness::gather_shards_report(spec, report.output_files, gopts);
    if (!gathered.complete()) {
      std::fprintf(stderr, "fleet_scaling: %zu node(s) unrecovered under %s\n",
                   gathered.missing.size(), name.c_str());
      return 1;
    }
    const auto sharded = fleet::finalize_fleet(spec, gathered.results);
    row.sharded_wall = now_seconds() - t0;
    row.identical =
        sharded.allocation_csv == row.outputs.allocation_csv &&
        sharded.summary_csv == row.outputs.summary_csv &&
        sharded.prometheus == row.outputs.prometheus;
    std::filesystem::remove_all(dir);

    std::printf(
        "%-12s energy %12.1f J  violations %5.1f%%  jain %.4f  speed %.3f  "
        "(serial %.2fs, sharded %.2fs, bytes %s)\n",
        name.c_str(), row.outputs.total_energy_j,
        100.0 * row.outputs.violation_rate, row.outputs.jain_fairness,
        row.outputs.mean_speed, row.serial_wall, row.sharded_wall,
        row.identical ? "identical" : "DIFFER");
    rows.push_back(std::move(row));
  }

  // Rank on total energy among allocators that keep the violation rate
  // lowest; print the scoreboard grouped by violation rate first.
  std::printf("\nranking (violation rate, then energy):\n");
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&rows](std::size_t a, std::size_t b) {
    if (rows[a].outputs.violation_rate != rows[b].outputs.violation_rate) {
      return rows[a].outputs.violation_rate < rows[b].outputs.violation_rate;
    }
    return rows[a].outputs.total_energy_j < rows[b].outputs.total_energy_j;
  });
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const AllocatorRow& r = rows[order[rank]];
    std::printf("  %zu. %-12s violations %5.1f%%  energy %12.1f J  jain "
                "%.4f\n",
                rank + 1, r.allocator.c_str(),
                100.0 * r.outputs.violation_rate, r.outputs.total_energy_j,
                r.outputs.jain_fairness);
  }

  // Per-allocator scorecard CSV: the concatenated summary rows.
  std::string csv;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string& s = rows[i].outputs.summary_csv;
    if (i == 0) {
      csv += s;
    } else {
      csv += s.substr(s.find('\n') + 1);  // skip the repeated header
    }
  }
  const std::string csv_path = out_path("fleet_scaling.csv");
  if (std::FILE* f = std::fopen(csv_path.c_str(), "wb")) {
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("\nscorecard written to %s\n", csv_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }

  bool all_identical = true;
  std::string json = "{\n";
  json += "  \"schema_version\": 1,\n";
  json += "  \"bench\": \"fleet_scaling\",\n";
  json += strf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += strf(
      "  \"config\": {\n"
      "    \"racks\": %d,\n"
      "    \"nodes_per_rack\": %d,\n"
      "    \"sockets_per_node\": %d,\n"
      "    \"sockets\": %zu,\n"
      "    \"epochs\": %d,\n"
      "    \"budget_w\": %.6f,\n"
      "    \"traffic\": \"%s\",\n"
      "    \"workers\": %d,\n"
      "    \"host_cpus\": %u\n"
      "  }",
      base.topology.racks, base.topology.nodes_per_rack,
      base.topology.sockets_per_node, base.topology.socket_count(),
      base.epochs, base.global_budget_w, base.traffic_profile.c_str(),
      workers, hw);
  for (const AllocatorRow& r : rows) {
    all_identical = all_identical && r.identical;
    json += strf(
        ",\n"
        "  \"%s\": {\n"
        "    \"total_energy_j\": %.6f,\n"
        "    \"violation_rate\": %.6f,\n"
        "    \"jain_fairness\": %.6f,\n"
        "    \"mean_speed\": %.6f,\n"
        "    \"serial_wall_seconds\": %.6f,\n"
        "    \"sharded_wall_seconds\": %.6f,\n"
        "    \"identical_bytes\": %s\n"
        "  }",
        r.allocator.c_str(), r.outputs.total_energy_j,
        r.outputs.violation_rate, r.outputs.jain_fairness,
        r.outputs.mean_speed, r.serial_wall, r.sharded_wall,
        r.identical ? "true" : "false");
  }
  json += "\n}\n";

  const std::string path = out_path("BENCH_fleet_scaling.json");
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("JSON written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace dufp::bench

int main() { return dufp::bench::run_main(); }
