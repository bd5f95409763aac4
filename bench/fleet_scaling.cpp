// Fleet-scale hierarchical budgeting: every registered fleet allocator
// runs the same traffic on the same budget tree under one global cap,
// and the bench ranks them on slowdown-violation rate, then total
// energy, with Jain's fairness index over per-node speeds alongside.
//
//   fleet_scaling [SPEC]
//
// SPEC is a FleetSpec file, the format `dufp_shard_worker spec
// --reference fleet` prints and every shard verb reads.  Its "allocator"
// is ignored: every registered allocator runs on the rest of the spec.
// Without a SPEC the fleet is 8 racks x 8 nodes x 16 sockets = 1024
// sockets, six 0.5 s epochs of diurnal traffic under 75% of its uncapped
// power.
//
// The scorecard, one summary row per allocator, lands in
// <DUFP_OUT_DIR>/fleet_scaling.csv (default out/).  Serial and sharded
// runs of a fleet give the same bytes; tier-1 FleetShardTest checks that
// for every allocator.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "fleet/allocator.h"
#include "fleet/shard.h"
#include "fleet/spec.h"

namespace dufp::bench {
namespace {

/// The 1024-socket fleet the bench ranks when no SPEC is given.
fleet::FleetSpec default_fleet() {
  fleet::FleetSpec spec;
  spec.name = "fleet-bench";
  spec.topology = {8, 8, 16};
  spec.epochs = 6;
  spec.epoch_seconds = 0.5;
  // 75% of the uncapped fleet: tight enough that the allocator's choices
  // decide who throttles.
  spec.global_budget_w = 0.75 * spec.max_cap_w *
                         static_cast<double>(spec.topology.socket_count());
  return spec;
}

fleet::FleetSpec read_fleet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  return fleet::FleetSpec::from_json(json::parse(text.str()));
}

struct AllocatorRow {
  std::string allocator;
  fleet::FleetOutputs outputs;
};

int run_main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: fleet_scaling [SPEC]\n");
    return 2;
  }
  fleet::FleetSpec base = default_fleet();
  if (argc == 2) {
    try {
      base = read_fleet(argv[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleet_scaling: %s: %s\n", argv[1], e.what());
      return 1;
    }
  }

  std::printf("=============================================================\n");
  std::printf("fleet_scaling: hierarchical budgeting allocator shoot-out\n");
  std::printf("Reproduces: fleet-scale extension of the paper's power "
              "capping (ROADMAP), not a paper figure\n");
  std::printf("=============================================================\n");
  const double uncapped =
      base.max_cap_w * static_cast<double>(base.topology.socket_count());
  std::printf(
      "fleet: %d racks x %d nodes x %d sockets = %zu sockets, %d epochs, "
      "budget %.0f W (%.0f%% of uncapped), traffic %s seed %llu",
      base.topology.racks, base.topology.nodes_per_rack,
      base.topology.sockets_per_node, base.topology.socket_count(),
      base.epochs, base.resolved_budget_w(),
      100.0 * base.resolved_budget_w() / uncapped,
      base.traffic_profile.c_str(),
      static_cast<unsigned long long>(base.traffic_seed));
  if (base.fault_rate > 0.0) {
    std::printf(", fault storm at rate %g seed %llu", base.fault_rate,
                static_cast<unsigned long long>(base.fault_seed));
  }
  std::printf("\n\n");

  std::vector<AllocatorRow> rows;
  for (const std::string& name :
       fleet::FleetAllocatorRegistry::instance().names()) {
    fleet::FleetSpec spec = base;
    spec.allocator = name;
    AllocatorRow row{name, fleet::run_fleet_serial(spec)};
    std::printf(
        "%-12s energy %12.1f J  violations %5.1f%%  jain %.4f  speed %.3f\n",
        name.c_str(), row.outputs.total_energy_j,
        100.0 * row.outputs.violation_rate, row.outputs.jain_fairness,
        row.outputs.mean_speed);
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
  return 0;
}

}  // namespace
}  // namespace dufp::bench

int main(int argc, char** argv) { return dufp::bench::run_main(argc, argv); }
