// Whole-grid throughput of the plan's ThreadPool (DESIGN.md §7f): the
// tournament-shaped grid executed two ways, both through
// ExperimentPlan::run_jobs —
//
//   uncached  width 1 (a run_once loop in job order): the sequential
//             baseline the ratio is computed against
//   pooled    width 2: how a grid runs by default on a multi-core host
//
// Both legs are finalized through the shard engine's aggregation and the
// evaluation CSV (plus merged Prometheus when telemetry is on) is
// byte-compared against the uncached reference — the bench exits
// non-zero on any drift, so it doubles as a grid-scale identity gate.
//
// Timing: uncached and pooled alternate over kPairs pairs inside the one
// invocation and pooled_vs_uncached is the median of the per-pair
// ratios, so co-tenant load drifting over the run hits both legs alike.
// Cell-edge economics (cold builds, threshold probes, way hits and
// evictions) are reported per job and summed per leg, and so are the
// calm stretches' flip ticks and the flip ticks that left the governor's
// kernel to fill a state's entry.  Unlike the times they are
// deterministic, and since no edge is shared between runs each job's
// counts are its own whichever worker ran it, so CI gates on them
// exactly.
//
// On a single-CPU host the pooled leg is skipped and recorded as
// {"skipped_reason": "host_cpus==1"} — same convention as shard_scaling;
// gates key on the marker, not on re-deriving the CPU count.
//
// Knobs:
//   DUFP_SMOKE=1      1 app x 2 tolerances x 5 repetitions (95 jobs): CI
//                     smoke + the shape the DUFP_CI_MIN_GRID_SPEEDUP gate
//                     tracks
//   DUFP_OUT_DIR=DIR  where BENCH_grid_throughput.json lands (default out)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/policy_registry.h"
#include "harness/shard.h"
#include "rapl/cell_cache.h"

namespace dufp::bench {
namespace {

/// Alternating uncached/pooled pairs the pooled ratio is the median of.
constexpr int kPairs = 5;
/// Width of the pooled leg: the perf ledger's paper_grid width.
constexpr int kPoolThreads = 2;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One executed grid leg: wall clock, cell-edge economics per job and
/// summed, flip counts summed, and the finalized byte surface.
struct Leg {
  double wall_seconds = 0.0;
  std::vector<std::uint64_t> job_cold_builds;
  rapl::CellStats cells;  ///< summed over every job
  std::int64_t flip_ticks = 0;  ///< BatchStats::flip_ticks, summed
  std::int64_t flip_fills = 0;  ///< BatchStats::flip_fills, summed
  std::string bytes;      ///< evaluation CSV + merged Prometheus
};

/// Runs every job of the plan through run_jobs at `threads`.
Leg run_leg(const harness::GridSpec& spec, const harness::GridPlan& gp,
            int threads) {
  std::vector<std::size_t> all(gp.plan.job_count());
  for (std::size_t j = 0; j < all.size(); ++j) all[j] = j;

  Leg leg;
  const double t0 = now_seconds();
  std::vector<harness::RunResult> results = gp.plan.run_jobs(all, threads);
  leg.wall_seconds = now_seconds() - t0;

  leg.job_cold_builds.reserve(results.size());
  for (const auto& res : results) {
    leg.job_cold_builds.push_back(res.cell_stats.cold_builds);
    leg.cells.add(res.cell_stats);
    leg.flip_ticks += res.batch_stats.flip_ticks;
    leg.flip_fills += res.batch_stats.flip_fills;
  }
  const auto outputs = harness::finalize_grid(spec, std::move(results));
  leg.bytes = outputs.evaluation_csv + outputs.merged_prometheus;
  return leg;
}

std::string cells_json(const rapl::CellStats& c, const char* indent) {
  return strf(
      "%s\"cells\": {\n"
      "%s  \"cold_builds\": %llu,\n"
      "%s  \"probes\": %llu,\n"
      "%s  \"local_hits\": %llu,\n"
      "%s  \"way_evictions\": %llu\n"
      "%s}",
      indent, indent, static_cast<unsigned long long>(c.cold_builds), indent,
      static_cast<unsigned long long>(c.probes), indent,
      static_cast<unsigned long long>(c.local_hits), indent,
      static_cast<unsigned long long>(c.way_evictions), indent);
}

/// `wall_seconds` is the leg's reported time: the median over its pairs
/// for uncached and pooled, the single run otherwise.
void append_leg_json(std::string& json, const char* key, const Leg& leg,
                     double wall_seconds, std::size_t jobs, bool identical) {
  json += strf(
      "  \"%s\": {\n"
      "    \"wall_seconds\": %.6f,\n"
      "    \"jobs_per_second\": %.3f,\n"
      "    \"identical_bytes\": %s,\n",
      key, wall_seconds,
      wall_seconds > 0.0 ? static_cast<double>(jobs) / wall_seconds : 0.0,
      identical ? "true" : "false");
  json += cells_json(leg.cells, "    ");
  json += strf(
      ",\n"
      "    \"flips\": {\n"
      "      \"flip_ticks\": %lld,\n"
      "      \"flip_fills\": %lld\n"
      "    }\n  }",
      static_cast<long long>(leg.flip_ticks),
      static_cast<long long>(leg.flip_fills));
}

void append_per_job_json(std::string& json, const char* key, const Leg& leg) {
  json += strf("    \"%s\": [", key);
  for (std::size_t i = 0; i < leg.job_cold_builds.size(); ++i) {
    json += strf("%s{\"cold_builds\": %llu}", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(leg.job_cold_builds[i]));
  }
  json += "]";
}

double ratio(double base, double t) { return t > 0.0 ? base / t : 0.0; }

int run_main() {
  const auto opts = harness::BenchOptions::from_env();
  const bool smoke = std::getenv("DUFP_SMOKE") != nullptr;
  const unsigned host_cpus = std::thread::hardware_concurrency();

  print_banner("grid_throughput: pooled runs vs sequential runs",
               "grid execution (DESIGN.md §7f), not a paper figure");

  harness::GridSpec spec;
  spec.name = smoke ? "grid-throughput-smoke" : "grid-throughput";
  spec.apps = smoke ? std::vector<workloads::AppId>{workloads::AppId::ep}
                    : std::vector<workloads::AppId>{workloads::AppId::ep,
                                                    workloads::AppId::cg};
  spec.policies = core::PolicyRegistry::instance().names();
  spec.tolerances = {0.05, 0.10};
  spec.repetitions = smoke ? 5 : opts.repetitions;
  spec.sockets = opts.sockets;

  const auto gp = harness::build_plan(spec);
  const std::size_t jobs = gp.plan.job_count();
  std::printf("grid: %s (%zu jobs across %zu cells), host_cpus=%u\n",
              spec.name.c_str(), jobs, gp.plan.cell_count(), host_cpus);

  // Alternating uncached/pooled pairs.  The first run of each leg
  // supplies its economics, and the first uncached run is the byte
  // reference.
  const bool pool = host_cpus >= 2;
  Leg uncached;
  Leg pooled;
  bool pooled_identical = true;
  std::vector<double> uncached_walls;
  std::vector<double> pooled_walls;
  std::vector<double> pair_ratios;
  const int pairs = pool ? kPairs : 1;
  for (int p = 0; p < pairs; ++p) {
    Leg u = run_leg(spec, gp, /*threads=*/1);
    uncached_walls.push_back(u.wall_seconds);
    if (p == 0) uncached = std::move(u);
    if (pool) {
      Leg q = run_leg(spec, gp, kPoolThreads);
      pooled_identical = pooled_identical && q.bytes == uncached.bytes;
      pooled_walls.push_back(q.wall_seconds);
      pair_ratios.push_back(ratio(uncached_walls.back(), q.wall_seconds));
      if (p == 0) pooled = std::move(q);
    }
  }
  const double uncached_wall = median(uncached_walls);
  std::printf("uncached (run_once loop):  %7.3f s  (%llu cold edge builds, "
              "%llu probes)\n",
              uncached_wall,
              static_cast<unsigned long long>(uncached.cells.cold_builds),
              static_cast<unsigned long long>(uncached.cells.probes));

  const double pooled_vs_uncached = median(pair_ratios);
  if (pool) {
    std::printf("pooled, %d threads:         %7.3f s  (median %.2fx over "
                "%d pairs, bytes %s, %llu cold edge builds)\n",
                kPoolThreads, median(pooled_walls), pooled_vs_uncached,
                kPairs, pooled_identical ? "identical" : "DIFFER",
                static_cast<unsigned long long>(pooled.cells.cold_builds));
  } else {
    std::printf("pooled, %d threads:         skipped (host_cpus==1)\n",
                kPoolThreads);
  }

  std::string json = "{\n";
  json += "  \"schema_version\": 4,\n";
  json += "  \"bench\": \"grid_throughput\",\n";
  json += strf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += strf(
      "  \"config\": {\n"
      "    \"spec\": \"%s\",\n"
      "    \"jobs\": %zu,\n"
      "    \"cells\": %zu,\n"
      "    \"pool_threads\": %d,\n"
      "    \"pairs\": %d,\n"
      "    \"host_cpus\": %u\n"
      "  },\n",
      spec.name.c_str(), jobs, gp.plan.cell_count(), kPoolThreads, pairs,
      host_cpus);
  append_leg_json(json, "uncached", uncached, uncached_wall, jobs,
                  /*identical=*/true);
  json += ",\n";
  if (pool) {
    append_leg_json(json, "pooled", pooled, median(pooled_walls), jobs,
                    pooled_identical);
  } else {
    json += "  \"pooled\": {\n"
            "    \"skipped_reason\": \"host_cpus==1\"\n"
            "  }";
  }
  json += ",\n  \"speedup\": {";
  if (pool) {
    json += strf("\n    \"pooled_vs_uncached\": %.3f,\n"
                 "    \"pooled_vs_uncached_pairs\": [",
                 pooled_vs_uncached);
    for (std::size_t i = 0; i < pair_ratios.size(); ++i) {
      json += strf("%s%.3f", i == 0 ? "" : ", ", pair_ratios[i]);
    }
    json += "]\n  ";
  }
  json += "},\n";
  json += "  \"per_job\": {\n";
  append_per_job_json(json, "uncached", uncached);
  if (pool) {
    json += ",\n";
    append_per_job_json(json, "pooled", pooled);
  }
  json += "\n  }\n}\n";

  const std::string path = out_path("BENCH_grid_throughput.json");
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("JSON written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }

  if (!pooled_identical) {
    std::fprintf(stderr, "grid_throughput: FAILED the identity gate\n");
  }
  return pooled_identical ? 0 : 1;
}

}  // namespace
}  // namespace dufp::bench

int main() { return dufp::bench::run_main(); }
