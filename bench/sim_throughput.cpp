// End-to-end simulation-engine throughput on the fixed reference grid:
// 4 sockets x NPB CG under DUFP agents at the paper's control interval —
// the exact shape every figure bench pounds on.  Reports ticks/sec and
// simulated socket-seconds per wall second of one run_once, and writes a
// machine-readable BENCH_sim_throughput.json (schema in
// bench/sim_throughput_schema.json) so the perf trajectory has tracked
// data points.
//
// Knobs:
//   DUFP_SMOKE=1      tiny profile + 1 repetition: CI smoke (validates the
//                     JSON contract, makes no perf claim)
//   DUFP_BENCH_REPS=N wall-clock repetitions per engine variant (default
//                     3; the fastest repetition is reported)
//   DUFP_OUT_DIR=DIR  where BENCH_sim_throughput.json lands (default out)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_util.h"

namespace dufp::bench {
namespace {

/// Serial ticks/sec of the *seed* engine (pre hot-path optimization, PR 3
/// state) on this protocol: Release build, 4 sockets x CG, DUFP agents,
/// best of 5 repetitions, measured on the dev container that produced the
/// checked-in BENCH_sim_throughput.json immediately before the hot-path
/// rework landed.  This is the fixed reference the speedup block is
/// computed against; re-measure when moving the tracked numbers to
/// different hardware.
constexpr double kSeedEngineTicksPerSec = 317607.0;

struct Measurement {
  double wall_seconds = 0.0;    ///< fastest repetition
  double sim_seconds = 0.0;     ///< simulated run length
  double ticks = 0.0;           ///< engine steps per run
  int sockets = 0;
  /// Leap/step split of the run (identical across repetitions: the
  /// engine is deterministic, so the last repetition's stats serve).
  sim::BatchStats stats;

  double ticks_per_sec() const {
    return wall_seconds > 0.0 ? ticks / wall_seconds : 0.0;
  }
  double socket_ticks_per_sec() const {
    return ticks_per_sec() * sockets;
  }
  /// Simulated socket-seconds delivered per wall second.
  double socket_sim_rate() const {
    return wall_seconds > 0.0 ? sim_seconds * sockets / wall_seconds : 0.0;
  }
};

harness::RunConfig bench_config(const workloads::WorkloadProfile& profile,
                                int sockets) {
  harness::RunConfig cfg;
  cfg.profile = &profile;
  cfg.machine.sockets = sockets;
  cfg.policy_name = "DUFP";
  cfg.tolerated_slowdown = 0.10;
  cfg.seed = 1;
  return cfg;
}

/// A ~2 s CG-shaped stand-in for smoke runs.
workloads::WorkloadProfile smoke_profile() {
  workloads::WorkloadProfile w("smoke", "short CG-like alternation");
  workloads::PhaseSpec mem;
  mem.name = "mem";
  mem.nominal_seconds = 0.5;
  mem.gflops_ref = 8.0;
  mem.oi = 0.1;
  mem.w_cpu = 0.15;
  mem.w_mem = 0.7;
  mem.w_unc = 0.1;
  mem.w_fixed = 0.05;
  w.add_phase(mem);
  workloads::PhaseSpec cpu;
  cpu.name = "cpu";
  cpu.nominal_seconds = 0.5;
  cpu.gflops_ref = 50.0;
  cpu.oi = 6.0;
  cpu.w_cpu = 0.85;
  cpu.w_mem = 0.05;
  cpu.w_unc = 0.05;
  cpu.w_fixed = 0.05;
  w.add_phase(cpu);
  w.loop(2, {"mem", "cpu"});
  return w;
}

Measurement measure(const harness::RunConfig& cfg, int reps) {
  Measurement m;
  m.sockets = cfg.machine.sockets;
  m.wall_seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const harness::RunResult res = harness::run_once(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(t1 - t0).count();
    m.wall_seconds = std::min(m.wall_seconds, wall);
    m.sim_seconds = res.summary.exec_seconds;
    m.ticks = res.summary.exec_seconds / cfg.sim.tick.seconds();
    m.stats = res.batch_stats;
  }
  return m;
}

void append_measurement_json(std::string& json, const char* key,
                             const Measurement& m) {
  json += strf(
      "  \"%s\": {\n"
      "    \"wall_seconds\": %.6f,\n"
      "    \"sim_seconds\": %.6f,\n"
      "    \"ticks\": %.0f,\n"
      "    \"ticks_per_sec\": %.1f,\n"
      "    \"socket_ticks_per_sec\": %.1f,\n"
      "    \"socket_sim_seconds_per_wall_sec\": %.2f,\n"
      "    \"leap\": {\n"
      "      \"leapt_ticks\": %lld,\n"
      "      \"stepped_ticks\": %lld,\n"
      "      \"leaps\": %lld,\n"
      "      \"max_leap\": %lld,\n"
      "      \"events_fired\": %lld\n"
      "    }\n"
      "  }",
      key, m.wall_seconds, m.sim_seconds, m.ticks, m.ticks_per_sec(),
      m.socket_ticks_per_sec(), m.socket_sim_rate(),
      static_cast<long long>(m.stats.leapt_ticks),
      static_cast<long long>(m.stats.stepped_ticks),
      static_cast<long long>(m.stats.leaps),
      static_cast<long long>(m.stats.max_leap),
      static_cast<long long>(m.stats.events_fired));
}

int run_main() {
  const bool smoke = std::getenv("DUFP_SMOKE") != nullptr;
  int reps = 3;
  if (const char* r = std::getenv("DUFP_BENCH_REPS")) {
    reps = std::max(1, std::atoi(r));
  }
  if (smoke) reps = 1;

  print_banner("sim_throughput: engine ticks/sec on the reference grid",
               "engine scaling (ROADMAP north star), not a paper figure");

  const workloads::WorkloadProfile smoke_prof = smoke_profile();
  const workloads::WorkloadProfile& profile =
      smoke ? smoke_prof : workloads::profile(workloads::AppId::cg);
  const int sockets = 4;  // fixed reference grid: yeti-2
  harness::RunConfig serial_cfg = bench_config(profile, sockets);

  std::printf("grid: %d sockets x %s (%.0f s nominal), DUFP agents, "
              "%d repetition(s)\n",
              sockets, smoke ? "smoke" : "CG",
              profile.nominal_total_seconds(), reps);

  const Measurement serial = measure(serial_cfg, reps);
  std::printf("serial:          %10.0f ticks/s  (%.1f socket-sim-s / wall-s)\n",
              serial.ticks_per_sec(), serial.socket_sim_rate());
  std::printf("  leap split:    %lld leapt + %lld stepped ticks "
              "(%lld leaps, max %lld, %lld events)\n",
              static_cast<long long>(serial.stats.leapt_ticks),
              static_cast<long long>(serial.stats.stepped_ticks),
              static_cast<long long>(serial.stats.leaps),
              static_cast<long long>(serial.stats.max_leap),
              static_cast<long long>(serial.stats.events_fired));

  const unsigned host_cpus = std::thread::hardware_concurrency();

  std::string json = "{\n";
  json += "  \"schema_version\": 4,\n";
  json += "  \"bench\": \"sim_throughput\",\n";
  json += strf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  json += strf(
      "  \"config\": {\n"
      "    \"sockets\": %d,\n"
      "    \"app\": \"%s\",\n"
      "    \"mode\": \"dufp\",\n"
      "    \"tick_us\": %lld,\n"
      "    \"repetitions\": %d,\n"
      "    \"host_cpus\": %u\n"
      "  },\n",
      sockets, smoke ? "smoke" : "CG",
      static_cast<long long>(serial_cfg.sim.tick.micros()), reps, host_cpus);
  json += strf(
      "  \"baseline\": {\n"
      "    \"ticks_per_sec\": %.1f,\n"
      "    \"note\": \"seed engine (pre hot-path PR), same protocol\"\n"
      "  },\n",
      kSeedEngineTicksPerSec);
  append_measurement_json(json, "serial", serial);
  json += strf(",\n"
               "  \"speedup\": {\n"
               "    \"serial_vs_baseline\": %.3f\n"
               "  }\n}\n",
               kSeedEngineTicksPerSec > 0.0
                   ? serial.ticks_per_sec() / kSeedEngineTicksPerSec
                   : 0.0);

  const std::string path = out_path("BENCH_sim_throughput.json");
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("JSON written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dufp::bench

int main() { return dufp::bench::run_main(); }
