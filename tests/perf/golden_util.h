// Shared fixture for the hot-path regression suite (ctest label `perf`):
// the reference grid every golden below runs on, plus byte-exact golden
// file handling in the style of tests/telemetry.
//
// Golden files live in tests/perf/golden/ (DUFP_PERF_GOLDEN_DIR is
// injected by CMake).  They were generated from the pre-optimization
// engine (PR 3 state) and pin the determinism contract of the hot-path
// rework: the optimized engine must reproduce them byte for byte, run
// inline or on a pool worker.  To regenerate after an *intentional*
// output change: DUFP_UPDATE_GOLDEN=1 ctest -L perf, then review the diff.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "harness/runner.h"
#include "sim/trace.h"
#include "telemetry/export.h"
#include "workloads/trace_replay.h"
#include "workloads/workload.h"

namespace dufp::perf_test {

/// The reference workload: an NPB-like alternation of a compute-bound, a
/// bandwidth-bound, and a mixed phase (0.25 s nominal each, two cycles).
/// Small enough to trace at full 1 ms resolution, rich enough to exercise
/// phase splits, the phase-cap listener, and both controller paths.
inline workloads::WorkloadProfile golden_profile() {
  workloads::WorkloadProfile w("golden-mix",
                               "compute/memory/mixed alternation");
  workloads::PhaseSpec stride;
  stride.name = "stride";
  stride.nominal_seconds = 0.25;
  stride.gflops_ref = 55.0;
  stride.oi = 8.0;
  stride.w_cpu = 0.85;
  stride.w_mem = 0.05;
  stride.w_unc = 0.05;
  stride.w_fixed = 0.05;
  stride.cpu_activity = 0.95;
  stride.mem_activity = 0.3;
  w.add_phase(stride);

  workloads::PhaseSpec sweep;
  sweep.name = "sweep";
  sweep.nominal_seconds = 0.25;
  sweep.gflops_ref = 9.0;
  sweep.oi = 0.12;
  sweep.w_cpu = 0.15;
  sweep.w_mem = 0.70;
  sweep.w_unc = 0.10;
  sweep.w_fixed = 0.05;
  sweep.cpu_activity = 0.55;
  sweep.mem_activity = 0.9;
  w.add_phase(sweep);

  workloads::PhaseSpec mix;
  mix.name = "mix";
  mix.nominal_seconds = 0.25;
  mix.gflops_ref = 30.0;
  mix.oi = 1.5;
  mix.w_cpu = 0.45;
  mix.w_mem = 0.35;
  mix.w_unc = 0.10;
  mix.w_fixed = 0.10;
  mix.cpu_activity = 0.8;
  mix.mem_activity = 0.7;
  w.add_phase(mix);

  w.loop(2, {"stride", "sweep", "mix"});
  return w;
}

/// A measured-style trace: `cycles` passes over six distinct 0.2 s
/// behaviours (compute-bound, bandwidth-bound, and mixes).  Consecutive
/// rows always differ by more than the 10% merge tolerance, so every row
/// becomes its own phase segment — the densest phase stream the replay
/// module can produce.
inline std::vector<workloads::TraceSample> dense_trace(int cycles) {
  // seconds, gflops, gbps, cpu_activity, mem_activity
  const workloads::TraceSample kinds[] = {
      {0.2, 55.0, 10.0, 0.95, 0.30}, {0.2, 9.0, 80.0, 0.55, 0.90},
      {0.2, 30.0, 45.0, 0.80, 0.70}, {0.2, 48.0, 15.0, 0.90, 0.40},
      {0.2, 12.0, 70.0, 0.60, 0.85}, {0.2, 22.0, 30.0, 0.75, 0.60}};
  std::vector<workloads::TraceSample> trace;
  for (int c = 0; c < cycles; ++c) {
    trace.insert(trace.end(), std::begin(kinds), std::end(kinds));
  }
  return trace;
}

/// The reference run: 4 sockets, DUFP agents at the paper's interval, and
/// a partial cap on the bandwidth-bound phase (the Fig. 1b mechanism) so
/// the phase-listener path carries real actuation.
inline harness::RunConfig golden_config(
    const workloads::WorkloadProfile& profile) {
  harness::RunConfig cfg;
  cfg.profile = &profile;
  cfg.machine.sockets = 4;
  cfg.policy_name = "DUFP";
  cfg.tolerated_slowdown = 0.10;
  cfg.seed = 7;
  cfg.phase_cap = harness::PhaseCapSpec{"sweep", 95.0};
  return cfg;
}

/// The same grid under a deterministic fault storm (MSR + counter faults),
/// which stresses the listener's best-effort writes and the agents'
/// degradation machinery.
inline harness::RunConfig golden_storm_config(
    const workloads::WorkloadProfile& profile) {
  harness::RunConfig cfg = golden_config(profile);
  cfg.faults = faults::FaultOptions::storm(0.015, 9);
  return cfg;
}

inline std::string golden_path(const std::string& file) {
  return std::string(DUFP_PERF_GOLDEN_DIR) + "/" + file;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline void expect_matches_golden(const std::string& produced,
                                  const std::string& file) {
  const std::string path = golden_path(file);
  if (std::getenv("DUFP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with DUFP_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(produced, want.str()) << "output drifted from " << path;
}

/// Full-precision textual digest of a run: every double is printed with
/// %.17g so a single ULP of drift anywhere in the engine fails the byte
/// compare.
inline std::string summary_text(const harness::RunResult& res) {
  std::string out;
  const auto& s = res.summary;
  out += strf("exec_seconds=%.17g\n", s.exec_seconds);
  out += strf("pkg_energy_j=%.17g\n", s.pkg_energy_j);
  out += strf("dram_energy_j=%.17g\n", s.dram_energy_j);
  out += strf("total_gflop=%.17g\n", s.total_gflop);
  out += strf("total_gbytes=%.17g\n", s.total_gbytes);
  for (const auto& [name, t] : res.phase_totals) {
    out += strf("phase=%s wall=%.17g pkg=%.17g dram=%.17g\n", name.c_str(),
                t.wall_seconds, t.pkg_energy_j, t.dram_energy_j);
  }
  for (const auto& a : res.agent_stats) {
    out += strf("agent cap_dec=%llu cap_resets=%llu unc_dec=%llu\n",
                static_cast<unsigned long long>(a.cap_decreases),
                static_cast<unsigned long long>(a.cap_resets),
                static_cast<unsigned long long>(a.uncore_decreases));
  }
  out += strf("health faults=%llu retries=%llu failures=%llu degraded=%llu\n",
              static_cast<unsigned long long>(res.health.faults_injected),
              static_cast<unsigned long long>(res.health.actuation_retries),
              static_cast<unsigned long long>(res.health.actuation_failures),
              static_cast<unsigned long long>(res.health.degradations));
  return out;
}

/// summary_text plus, when telemetry is enabled, the run's Prometheus,
/// Chrome-trace and JSONL exports: every deterministic byte of an
/// untraced harness run.
inline std::string result_bytes(const harness::RunResult& res) {
  std::string out = summary_text(res);
  if (res.telemetry.has_value()) {
    telemetry::write_prometheus(res.telemetry->metrics, out);
    std::ostringstream t;
    telemetry::write_chrome_trace(*res.telemetry, t);
    telemetry::write_jsonl(*res.telemetry, t);
    out += t.str();
  }
  return out;
}

/// Runs `cfg` as one job of a `threads`-worker ThreadPool, the pool
/// ExperimentPlan::run_jobs spreads a grid over, next to `threads - 1`
/// concurrent siblings (the same config under other seeds, untraced)
/// that share the workers with it.
inline harness::RunResult run_pooled(const harness::RunConfig& cfg,
                                     int threads) {
  ThreadPool pool(threads);
  std::vector<std::future<harness::RunResult>> siblings;
  for (int i = 1; i < threads; ++i) {
    harness::RunConfig sibling = cfg;
    sibling.trace = nullptr;
    sibling.seed = cfg.seed + static_cast<std::uint64_t>(i);
    siblings.push_back(
        pool.submit([sibling] { return harness::run_once(sibling); }));
  }
  std::future<harness::RunResult> job =
      pool.submit([&cfg] { return harness::run_once(cfg); });
  for (auto& f : siblings) f.get();
  return job.get();
}

/// A writable temp-file path unique to the current test.  Parameterized
/// test names contain '/', which must not become directory separators.
inline std::string temp_path(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "_" +
                     info->name() + "_" + tag;
  for (auto& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + name;
}

/// The run's full-resolution trace CSV.  `pool_threads` == 0 runs the
/// config inline through run_once; otherwise it runs as one job of a
/// pool that wide (see run_pooled).  The traced run's result goes to
/// `result` when it is given.
inline std::string run_trace_csv(harness::RunConfig cfg,
                                 const std::string& tag,
                                 int pool_threads = 0,
                                 harness::RunResult* result = nullptr) {
  const std::string path = temp_path(tag + ".csv");
  {
    sim::CsvTraceSink sink(path, /*decimation=*/1);
    cfg.trace = &sink;
    harness::RunResult res = pool_threads == 0
                                 ? harness::run_once(cfg)
                                 : run_pooled(cfg, pool_threads);
    if (result != nullptr) *result = std::move(res);
  }
  return read_file(path);
}

}  // namespace dufp::perf_test
