// Robustness bench: every controller under a deterministic fault storm.
//
// Runs CG under each policy mode with the substrate injecting transient
// MSR errors, msr-safe write denials, bit flips, stale / dropped samples
// and a forced RAPL energy wraparound, then reports how much the agents
// absorbed (retries), how much they gave up on (failures, degradations)
// and what it cost in time / power vs the same storm-free run.
//
// Knobs: DUFP_FAULT_RATE (default 0.02 here — this bench always storms),
// DUFP_FAULT_SEED, plus the usual DUFP_REPS / DUFP_SOCKETS / DUFP_THREADS.
// With DUFP_TELEMETRY=1 the bench additionally runs one instrumented
// DUFP repetition and exports the full telemetry plane — Prometheus
// exposition, Chrome trace JSON, JSONL and any watchdog flight-recorder
// dumps — under DUFP_OUT_DIR (see EXPERIMENTS.md, "Capturing a flight
// recorder dump").
#include <iostream>

#include "bench_util.h"
#include "common/csv.h"
#include "faults/fault_plan.h"
#include "telemetry/export.h"

using namespace dufp;

int main() {
  const auto opts = harness::BenchOptions::from_env();
  const double rate = opts.fault_rate > 0.0 ? opts.fault_rate : 0.02;

  bench::print_banner("Fault storm: controller robustness under substrate "
                      "failures",
                      "robustness extension (no paper figure)");
  std::printf("Storm: rate %g, seed %llu, forced energy wraparound\n\n", rate,
              static_cast<unsigned long long>(opts.fault_seed));

  const auto& prof = workloads::profile(workloads::AppId::cg);
  const std::vector<std::string> modes{"DUF", "DUFP", "DUFP-F", "DNPC"};

  // Storm-free reference for the cost-of-faults column.
  harness::RunConfig base = harness::default_run_config(prof);
  base.tolerated_slowdown = 0.10;
  base.faults = faults::FaultOptions{};  // clean, whatever the env says

  const std::string csv_path = bench::out_path("fault_storm.csv");
  CsvWriter csv(csv_path);
  csv.write_row({"mode", "exec_s", "exec_s_clean", "avg_pkg_power_w",
                 "faults_injected", "actuation_retries", "actuation_failures",
                 "sample_read_failures", "samples_rejected", "degradations",
                 "reengagements", "intervals_degraded"});

  TextTable table({"mode", "exec s (storm)", "exec s (clean)", "health"});
  for (const std::string& mode : modes) {
    harness::RunConfig clean = base;
    clean.policy_name = mode;
    const auto ref = harness::run_repeated(clean, opts.repetitions);

    harness::RunConfig storm = clean;
    storm.faults = faults::FaultOptions::storm(rate, opts.fault_seed);
    const auto res = harness::run_repeated(storm, opts.repetitions);

    table.add_row({mode,
                   strf("%7.2f", res.exec_seconds.mean),
                   strf("%7.2f", ref.exec_seconds.mean),
                   bench::health_summary(res.health)});
    csv.write_row({mode,
                   fmt_double(res.exec_seconds.mean, 3),
                   fmt_double(ref.exec_seconds.mean, 3),
                   fmt_double(res.avg_pkg_power_w.mean, 3),
                   std::to_string(res.health.faults_injected),
                   std::to_string(res.health.actuation_retries),
                   std::to_string(res.health.actuation_failures),
                   std::to_string(res.health.sample_read_failures),
                   std::to_string(res.health.samples_rejected),
                   std::to_string(res.health.degradations),
                   std::to_string(res.health.reengagements),
                   std::to_string(res.health.intervals_degraded)});
  }
  table.print(std::cout);

  std::printf(
      "\nEvery run completed under the storm; degraded sockets fail safe\n"
      "to the hardware defaults and re-engage with exponential backoff.\n"
      "Raw series written to %s\n", csv_path.c_str());

  if (opts.telemetry) {
    // One instrumented DUFP repetition under the same storm: the flight
    // recorders capture the interval-by-interval history and every
    // watchdog fail-open dumps the last moments before degradation.
    harness::RunConfig instr = base;
    instr.policy_name = "DUFP";
    instr.faults = faults::FaultOptions::storm(rate, opts.fault_seed);
    instr.telemetry.enabled = true;
    const auto res = harness::run_once(instr);
    const auto files = telemetry::export_run(
        *res.telemetry, bench::out_path("fault_storm_telemetry"));
    std::printf("\nTelemetry (1 instrumented DUFP run, %zu metric series, "
                "%zu flight dumps):\n",
                res.telemetry->metrics.size(), res.telemetry->dumps.size());
    for (const auto& f : files) std::printf("  %s\n", f.c_str());
  }
  return 0;
}
