// Experiment execution: one fully wired run of an application on the
// simulated yeti-2 under a policy named in the registry (or none: the
// paper's default configuration), plus the paper's repetition protocol
// (10 runs, trim fastest + slowest, average the rest — Sec. V).  The
// per-socket wiring (fault chain, zones, agents) is harness::ControlPlane,
// shared with fleet nodes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/agent.h"
#include "core/policy.h"
#include "faults/fault_plan.h"
#include "hwmodel/socket_config.h"
#include "rapl/cell_cache.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "telemetry/telemetry.h"
#include "workloads/profiles.h"

namespace dufp::harness {

/// Static per-phase power cap (Fig. 1b/1c): while the named phase runs,
/// the package limit is `cap_w`; leaving the phase restores the default.
struct PhaseCapSpec {
  std::string phase;
  double cap_w = 0.0;
};

struct RunConfig {
  const workloads::WorkloadProfile* profile = nullptr;  ///< required
  /// The controller, by registry name ("DUF", "DUFP", "cuttlefish",
  /// ...), resolved case-insensitively in core::PolicyRegistry::instance().
  /// Empty means the uncontrolled baseline run: no agent at all.
  std::string policy_name;
  double tolerated_slowdown = 0.0;
  std::uint64_t seed = 1;

  hw::MachineConfig machine;
  core::PolicyConfig policy;       ///< interval, steps, thresholds
  sim::SimulationOptions sim;      ///< tick, jitter, governor
  double sampler_noise_sigma = 0.001;

  /// Fig. 1a: a static cap programmed before the run starts (applies
  /// under any policy, including the baseline).
  std::optional<double> static_cap_w;

  /// Fig. 1b/1c: partial capping of one phase.
  std::optional<PhaseCapSpec> phase_cap;

  /// Fault injection (robustness experiments).  When `faults.enabled` the
  /// harness interposes FaultyMsrDevice / FaultyCounterSource between the
  /// control plane and the substrate, armed only once the run starts.
  /// Each socket's fault stream is seeded
  /// Rng(faults.seed).fork(seed).fork(socket), so storms are independent
  /// per socket yet bit-reproducible per (fault seed, run seed) pair.
  faults::FaultOptions faults;

  /// Optional tracing (not owned).
  sim::TraceSink* trace = nullptr;

  /// Telemetry (metrics registry + per-socket flight recorders).  Off by
  /// default — the null-sink path leaves every existing output
  /// bit-identical; telemetry draws no randomness and never changes a
  /// decision, so enabling it is also bit-identical (a tier-1 guarantee).
  telemetry::TelemetryConfig telemetry;

  /// Checks the whole config and reports *every* problem found (empty =
  /// valid), instead of failing on the first one: null profile,
  /// non-positive tolerance / interval / tick, a phase cap naming a phase
  /// the profile lacks, ...  `run_once` and `ExperimentPlan::add_cell`
  /// call this and throw std::invalid_argument with the full list.
  std::vector<std::string> validate() const;

  /// `policy_name` spelled canonically when it resolves ("dufp-f" →
  /// "DUFP-F"); "" for the uncontrolled baseline (no agent).
  std::string resolved_policy() const;
};

/// Machine-wide robustness roll-up (agents' AgentHealth summed over
/// sockets plus the total number of injected faults), carried through the
/// repetition protocol into CSV/bench output so fault-storm results are
/// auditable: zero counters under a storm would mean the storm never
/// reached the agent, not that the agent is perfect.
struct HealthTotals {
  std::uint64_t actuation_retries = 0;
  std::uint64_t actuation_failures = 0;
  std::uint64_t sample_read_failures = 0;
  std::uint64_t samples_rejected = 0;
  std::uint64_t degradations = 0;
  std::uint64_t reengagements = 0;
  std::uint64_t intervals_degraded = 0;
  std::uint64_t faults_injected = 0;

  void add(const core::AgentHealth& h);
  void add(const HealthTotals& other);
};

struct RunResult {
  sim::RunSummary summary;
  std::vector<core::AgentStats> agent_stats;  ///< empty for the baseline

  /// Per-socket injection counts (empty unless faults.enabled).
  std::vector<faults::FaultStats> fault_stats;

  /// Agent health summed over sockets + total faults injected.
  HealthTotals health;

  /// Machine-wide per-phase totals, keyed by phase name (summed over
  /// sockets and over every visit of the phase).
  std::map<std::string, sim::PhaseTotals> phase_totals;

  /// Present iff config.telemetry.enabled: every metric series (including
  /// run-summary gauges registered after the run), plus, when
  /// config.telemetry.snapshot_flight, each socket's final flight-recorder
  /// contents and the watchdog fail-open dumps.  Feed it to
  /// telemetry::export_run / write_prometheus / write_chrome_trace.
  std::optional<telemetry::TelemetrySnapshot> telemetry;

  /// How the engine spent its ticks (leap / step split) — lets the
  /// throughput benches report the event-leaping behaviour without owning
  /// the Simulation.
  sim::BatchStats batch_stats;

  /// Cell-edge table economics summed over the run's governors (cold
  /// builds, planner probes, shared-cache hits, way evictions) — how much
  /// of the run started warm.  Process-local diagnostics: deliberately
  /// NOT part of the shard wire codec, so gathered results carry zeros
  /// here (the workers' counters live in the worker processes).
  rapl::CellStats cell_stats;
};

/// Executes one run.  Throws std::invalid_argument on malformed configs.
RunResult run_once(const RunConfig& config);

/// A run wired but not yet executed: the simulation plus every object
/// run_once would have built around it (zones, agents, fault decorators,
/// telemetry), with injectors armed.  Drive `simulation()` to completion
/// — via Simulation::run(), or advance_once() by advance_once() as the
/// perf ledger does to time each engine path — then call finish()
/// exactly once to collect the RunResult run_once would have produced.
class PreparedRun {
 public:
  PreparedRun(PreparedRun&&) noexcept;
  PreparedRun& operator=(PreparedRun&&) noexcept;
  ~PreparedRun();

  sim::Simulation& simulation();

  /// Collects stats / phase totals / telemetry into the RunResult.
  /// Requires the simulation to have run to completion.
  RunResult finish();

 private:
  friend PreparedRun prepare_run(const RunConfig& config);
  struct Impl;
  explicit PreparedRun(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Validates and wires one run without executing it.  run_once(cfg) ≡
/// { auto p = prepare_run(cfg); p.simulation().run(); return p.finish(); }.
PreparedRun prepare_run(const RunConfig& config);

/// Aggregated repeated-runs metrics following the paper's protocol; the
/// trimming key is execution time.
struct RepeatedResult {
  TrimmedSummary exec_seconds;
  TrimmedSummary avg_pkg_power_w;
  TrimmedSummary avg_dram_power_w;
  TrimmedSummary pkg_energy_j;
  TrimmedSummary dram_energy_j;
  TrimmedSummary total_energy_j;

  /// Per-phase wall seconds / package power (means over the kept runs),
  /// for the partial-capping figures.
  std::map<std::string, sim::PhaseTotals> mean_phase_totals;

  /// Health counters summed over *all* repetitions (not trimmed: a
  /// degradation in the fastest run still happened).
  HealthTotals health;
  int runs = 0;
};

/// Aggregates already-executed runs into the paper's trimmed summary.
/// Index order is the repetition order — the `ExperimentPlan` reassembles
/// parallel results into this order before calling it, which is what
/// makes parallel output bit-identical to serial.
RepeatedResult aggregate_runs(const std::vector<RunResult>& runs);

/// Runs `repetitions` times with per-repetition derived seeds (see
/// harness::job_seed) and aggregates.  Thin wrapper over ExperimentPlan:
/// repetitions execute in parallel across DUFP_THREADS workers with
/// results identical to a serial run.
RepeatedResult run_repeated(RunConfig config, int repetitions = 10);

/// Relative change in percent: +3.0 means `value` is 3 % above `base`.
double percent_over(double value, double base);

}  // namespace dufp::harness
