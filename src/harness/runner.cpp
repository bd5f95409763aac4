#include "harness/runner.h"

#include <algorithm>
#include <stdexcept>

#include "common/expect.h"
#include "core/policy_registry.h"
#include "harness/control_plane.h"

namespace dufp::harness {

double percent_over(double value, double base) {
  DUFP_EXPECT(base > 0.0);
  return (value / base - 1.0) * 100.0;
}

std::string RunConfig::resolved_policy() const {
  if (policy_name.empty()) return {};
  const auto* entry = core::PolicyRegistry::instance().find(policy_name);
  return entry != nullptr ? entry->name : policy_name;
}

std::vector<std::string> RunConfig::validate() const {
  std::vector<std::string> problems;
  if (profile == nullptr) {
    problems.push_back("profile is required");
  }
  if (!policy_name.empty() &&
      !core::PolicyRegistry::instance().contains(policy_name)) {
    problems.push_back(
        "policy_name is unknown: \"" + policy_name + "\" (known: " +
        core::PolicyRegistry::instance().known_names() + ")");
  }
  if (tolerated_slowdown < 0.0 || tolerated_slowdown > 1.0) {
    problems.push_back("tolerated_slowdown must be in [0, 1]");
  }
  if (machine.sockets < 1) {
    problems.push_back("machine.sockets must be >= 1");
  }
  if (policy.interval.micros() <= 0) {
    problems.push_back("policy.interval must be positive");
  }
  if (sim.tick.micros() <= 0) {
    problems.push_back("sim.tick must be positive");
  }
  if (sim.max_seconds <= 0.0) {
    problems.push_back("sim.max_seconds must be positive");
  }
  if (sampler_noise_sigma < 0.0) {
    problems.push_back("sampler_noise_sigma must be non-negative");
  }
  if (static_cap_w.has_value() && *static_cap_w <= 0.0) {
    problems.push_back("static_cap_w must be positive");
  }
  if (phase_cap.has_value()) {
    if (phase_cap->cap_w <= 0.0) {
      problems.push_back("phase_cap.cap_w must be positive");
    }
    if (profile != nullptr) {
      bool found = false;
      for (const auto& p : profile->phases()) {
        if (p.name == phase_cap->phase) found = true;
      }
      if (!found) {
        problems.push_back("phase_cap names a phase the profile lacks: \"" +
                           phase_cap->phase + "\"");
      }
    }
  }
  if (policy.max_actuation_attempts < 1) {
    problems.push_back("policy.max_actuation_attempts must be >= 1");
  }
  if (policy.watchdog_failure_threshold < 1) {
    problems.push_back("policy.watchdog_failure_threshold must be >= 1");
  }
  if (policy.watchdog_backoff_intervals < 1) {
    problems.push_back("policy.watchdog_backoff_intervals must be >= 1");
  }
  if (policy.watchdog_backoff_max_intervals <
      policy.watchdog_backoff_intervals) {
    problems.push_back(
        "policy.watchdog_backoff_max_intervals must be >= "
        "policy.watchdog_backoff_intervals");
  }
  for (const auto& p : faults.validate()) {
    problems.push_back("faults." + p);
  }
  if (telemetry.enabled) {  // disabled = nothing constructed, nothing checked
    for (const auto& p : telemetry.validate()) {
      problems.push_back("telemetry." + p);
    }
  }
  return problems;
}

void HealthTotals::add(const core::AgentHealth& h) {
  actuation_retries += h.actuation_retries;
  actuation_failures += h.actuation_failures;
  sample_read_failures += h.sample_read_failures;
  samples_rejected += h.samples_rejected;
  degradations += h.degradations;
  reengagements += h.reengagements;
  intervals_degraded += h.intervals_degraded;
}

void HealthTotals::add(const HealthTotals& other) {
  actuation_retries += other.actuation_retries;
  actuation_failures += other.actuation_failures;
  sample_read_failures += other.sample_read_failures;
  samples_rejected += other.samples_rejected;
  degradations += other.degradations;
  reengagements += other.reengagements;
  intervals_degraded += other.intervals_degraded;
  faults_injected += other.faults_injected;
}

namespace {

void throw_on_invalid(const RunConfig& config) {
  const auto problems = config.validate();
  if (problems.empty()) return;
  std::string msg = "RunConfig:";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    msg += (i == 0 ? " " : "; ") + problems[i];
  }
  throw std::invalid_argument(msg);
}

}  // namespace

/// Everything owned by one run: built, wired, driven, then discarded.
struct PreparedRun::Impl {
  RunConfig config;  ///< kept for finish() (profile pointer stays live)
  std::unique_ptr<sim::Simulation> simulation;
  std::unique_ptr<telemetry::Telemetry> telemetry;
  std::unique_ptr<ControlPlane> plane;
  bool finished = false;
};

PreparedRun::PreparedRun(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
PreparedRun::PreparedRun(PreparedRun&&) noexcept = default;
PreparedRun& PreparedRun::operator=(PreparedRun&&) noexcept = default;
PreparedRun::~PreparedRun() = default;

sim::Simulation& PreparedRun::simulation() {
  DUFP_EXPECT(impl_ != nullptr);
  return *impl_->simulation;
}

PreparedRun prepare_run(const RunConfig& config) {
  throw_on_invalid(config);

  auto impl = std::make_unique<PreparedRun::Impl>();
  impl->config = config;
  PreparedRun::Impl& ctx = *impl;
  sim::SimulationOptions sim_opts = config.sim;
  sim_opts.seed = config.seed;
  ctx.simulation = std::make_unique<sim::Simulation>(
      config.machine, *config.profile, sim_opts);
  sim::Simulation& s = *ctx.simulation;
  s.set_trace_sink(config.trace);

  const int n = s.socket_count();
  if (config.telemetry.enabled) {
    ctx.telemetry =
        std::make_unique<telemetry::Telemetry>(config.telemetry, n);
    // record_now() (fault decorators) stamps with the simulation clock.
    ctx.telemetry->set_clock([&s] { return s.now(); });
  }
  ctx.plane = std::make_unique<ControlPlane>(s, config.faults, config.seed,
                                             ctx.telemetry.get());
  ControlPlane& plane = *ctx.plane;

  // Static whole-run cap (Fig. 1a): programmed before the run, both
  // constraints to the same value, like the paper's motivation setup.
  if (config.static_cap_w.has_value()) {
    for (int i = 0; i < n; ++i) {
      plane.zone(i).set_power_limit_w(powercap::ConstraintId::long_term,
                                      *config.static_cap_w);
      plane.zone(i).set_power_limit_w(powercap::ConstraintId::short_term,
                                      *config.static_cap_w);
    }
  }

  // Partial capping of one phase (Fig. 1b/1c).
  if (config.phase_cap.has_value()) {
    const double cap = config.phase_cap->cap_w;
    // Resolve the target phase name to its interned index once, at the
    // edge; the listener then runs a plain integer compare per event.
    const std::size_t target_idx =
        config.profile->phase_index(config.phase_cap->phase);
    std::vector<double> def_long(static_cast<std::size_t>(n));
    std::vector<double> def_short(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      def_long[static_cast<std::size_t>(i)] =
          plane.zone(i).power_limit_w(powercap::ConstraintId::long_term);
      def_short[static_cast<std::size_t>(i)] =
          plane.zone(i).power_limit_w(powercap::ConstraintId::short_term);
    }
    // The listener holds the plane by pointer; the context owns it and
    // outlives the simulation loop.
    ControlPlane* owner = &plane;
    s.add_phase_listener([target_idx, cap, def_long, def_short, owner](
                             int socket, std::size_t phase_idx,
                             bool entered) {
      if (phase_idx != target_idx) return;
      auto& z = owner->zone(socket);
      // Best effort under fault injection: a phase-boundary write that
      // faults is dropped (the experiment's cap is late or missing for
      // that visit) rather than crashing the run.
      try {
        if (entered) {
          z.set_power_limit_w(powercap::ConstraintId::long_term, cap);
          z.set_power_limit_w(powercap::ConstraintId::short_term, cap);
        } else {
          z.set_power_limit_w(powercap::ConstraintId::long_term,
                              def_long[static_cast<std::size_t>(socket)]);
          z.set_power_limit_w(powercap::ConstraintId::short_term,
                              def_short[static_cast<std::size_t>(socket)]);
        }
      } catch (const msr::MsrError&) {
      }
    });
  }

  // Controllers: one agent per socket, policy resolved by registry name.
  core::PolicyConfig policy = config.policy;
  policy.tolerated_slowdown = config.tolerated_slowdown;
  plane.start(config.resolved_policy(), policy, config.sampler_noise_sigma);

  return PreparedRun(std::move(impl));
}

RunResult PreparedRun::finish() {
  DUFP_EXPECT(impl_ != nullptr);
  DUFP_EXPECT(!impl_->finished);
  impl_->finished = true;
  Impl& ctx = *impl_;
  const RunConfig& config = ctx.config;
  sim::Simulation& s = *ctx.simulation;
  DUFP_EXPECT(s.finished());
  const int n = s.socket_count();
  const bool telem_on = config.telemetry.enabled;

  RunResult result;
  result.summary = s.summarize();
  result.batch_stats = s.batch_stats();
  for (int i = 0; i < n; ++i) {
    result.cell_stats.add(s.rapl(i).governor().cell_stats());
  }

  for (const auto& agent : ctx.plane->agents()) {
    result.agent_stats.push_back(agent->stats());
    result.health.add(agent->stats().health);
  }
  for (const auto& plan : ctx.plane->fault_plans()) {
    result.fault_stats.push_back(plan->stats());
    result.health.faults_injected += plan->stats().total();
  }

  // Machine-wide per-phase totals.
  for (int i = 0; i < n; ++i) {
    const auto& totals = s.phase_totals(i);
    const auto& phases = config.profile->phases();
    for (std::size_t p = 0; p < phases.size(); ++p) {
      auto& agg = result.phase_totals[phases[p].name];
      agg.wall_seconds += totals[p].wall_seconds;
      agg.pkg_energy_j += totals[p].pkg_energy_j;
      agg.dram_energy_j += totals[p].dram_energy_j;
    }
  }
  // Wall seconds are per-socket-parallel, not additive: report the mean.
  for (auto& [name, agg] : result.phase_totals) {
    agg.wall_seconds /= static_cast<double>(n);
  }

  if (telem_on) {
    // Run-summary gauges so a scrape of the exposition alone carries the
    // headline numbers (the registry keeps the shared cells alive).
    auto& reg = ctx.telemetry->registry();
    reg.gauge("dufp_run_exec_seconds", "Simulated execution time")
        .set(result.summary.exec_seconds);
    reg.gauge("dufp_run_pkg_power_watts", "Run-average package power")
        .set(result.summary.avg_pkg_power_w);
    reg.gauge("dufp_run_dram_power_watts", "Run-average DRAM power")
        .set(result.summary.avg_dram_power_w);
    reg.gauge("dufp_run_pkg_energy_joules", "Package energy consumed")
        .set(result.summary.pkg_energy_j);
    reg.gauge("dufp_run_dram_energy_joules", "DRAM energy consumed")
        .set(result.summary.dram_energy_j);
    reg.gauge("dufp_run_total_energy_joules", "Package + DRAM energy")
        .set(result.summary.total_energy_j());
    // Note: cell-edge table economics (RunResult::cell_stats) stay OUT
    // of the telemetry snapshot on purpose.  They are engine diagnostics
    // — how the governor's decision was computed, not what it decided —
    // and the snapshot bytes are the serial ≡ parallel ≡ sharded identity
    // surface, which diagnostics stay outside of.  Benches report them
    // from RunResult::cell_stats instead.
    result.telemetry = ctx.telemetry->snapshot();
  }
  return result;
}

RunResult run_once(const RunConfig& config) {
  PreparedRun run = prepare_run(config);
  run.simulation().run();
  return run.finish();
}

RepeatedResult aggregate_runs(const std::vector<RunResult>& runs) {
  DUFP_EXPECT(!runs.empty());
  const int repetitions = static_cast<int>(runs.size());
  std::vector<double> exec;
  std::vector<double> pkg_power;
  std::vector<double> dram_power;
  std::vector<double> pkg_energy;
  std::vector<double> dram_energy;
  std::vector<double> total_energy;
  std::map<std::string, sim::PhaseTotals> phase_sums;

  for (const RunResult& res : runs) {
    exec.push_back(res.summary.exec_seconds);
    pkg_power.push_back(res.summary.avg_pkg_power_w);
    dram_power.push_back(res.summary.avg_dram_power_w);
    pkg_energy.push_back(res.summary.pkg_energy_j);
    dram_energy.push_back(res.summary.dram_energy_j);
    total_energy.push_back(res.summary.total_energy_j());
    for (const auto& [name, t] : res.phase_totals) {
      auto& agg = phase_sums[name];
      agg.wall_seconds += t.wall_seconds;
      agg.pkg_energy_j += t.pkg_energy_j;
      agg.dram_energy_j += t.dram_energy_j;
    }
  }

  RepeatedResult out;
  for (const RunResult& res : runs) out.health.add(res.health);
  out.runs = repetitions;
  out.exec_seconds = trimmed_summary(exec, exec);
  out.avg_pkg_power_w = trimmed_summary(exec, pkg_power);
  out.avg_dram_power_w = trimmed_summary(exec, dram_power);
  out.pkg_energy_j = trimmed_summary(exec, pkg_energy);
  out.dram_energy_j = trimmed_summary(exec, dram_energy);
  out.total_energy_j = trimmed_summary(exec, total_energy);
  for (auto& [name, t] : phase_sums) {
    t.wall_seconds /= repetitions;
    t.pkg_energy_j /= repetitions;
    t.dram_energy_j /= repetitions;
    out.mean_phase_totals[name] = t;
  }
  return out;
}

}  // namespace dufp::harness
