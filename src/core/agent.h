// The per-socket runtime agent: owns the measurement sampler and the
// control policy, and actuates through the powercap zone (package power
// limits) and the uncore MSR — exactly the actuation paths the paper's
// tool uses (Sec. IV-C).  One Agent instance runs per user-specified
// socket, each fully independent, mirroring "one instance of DUFP is
// started on each user-specified socket" (Sec. III).
//
// The control logic lives behind the core::Policy seam (policy_api.h):
// the agent resolves a policy by registry name (the only way to name a
// controller), feeds it one sample per interval, and executes the
// returned PolicyDecision through its retry / watchdog / telemetry
// machinery.  The agent is the only thing that touches hardware, so
// every policy — paper controller or zoo entry — gets identical
// robustness behaviour for free.
//
// The Agent is substrate-agnostic: it reads a CounterSource and writes
// through a PackageZone and an UncoreControl, both built over the
// MsrDevice interface, so the identical class would drive PAPI +
// powercap + /dev/cpu/*/msr on hardware.  In simulation,
// harness::ControlPlane builds one per socket for runs and fleet nodes
// alike.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/policy.h"
#include "core/policy_api.h"
#include "perfmon/sampler.h"
#include "powercap/pstate_control.h"
#include "powercap/uncore_control.h"
#include "powercap/zone.h"
#include "telemetry/telemetry.h"

namespace dufp::core {

/// Robustness accounting: what the agent absorbed, retried or gave up on.
/// All zero on a healthy substrate; deterministic for a fixed fault seed.
/// A value snapshot assembled by Agent::stats() from the agent's
/// counter-backed instruments — the counters are the single source of
/// truth, shared with the telemetry registry when one is attached.
struct AgentHealth {
  std::uint64_t actuation_retries = 0;    ///< failed attempts that were retried
  std::uint64_t actuation_failures = 0;   ///< operations dead after all retries
  std::uint64_t sample_read_failures = 0; ///< mirrors SamplerHealth
  std::uint64_t samples_rejected = 0;     ///< mirrors SamplerHealth
  std::uint64_t degradations = 0;         ///< watchdog fail-safe entries
  std::uint64_t reengage_failures = 0;    ///< re-engagement probes that failed
  std::uint64_t reengagements = 0;        ///< successful recoveries
  std::uint64_t intervals_degraded = 0;   ///< intervals spent degraded
};

struct AgentStats {
  std::uint64_t intervals = 0;

  std::uint64_t uncore_decreases = 0;
  std::uint64_t uncore_increases = 0;
  std::uint64_t uncore_resets = 0;

  std::uint64_t cap_decreases = 0;
  std::uint64_t cap_increases = 0;
  std::uint64_t cap_resets = 0;
  std::uint64_t cap_overshoot_resets = 0;
  std::uint64_t short_term_tightenings = 0;
  std::uint64_t uncore_reset_retries = 0;  ///< interaction rule 2 firings
  std::uint64_t pstate_pins = 0;           ///< DUFP-F frequency requests
  std::uint64_t pstate_releases = 0;

  AgentHealth health;
};

class Agent {
 public:
  /// `policy_name` is resolved (case-insensitively) in
  /// PolicyRegistry::instance(); std::invalid_argument on unknown
  /// names.  The registry entry's config_defaults are applied to `policy`
  /// first (e.g. DUFP-F forces manage_core_frequency), then the zone's
  /// current limits / windows are captured as the hardware defaults to
  /// restore on reset.  Whenever the effective config has
  /// manage_core_frequency set `pstate` is required, otherwise pass
  /// nullptr.  `telem` is the socket's telemetry view; nullptr (the
  /// default) is the null sink — instruments still count, but nothing is
  /// exported and no events are recorded.
  Agent(std::string_view policy_name, const PolicyConfig& policy,
        powercap::PackageZone& zone, powercap::UncoreControl& uncore,
        perfmon::IntervalSampler sampler,
        powercap::PstateControl* pstate = nullptr,
        telemetry::SocketTelemetry* telem = nullptr);

  /// One control interval: sample, decide, actuate.  The first call only
  /// establishes the counter baseline.
  ///
  /// Never throws: hardware failures are retried (bounded by
  /// PolicyConfig::max_actuation_attempts), and after
  /// `watchdog_failure_threshold` consecutive failed intervals the agent
  /// degrades to the fail-safe state (default uncore window, default power
  /// limits, P-state released) and probes for re-engagement with
  /// exponential backoff.  See AgentHealth for the accounting.
  void on_interval(SimTime now);

  /// True while the watchdog has the socket in the fail-safe state.
  bool degraded() const { return degraded_; }

  /// Canonical registry name of the policy this agent runs.
  const std::string& policy_name() const { return policy_name_; }
  /// Value snapshot assembled from the counter-backed instruments (and
  /// the sampler's own health — the agent no longer mirrors it).
  AgentStats stats() const;
  const PolicyConfig& policy() const { return policy_; }

  /// Last sample observed (empty before the second interval).
  const std::optional<perfmon::Sample>& last_sample() const {
    return last_sample_;
  }

  double default_long_w() const { return default_long_w_; }
  double default_short_w() const { return default_short_w_; }

 private:
  void init_controllers();
  void run_interval(SimTime now);
  void apply_uncore(const DufController::Decision& d);
  void apply_cap(const PolicyDecision& d);
  bool restore_default_cap();

  /// Runs a hardware-facing operation with bounded immediate retries;
  /// counts retries/failures (tagged with the actuation op for the flight
  /// recorder) and flags the interval on terminal failure.
  template <typename F>
  bool try_op(telemetry::ActuationOp op, F&& f);

  /// Flight-recorder shorthand; no-op when telemetry is disabled.
  void rec(telemetry::EventKind kind, std::uint16_t code = 0, double a = 0.0,
           double b = 0.0) {
    if (telem_ != nullptr) telem_->record(kind, now_, code, a, b);
  }
  void register_instruments();

  void enter_degraded();
  void apply_failsafe();
  void degraded_interval();
  void reengage();

  std::string policy_name_;
  PolicyConfig policy_;
  powercap::PackageZone& zone_;
  powercap::UncoreControl& uncore_;
  powercap::PstateControl* pstate_;  ///< nullable (core-freq policies only)
  perfmon::IntervalSampler sampler_;

  double default_long_w_;
  double default_short_w_;
  std::uint64_t default_long_window_us_;
  std::uint64_t default_short_window_us_;
  double uncore_max_mhz_;
  double default_uncore_min_mhz_;
  double pstate_max_mhz_ = 0.0;

  // -- watchdog state -------------------------------------------------------
  bool degraded_ = false;
  bool failsafe_applied_ = false;   ///< the safe state actually reached hw
  int consecutive_failures_ = 0;
  int current_backoff_ = 0;         ///< intervals between re-engage probes
  int backoff_remaining_ = 0;
  bool interval_attempted_ = false; ///< any hardware op tried this interval
  bool interval_failed_ = false;    ///< ... and at least one died

  /// The control policy, built by init_controllers() from the captured
  /// hardware defaults; destroyed and rebuilt on watchdog re-engagement so
  /// stale phase baselines never survive an outage.
  std::unique_ptr<Policy> policy_impl_;

  // -- instruments ----------------------------------------------------------
  // Counter-backed single source of truth for AgentStats/AgentHealth;
  // register_instruments() shares these cells with the registry when a
  // telemetry view is attached.  cap_overshoot_resets has no instrument:
  // it is reserved accounting that nothing increments yet.
  telemetry::SocketTelemetry* telem_;  ///< nullable (telemetry disabled)
  SimTime now_{};                      ///< current interval's clock stamp
  telemetry::Counter intervals_ct_;
  telemetry::Counter uncore_decreases_;
  telemetry::Counter uncore_increases_;
  telemetry::Counter uncore_resets_;
  telemetry::Counter cap_decreases_;
  telemetry::Counter cap_increases_;
  telemetry::Counter cap_resets_;
  telemetry::Counter short_term_tightenings_;
  telemetry::Counter uncore_reset_retries_;
  telemetry::Counter pstate_pins_;
  telemetry::Counter pstate_releases_;
  telemetry::Counter actuation_retries_;
  telemetry::Counter actuation_failures_;
  telemetry::Counter degradations_;
  telemetry::Counter reengage_failures_;
  telemetry::Counter reengagements_;
  telemetry::Counter intervals_degraded_;
  telemetry::Gauge degraded_gauge_;
  telemetry::Histogram pkg_power_hist_;

  std::optional<perfmon::Sample> last_sample_;
};

}  // namespace dufp::core
