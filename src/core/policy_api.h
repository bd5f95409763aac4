// The pluggable policy seam: a controller is an object that observes one
// measurement interval and returns an actuation *intent* (PolicyDecision);
// the per-socket Agent owns the hardware paths (retries, watchdog,
// telemetry) and is the only thing that actuates.  Policies therefore
// never touch a PackageZone or MSR directly, which is what lets the Agent
// give every policy — the paper's controllers and the zoo alike —
// identical robustness machinery for free.
//
// The decision struct is deliberately the superset the legacy controllers
// already produced (DufpController::Decision is an alias of it), so the
// four paper policies port onto this interface with byte-identical
// actuation sequences; tests/perf/golden_policies_test.cpp pins that.
#pragma once

#include <string_view>

#include "core/duf.h"
#include "perfmon/sampler.h"

namespace dufp::core {

enum class CapAction { none, hold, decrease, increase, reset };

struct CapLimits {
  double default_long_w = 125.0;
  double default_short_w = 150.0;
  double min_cap_w = 65.0;
};

/// Which actuator a policy blames for a tolerance violation.  Purely
/// informational: the Agent forwards it to Policy::on_violation and never
/// acts on it, so legacy policies (which leave it `none`) are unaffected.
enum class ViolationBlame { none, uncore, cap, unattributed };

/// One interval's actuation intent.  Everything defaults to "touch
/// nothing": a default-constructed decision is a no-op, and the Agent
/// executes the fields in a fixed order (uncore, short-term tighten, cap,
/// uncore-reset verification, P-state) regardless of which policy
/// produced them.
struct PolicyDecision {
  DufController::Decision uncore;

  CapAction cap_action = CapAction::none;
  /// Valid for decrease / increase: the constraint values to program.
  double cap_long_w = 0.0;
  double cap_short_w = 0.0;
  /// reset: restore hardware defaults (both constraints and windows).
  bool cap_reset = false;
  /// Program short_term := long_term (DUFP step 1).
  bool tighten_short_term = false;
  /// Interaction rule 2: verify the uncore reached max and re-pin it.
  bool verify_uncore_reset = false;

  /// Explicit P-state request in MHz (0 = leave as is), or a release back
  /// to the maximum.  Ignored unless the Agent holds a PstateControl
  /// (policy config manage_core_frequency).
  double pstate_request_mhz = 0.0;
  bool pstate_release = false;

  // -- informational outputs (drive the hook calls below) -------------------
  bool phase_change = false;               ///< a phase boundary was detected
  ViolationBlame blame = ViolationBlame::none;
};

/// Everything a policy factory gets to build an instance: the effective
/// PolicyConfig (per-policy overrides already applied) and the hardware
/// envelope captured by the Agent at construction — uncore window range
/// and the default / minimum power caps to restore and floor against.
struct PolicySetup {
  PolicyConfig config;
  UncoreLimits uncore;
  CapLimits caps;
};

/// A per-socket control policy.  Lifecycle: constructed from a
/// PolicySetup by its registry factory; observe() called once per control
/// interval with the accepted sample; destroyed and rebuilt from the same
/// setup when the Agent's watchdog re-engages after an outage (stale
/// phase baselines must not survive a degradation).
class Policy {
 public:
  virtual ~Policy() = default;

  /// Canonical registry name ("DUF", "cuttlefish", ...); stable across
  /// the process, used for telemetry labels, CSV rows and wire formats.
  virtual std::string_view name() const = 0;

  /// One control interval: digest the sample, return the actuation
  /// intent.  Must not throw and must not touch hardware.
  virtual PolicyDecision observe(const perfmon::Sample& sample) = 0;

  // -- hooks -----------------------------------------------------------------
  // Called by the Agent *after* actuating a decision, in this order.
  // Defaults are no-ops so simple policies ignore the lifecycle entirely.

  /// The decision it just returned had phase_change set.
  virtual void on_phase_change(const perfmon::Sample& /*sample*/) {}

  /// The decision it just returned blamed an actuator for a violation.
  virtual void on_violation(ViolationBlame /*blame*/) {}

  /// The watchdog is about to degrade the socket to the fail-safe state;
  /// after re-engagement the policy is rebuilt from scratch, so this is
  /// the last call this instance receives.
  virtual void on_watchdog_degraded() {}
};

}  // namespace dufp::core
