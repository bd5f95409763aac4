// Tunables of the DUF / DUFP control policies.  Defaults are the paper's
// values: 200 ms interval (Sec. IV-D), 5 W cap step and 100 MHz uncore
// step (Sec. IV-A), 65 W minimum cap (Sec. IV-A), OI thresholds 0.02 /
// 1 / 100 (Sec. III).
#pragma once

#include "common/clock.h"

namespace dufp::core {

struct PolicyConfig {
  /// User-specified tolerated slowdown (0.0 .. 1.0); the paper evaluates
  /// {0, 0.05, 0.10, 0.20}.
  double tolerated_slowdown = 0.05;

  /// Control / measurement interval.
  SimDuration interval = SimTime::from_millis(200);

  /// Measurement-error band: a FLOPS drop within `epsilon` of the
  /// tolerance boundary counts as "equivalent to the slowdown" and holds
  /// the actuator steady (Sec. III).
  double epsilon = 0.015;

  // -- operational-intensity phase classification (Sec. III) -------------------
  double oi_memory_class = 1.0;   ///< below: memory-intensive phase
  double oi_highly_memory = 0.02; ///< below: cap decreases are free
  double oi_highly_cpu = 100.0;   ///< above: violations reset the cap

  /// A FLOPS/s increase by this factor within a phase is a phase change.
  double flops_double_factor = 2.0;

  /// Bandwidth below this floor is measurement noise on an idle memory
  /// system (EP moves ~0.2 GB/s); relative "drops" of such traffic carry
  /// no information and are ignored by the bandwidth guards.
  double bw_floor_bytes_per_s = 2e9;

  // -- actuator steps and bounds ------------------------------------------------
  double cap_step_w = 5.0;
  double min_cap_w = 65.0;
  double uncore_step_mhz = 100.0;

  /// After backing an actuator off (violation), suppress further decreases
  /// of that actuator for this many intervals — damps the
  /// probe/violate/retreat oscillation around the tolerance boundary.
  /// Uncore steps move performance much further per step (100 MHz can
  /// cost 3-5 % on a bandwidth-bound phase) than 5 W cap steps, so the
  /// uncore re-probes more cautiously.
  int uncore_cooldown_intervals = 10;
  int cap_cooldown_intervals = 4;

  /// Consumed power above the long-term cap by more than this margin
  /// triggers a cap reset (Sec. IV-D: a fresh cap takes time to apply; a
  /// persistent overshoot means the cap is not being honoured).
  double overshoot_margin_w = 3.0;

  /// Interaction rule 1 (Sec. III): an uncore increase that failed to
  /// improve FLOPS by at least this relative amount makes DUFP raise the
  /// power cap instead.
  double improve_epsilon = 0.005;

  /// Violation attribution: an actuator backs off on a violation only if
  /// it moved down within this many intervals (its own probe plausibly
  /// caused the drop) — otherwise the *other* actuator is the limiter and
  /// backing off would sacrifice savings for nothing.  A violation that
  /// persists for `persistent_violation_intervals` consecutive intervals
  /// forces a back-off regardless (covers slow workload drift that never
  /// trips the phase-change detector).
  int attribution_window_intervals = 2;
  int persistent_violation_intervals = 4;

  // -- robustness / watchdog ----------------------------------------------
  /// Hardware-facing operations (MSR writes behind the zone / uncore /
  /// pstate controls) are attempted up to this many times per interval.
  /// Retries are immediate — at a 200 ms control period the interval
  /// itself is the backoff clock for transient EIO.
  int max_actuation_attempts = 3;

  /// Consecutive intervals whose actuation still failed after all retries
  /// before the watchdog gives up and degrades the socket: fail-safe open
  /// (uncore window restored to the hardware default, power limits and
  /// windows back to their boot values, any pinned P-state released), so a
  /// broken MSR path costs power savings, never performance or stability.
  int watchdog_failure_threshold = 3;

  /// Once degraded, wait this many intervals before probing the hardware
  /// again; each failed re-engagement doubles the wait, capped at
  /// `watchdog_backoff_max_intervals` (exponential backoff keeps a dead
  /// MSR path from being hammered 5x per second forever).
  int watchdog_backoff_intervals = 5;
  int watchdog_backoff_max_intervals = 80;

  /// DUFP-F extension (the paper's Sec. VII future work): when the cap is
  /// active and the workload steady, pin the core clock via IA32_PERF_CTL
  /// just above the observed equilibrium instead of letting RAPL's
  /// internal DVFS hunt around it.  Off by default — plain DUFP is the
  /// paper's tool.
  bool manage_core_frequency = false;
  /// Headroom above the observed clock when pinning (one P-state).
  double pstate_headroom_mhz = 100.0;
};

/// Where a measured performance drop sits relative to the tolerance,
/// accounting for the measurement-error band:
///   within   — clearly inside the budget: keep lowering;
///   boundary — "equivalent to the slowdown" (Sec. III): hold steady;
///   beyond   — violated: back off / reset.
/// At small tolerances the bands are floored by epsilon so measurement
/// noise alone can neither trigger back-offs nor block free decreases.
enum class ToleranceZone { within, boundary, beyond };

inline ToleranceZone classify_drop(double drop, double tol, double eps) {
  const double decrease_limit = tol - eps > eps * 0.5 ? tol - eps : eps * 0.5;
  const double violate_limit = tol > eps ? tol : eps;
  if (drop > violate_limit) return ToleranceZone::beyond;
  if (drop > decrease_limit) return ToleranceZone::boundary;
  return ToleranceZone::within;
}

}  // namespace dufp::core
