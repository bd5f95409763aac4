#include "core/agent.h"

#include <algorithm>

#include "common/expect.h"
#include "core/policy_registry.h"
#include "msr/device.h"

namespace dufp::core {

using powercap::ConstraintId;
using telemetry::ActuationOp;
using telemetry::EventKind;

namespace {
constexpr std::uint16_t op_code(ActuationOp op) {
  return static_cast<std::uint16_t>(op);
}
}  // namespace

Agent::Agent(std::string_view policy_name, const PolicyConfig& policy,
             powercap::PackageZone& zone, powercap::UncoreControl& uncore,
             perfmon::IntervalSampler sampler,
             powercap::PstateControl* pstate,
             telemetry::SocketTelemetry* telem)
    // at() both validates the name and canonicalizes its spelling; the
    // entry's config_defaults land before any expectation reads policy_.
    : policy_name_(PolicyRegistry::instance().at(policy_name).name),
      policy_(
          PolicyRegistry::instance().apply_config_defaults(policy_name,
                                                           policy)),
      zone_(zone),
      uncore_(uncore),
      pstate_(pstate),
      sampler_(std::move(sampler)),
      default_long_w_(zone.power_limit_w(ConstraintId::long_term)),
      default_short_w_(zone.power_limit_w(ConstraintId::short_term)),
      default_long_window_us_(zone.time_window_us(0)),
      default_short_window_us_(zone.time_window_us(1)),
      uncore_max_mhz_(uncore.window_max_mhz()),
      default_uncore_min_mhz_(uncore.window_min_mhz()),
      telem_(telem),
      pkg_power_hist_({20, 40, 60, 80, 100, 120, 140, 160, 200}) {
  DUFP_EXPECT(policy_.max_actuation_attempts >= 1);
  DUFP_EXPECT(policy_.watchdog_failure_threshold >= 1);
  DUFP_EXPECT(policy_.watchdog_backoff_intervals >= 1);
  DUFP_EXPECT(policy_.watchdog_backoff_max_intervals >=
              policy_.watchdog_backoff_intervals);

  DUFP_EXPECT(!policy_.manage_core_frequency || pstate_ != nullptr);
  if (pstate_ != nullptr) {
    // The current request at startup is the performance governor's
    // maximum — remembered as the release target.
    pstate_max_mhz_ = pstate_->requested_mhz();
  }

  init_controllers();
  sampler_.set_telemetry(telem_);
  if (telem_ != nullptr) register_instruments();
}

void Agent::register_instruments() {
  auto& reg = telem_->registry();
  const telemetry::LabelSet labels = {
      {"socket", std::to_string(telem_->socket())},
      {"mode", policy_name_}};
  reg.attach("dufp_agent_intervals_total",
             "Control intervals that produced a decision", labels,
             intervals_ct_);
  reg.attach("dufp_agent_uncore_decreases_total",
             "Uncore window decreases applied", labels, uncore_decreases_);
  reg.attach("dufp_agent_uncore_increases_total",
             "Uncore window increases applied", labels, uncore_increases_);
  reg.attach("dufp_agent_uncore_resets_total",
             "Uncore window resets to the hardware maximum", labels,
             uncore_resets_);
  reg.attach("dufp_agent_cap_decreases_total", "Power-cap decreases applied",
             labels, cap_decreases_);
  reg.attach("dufp_agent_cap_increases_total", "Power-cap increases applied",
             labels, cap_increases_);
  reg.attach("dufp_agent_cap_resets_total",
             "Power caps restored to the hardware defaults", labels,
             cap_resets_);
  reg.attach("dufp_agent_short_term_tightenings_total",
             "Short-term constraint tightened onto the long-term cap", labels,
             short_term_tightenings_);
  reg.attach("dufp_agent_uncore_reset_retries_total",
             "Interaction rule 2 re-pins after a joint reset", labels,
             uncore_reset_retries_);
  reg.attach("dufp_agent_pstate_pins_total", "DUFP-F core frequency requests",
             labels, pstate_pins_);
  reg.attach("dufp_agent_pstate_releases_total",
             "DUFP-F core frequency releases", labels, pstate_releases_);
  reg.attach("dufp_agent_actuation_retries_total",
             "Failed hardware operations that were retried", labels,
             actuation_retries_);
  reg.attach("dufp_agent_actuation_failures_total",
             "Hardware operations dead after all retries", labels,
             actuation_failures_);
  reg.attach("dufp_agent_degradations_total", "Watchdog fail-safe entries",
             labels, degradations_);
  reg.attach("dufp_agent_reengage_failures_total",
             "Re-engagement probes that failed", labels, reengage_failures_);
  reg.attach("dufp_agent_reengagements_total",
             "Successful recoveries from the fail-safe state", labels,
             reengagements_);
  reg.attach("dufp_agent_intervals_degraded_total",
             "Intervals spent in the fail-safe state", labels,
             intervals_degraded_);
  reg.attach("dufp_agent_degraded", "1 while the watchdog holds the fail-safe",
             labels, degraded_gauge_);
  reg.attach("dufp_agent_pkg_power_watts",
             "Package power per accepted sample", labels, pkg_power_hist_);
}

AgentStats Agent::stats() const {
  AgentStats s;
  s.intervals = intervals_ct_.value();
  s.uncore_decreases = uncore_decreases_.value();
  s.uncore_increases = uncore_increases_.value();
  s.uncore_resets = uncore_resets_.value();
  s.cap_decreases = cap_decreases_.value();
  s.cap_increases = cap_increases_.value();
  s.cap_resets = cap_resets_.value();
  s.short_term_tightenings = short_term_tightenings_.value();
  s.uncore_reset_retries = uncore_reset_retries_.value();
  s.pstate_pins = pstate_pins_.value();
  s.pstate_releases = pstate_releases_.value();
  s.health.actuation_retries = actuation_retries_.value();
  s.health.actuation_failures = actuation_failures_.value();
  // Measurement health is the sampler's own; read it at the source
  // instead of mirroring it interval by interval.
  s.health.sample_read_failures = sampler_.health().read_failures;
  s.health.samples_rejected = sampler_.health().samples_rejected;
  s.health.degradations = degradations_.value();
  s.health.reengage_failures = reengage_failures_.value();
  s.health.reengagements = reengagements_.value();
  s.health.intervals_degraded = intervals_degraded_.value();
  return s;
}

void Agent::init_controllers() {
  // Built from the captured hardware defaults, not live reads: this also
  // runs on re-engagement, when the live window is the fail-safe one.
  PolicySetup setup;
  setup.config = policy_;
  setup.uncore.min_mhz = default_uncore_min_mhz_;
  setup.uncore.max_mhz = uncore_max_mhz_;
  setup.caps.default_long_w = default_long_w_;
  setup.caps.default_short_w = default_short_w_;
  setup.caps.min_cap_w = policy_.min_cap_w;
  policy_impl_ = PolicyRegistry::instance().create(policy_name_, setup);
}

template <typename F>
bool Agent::try_op(ActuationOp op, F&& f) {
  interval_attempted_ = true;
  for (int attempt = 0; attempt < policy_.max_actuation_attempts; ++attempt) {
    try {
      f();
      return true;
    } catch (const msr::MsrError&) {
      if (attempt + 1 < policy_.max_actuation_attempts) {
        actuation_retries_.inc();
        rec(EventKind::actuation_retry, op_code(op));
      }
    }
  }
  actuation_failures_.inc();
  rec(EventKind::actuation_failure, op_code(op));
  interval_failed_ = true;
  return false;
}

void Agent::apply_uncore(const DufController::Decision& d) {
  switch (d.action) {
    case UncoreAction::decrease:
      if (try_op(ActuationOp::uncore, [&] { uncore_.pin_mhz(d.target_mhz); })) {
        uncore_decreases_.inc();
        rec(EventKind::actuation, op_code(ActuationOp::uncore), d.target_mhz);
      }
      break;
    case UncoreAction::increase:
      if (try_op(ActuationOp::uncore, [&] { uncore_.pin_mhz(d.target_mhz); })) {
        uncore_increases_.inc();
        rec(EventKind::actuation, op_code(ActuationOp::uncore), d.target_mhz);
      }
      break;
    case UncoreAction::reset:
      if (try_op(ActuationOp::uncore,
                 [&] { uncore_.pin_mhz(uncore_max_mhz_); })) {
        uncore_resets_.inc();
        rec(EventKind::actuation, op_code(ActuationOp::uncore),
            uncore_max_mhz_);
      }
      break;
    case UncoreAction::hold:
    case UncoreAction::none:
      break;
  }
}

bool Agent::restore_default_cap() {
  // Four independent stores; attempt all of them even if one dies, so a
  // partially-broken path still restores as much of the default as it can.
  bool ok = true;
  ok &= try_op(ActuationOp::cap_long, [&] {
    zone_.set_power_limit_w(ConstraintId::long_term, default_long_w_);
  });
  ok &= try_op(ActuationOp::cap_short, [&] {
    zone_.set_power_limit_w(ConstraintId::short_term, default_short_w_);
  });
  ok &= try_op(ActuationOp::time_window,
               [&] { zone_.set_time_window_us(0, default_long_window_us_); });
  ok &= try_op(ActuationOp::time_window,
               [&] { zone_.set_time_window_us(1, default_short_window_us_); });
  return ok;
}

void Agent::apply_cap(const PolicyDecision& d) {
  if (d.tighten_short_term) {
    if (try_op(ActuationOp::cap_short, [&] {
          zone_.set_power_limit_w(ConstraintId::short_term,
                                  zone_.power_limit_w(ConstraintId::long_term));
        })) {
      short_term_tightenings_.inc();
      rec(EventKind::actuation, op_code(ActuationOp::cap_short),
          zone_.power_limit_w(ConstraintId::short_term));
    }
  }

  switch (d.cap_action) {
    case CapAction::decrease:
    case CapAction::increase: {
      const bool ok = try_op(ActuationOp::cap_long,
                             [&] {
                               zone_.set_power_limit_w(ConstraintId::long_term,
                                                       d.cap_long_w);
                             }) &
                      try_op(ActuationOp::cap_short, [&] {
                        zone_.set_power_limit_w(ConstraintId::short_term,
                                                d.cap_short_w);
                      });
      if (ok) {
        (d.cap_action == CapAction::decrease ? cap_decreases_
                                             : cap_increases_)
            .inc();
        rec(EventKind::actuation, op_code(ActuationOp::cap_long), d.cap_long_w,
            d.cap_short_w);
      }
      break;
    }
    case CapAction::reset:
      if (restore_default_cap()) {
        cap_resets_.inc();
        rec(EventKind::actuation, op_code(ActuationOp::cap_long),
            default_long_w_, default_short_w_);
      }
      break;
    case CapAction::hold:
    case CapAction::none:
      break;
  }

  if (d.verify_uncore_reset) {
    // Interaction rule 2: after a joint reset the uncore may not have
    // reached its maximum (the cap's effect can still be visible); check
    // and re-pin once.
    try_op(ActuationOp::uncore, [&] {
      if (uncore_.current_mhz() < uncore_max_mhz_ - 1e-9) {
        uncore_reset_retries_.inc();
        uncore_.pin_mhz(uncore_max_mhz_);
      }
    });
  }

  // Core-frequency management (DUFP-F and any policy whose effective
  // config sets manage_core_frequency).
  if (pstate_ != nullptr) {
    if (d.pstate_release) {
      if (try_op(ActuationOp::pstate,
                 [&] { pstate_->release(pstate_max_mhz_); })) {
        pstate_releases_.inc();
        rec(EventKind::actuation, op_code(ActuationOp::pstate),
            pstate_max_mhz_);
      }
    } else if (d.pstate_request_mhz > 0.0 &&
               d.pstate_request_mhz < pstate_max_mhz_) {
      if (try_op(ActuationOp::pstate,
                 [&] { pstate_->set_mhz(d.pstate_request_mhz); })) {
        pstate_pins_.inc();
        rec(EventKind::actuation, op_code(ActuationOp::pstate),
            d.pstate_request_mhz);
      }
    }
  }
}

void Agent::on_interval(SimTime now) {
  now_ = now;
  // Contract: never lets an exception escape.  A crashed agent would
  // strand the socket at whatever limits were last applied — strictly
  // worse than any degraded-but-safe behaviour.
  try {
    if (degraded_) {
      degraded_interval();
    } else {
      run_interval(now);
    }
  } catch (const std::exception&) {
    try {
      actuation_failures_.inc();
      ++consecutive_failures_;
      if (!degraded_ &&
          consecutive_failures_ >= policy_.watchdog_failure_threshold) {
        enter_degraded();
      }
    } catch (...) {
      // A degraded entry that itself faulted is retried next interval.
    }
  }
  degraded_gauge_.set(degraded_ ? 1.0 : 0.0);
}

void Agent::run_interval(SimTime now) {
  interval_attempted_ = false;
  interval_failed_ = false;

  const auto maybe_sample = sampler_.sample(now);
  if (!maybe_sample.has_value()) return;  // baseline / skipped interval
  const perfmon::Sample& sample = *maybe_sample;
  last_sample_ = sample;
  intervals_ct_.inc();
  pkg_power_hist_.observe(sample.pkg_power_w);

  // One path for every policy: observe, then actuate the intent in a
  // fixed field order (uncore first, then the cap group — identical to
  // the pre-redesign inline dispatch, which the goldens pin).
  const PolicyDecision d = policy_impl_->observe(sample);
  apply_uncore(d.uncore);
  apply_cap(d);

  // Lifecycle hooks fire after actuation, informational only.
  if (d.phase_change) policy_impl_->on_phase_change(sample);
  if (d.blame != ViolationBlame::none) policy_impl_->on_violation(d.blame);

  // Watchdog accounting: only intervals that actually touched hardware
  // move the consecutive-failure counter.  Pure holds leave it alone —
  // otherwise an EPERM outage interleaved with holds would never trip
  // the threshold.
  if (interval_failed_) {
    ++consecutive_failures_;
    if (consecutive_failures_ >= policy_.watchdog_failure_threshold) {
      enter_degraded();
    }
  } else if (interval_attempted_) {
    consecutive_failures_ = 0;
  }
}

void Agent::enter_degraded() {
  degraded_ = true;
  failsafe_applied_ = false;
  consecutive_failures_ = 0;
  degradations_.inc();
  // The policy instance will be rebuilt on re-engagement; tell it the
  // socket is going fail-safe first (last call it receives).
  if (policy_impl_ != nullptr) policy_impl_->on_watchdog_degraded();
  // Fail-open is the flight recorder's trigger: capture the socket's
  // recent history *before* the fail-safe restoration overwrites it.
  if (telem_ != nullptr) telem_->fail_open(now_);
  current_backoff_ = policy_.watchdog_backoff_intervals;
  backoff_remaining_ = current_backoff_;
  apply_failsafe();
}

void Agent::apply_failsafe() {
  // Fail-safe OPEN: give the hardware back to its boot configuration so a
  // dead control path costs power savings, never performance.  Each
  // restoration is attempted independently — partial success still helps.
  bool ok = try_op(ActuationOp::uncore, [&] {
    uncore_.set_window_mhz(default_uncore_min_mhz_, uncore_max_mhz_);
  });
  ok &= restore_default_cap();
  if (pstate_ != nullptr) {
    ok &= try_op(ActuationOp::pstate,
                 [&] { pstate_->release(pstate_max_mhz_); });
  }
  failsafe_applied_ = ok;
}

void Agent::degraded_interval() {
  intervals_degraded_.inc();
  if (!failsafe_applied_) {
    // The safe state never fully reached the hardware; keep trying — this
    // matters more than re-engagement.
    apply_failsafe();
  }
  if (backoff_remaining_ > 0) {
    --backoff_remaining_;
    return;
  }
  // Probe: one representative write through the full actuation path.
  rec(EventKind::reengage_probe, op_code(ActuationOp::probe), current_backoff_);
  const bool probe_ok = try_op(ActuationOp::probe, [&] {
    zone_.set_power_limit_w(ConstraintId::long_term, default_long_w_);
  });
  if (probe_ok && failsafe_applied_) {
    reengage();
  } else {
    reengage_failures_.inc();
    current_backoff_ = std::min(current_backoff_ * 2,
                                policy_.watchdog_backoff_max_intervals);
    backoff_remaining_ = current_backoff_;
  }
}

void Agent::reengage() {
  degraded_ = false;
  consecutive_failures_ = 0;
  current_backoff_ = policy_.watchdog_backoff_intervals;
  reengagements_.inc();
  rec(EventKind::reengaged);
  // Stale policy state (phase baselines, cooldowns, equilibrium
  // estimates) predates the outage; rebuild the policy instance from the
  // captured defaults and re-baseline the sampler before the next
  // decision.
  init_controllers();
  sampler_.reset();
}

}  // namespace dufp::core
