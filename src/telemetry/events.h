// The flight-recorder event taxonomy: every structured interval event the
// control plane can emit, as a fixed-size POD stamped with the sim clock.
// Keeping the record trivially copyable (32 bytes) is what lets the
// recorder ring stay allocation-free on the hot path and the dumps stay
// deterministic for a fixed seed.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/clock.h"

namespace dufp::telemetry {

enum class EventKind : std::uint8_t {
  sample_accepted = 0,  ///< a: flops_rate, b: pkg_power_w
  sample_rejected,      ///< validation failed; sampler re-baselines
  sample_read_failure,  ///< counter read threw; interval skipped
  actuation,            ///< code: ActuationOp, a: target value
  actuation_retry,      ///< code: ActuationOp
  actuation_failure,    ///< code: ActuationOp; dead after all retries
  fail_open,            ///< watchdog entered the fail-safe state
  reengage_probe,       ///< a: 1 = probe succeeded, 0 = failed
  reengaged,            ///< socket back under control
  /// Recorded by nothing; it holds its number because shard wire v2
  /// encodes kinds as integers, so fault_injected must stay 10.
  balancer_realloc,
  fault_injected,       ///< code: faults::FaultClass
  count_                ///< sentinel
};

inline constexpr int kEventKindCount = static_cast<int>(EventKind::count_);

std::string_view event_kind_name(EventKind k);

/// Which hardware path an actuation event drove (`code` for the
/// actuation / actuation_retry / actuation_failure kinds).
enum class ActuationOp : std::uint16_t {
  uncore = 0,      ///< uncore window / pin write
  cap_long = 1,    ///< long-term power limit
  cap_short = 2,   ///< short-term power limit
  time_window = 3, ///< RAPL constraint time window
  pstate = 4,      ///< core frequency request / release
  probe = 5,       ///< watchdog re-engagement probe write
};

std::string_view actuation_op_name(ActuationOp op);

/// One structured interval event.  `code` is kind-specific (see EventKind
/// comments); `a` / `b` are kind-specific payloads.
struct Event {
  std::int64_t t_us = 0;  ///< sim-clock stamp (SimTime::micros)
  EventKind kind = EventKind::sample_accepted;
  std::uint16_t socket = 0;
  std::uint16_t code = 0;
  double a = 0.0;
  double b = 0.0;
};

}  // namespace dufp::telemetry
