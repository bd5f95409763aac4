// Simulated time.
//
// The whole substrate is driven by a discrete clock counting integer
// microseconds.  Integer time avoids the accumulation error a double-based
// clock would suffer over a 400-second run at 1 ms resolution, and makes
// event ordering exact.
#pragma once

#include <compare>
#include <cstdint>

#include "common/expect.h"

#include "common/units.h"

namespace dufp {

/// A point in simulated time, measured in microseconds since simulation
/// start.  Value type; totally ordered.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t micros) : micros_(micros) {}

  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime from_seconds(double s) {
    return SimTime{seconds_to_us(s)};
  }
  static constexpr SimTime from_millis(std::int64_t ms) {
    return SimTime{ms * 1000};
  }

  constexpr std::int64_t micros() const { return micros_; }
  constexpr double seconds() const { return us_to_seconds(micros_); }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  constexpr SimTime operator+(SimTime d) const {
    return SimTime{micros_ + d.micros_};
  }
  constexpr SimTime operator-(SimTime d) const {
    return SimTime{micros_ - d.micros_};
  }
  constexpr SimTime& operator+=(SimTime d) {
    micros_ += d.micros_;
    return *this;
  }

 private:
  std::int64_t micros_ = 0;
};

/// Durations reuse SimTime; an alias keeps signatures self-documenting.
using SimDuration = SimTime;

/// A monotonically advancing simulation clock.  The simulation engine owns
/// one instance and advances it; every other component reads it through a
/// const reference, which keeps time flow single-writer by construction.
class SimClock {
 public:
  SimTime now() const { return now_; }

  /// Advance by `step`; returns the new time.  Steps must be positive.
  /// Inline: the engine advances the clock once per simulated tick.
  SimTime advance(SimDuration step) {
    DUFP_EXPECT(step.micros() > 0);
    now_ += step;
    return now_;
  }

 private:
  SimTime now_ = SimTime::zero();
};

}  // namespace dufp
