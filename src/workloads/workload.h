// Workload profiles (static descriptions) and instances (runtime state
// with per-run jitter).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/expect.h"
#include "common/rng.h"
#include "workloads/phase.h"

namespace dufp::workloads {

/// A named application: a phase library plus an execution sequence over
/// it.  Built with the fluent helpers; `validate()` is called by
/// WorkloadInstance so malformed profiles fail loudly at instantiation.
class WorkloadProfile {
 public:
  WorkloadProfile() = default;
  WorkloadProfile(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}

  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }

  /// Registers a phase (name must be unique within the profile).
  WorkloadProfile& add_phase(PhaseSpec spec);

  /// Appends `repeats` executions of the named phase to the sequence.
  WorkloadProfile& then(const std::string& phase_name, int repeats = 1);

  /// Appends `times` repetitions of the given phase-name cycle.
  WorkloadProfile& loop(int times, const std::vector<std::string>& cycle);

  const std::vector<PhaseSpec>& phases() const { return phases_; }
  const std::vector<std::size_t>& sequence() const { return sequence_; }

  std::size_t phase_index(const std::string& phase_name) const;
  const PhaseSpec& phase(std::size_t index) const {
    DUFP_EXPECT(index < phases_.size());
    return phases_[index];
  }

  /// Interned phase name: phase names are unique within a profile (see
  /// add_phase), so a phase *index* is a stable, allocation-free key for a
  /// phase and index equality is name equality.  The view stays valid for
  /// the profile's lifetime; hot-path consumers pass indices around and
  /// resolve to a name only at the edges (logging, CSV, user listeners).
  std::string_view phase_name(std::size_t index) const {
    return phase(index).name;
  }

  /// Total nominal (unjittered) duration of the sequence.
  double nominal_total_seconds() const;

  /// Validates every phase and the sequence; throws on error.
  void validate() const;

 private:
  std::string name_;
  std::string description_;
  std::vector<PhaseSpec> phases_;
  std::vector<std::size_t> sequence_;
};

/// Runtime state of one socket's share of an application run.  Progress
/// is measured in *nominal seconds*: executing for `dt` wall seconds at
/// progress speed `s` consumes `dt * s` nominal seconds.
class WorkloadInstance {
 public:
  /// `jitter_sigma` is the relative 1-sigma variation applied to each
  /// sequence entry's duration (models run-to-run variation: page
  /// placement, OS noise); durations are drawn once at construction so a
  /// given (profile, rng) pair replays identically.
  WorkloadInstance(const WorkloadProfile& profile, Rng jitter_rng,
                   double jitter_sigma = 0.008);

  const WorkloadProfile& profile() const { return profile_; }

  bool finished() const { return position_ >= durations_.size(); }

  // The accessors below run once per socket per simulated tick; they are
  // defined here so the engine's per-tick loop inlines them.

  /// Current phase spec; requires !finished().
  const PhaseSpec& current_phase() const {
    DUFP_EXPECT(!finished());
    return profile_.phase(profile_.sequence()[position_]);
  }
  /// Current phase's demand, the idle demand once finished.  Each phase's
  /// PhaseSpec::demand() is built once, at construction.
  const hw::PhaseDemand& current_demand() const {
    return demands_[finished() ? demands_.size() - 1
                               : profile_.sequence()[position_]];
  }

  /// Index (into profile().phases()) of the current phase; requires
  /// !finished().  The engine's allocation-free transition tracking keys
  /// on this instead of copying phase-name strings.
  std::size_t current_phase_idx() const {
    DUFP_EXPECT(!finished());
    return profile_.sequence()[position_];
  }

  /// Nominal seconds left in the current sequence entry.
  double remaining_in_phase() const {
    return entry_seconds() - consumed_in_current_;
  }

  /// Jittered nominal duration of the current sequence entry; requires
  /// !finished().
  double entry_seconds() const {
    DUFP_EXPECT(!finished());
    return durations_[position_];
  }

  /// Nominal seconds left until the workload finishes: the current
  /// entry's remainder plus every later entry's jittered duration (suffix
  /// sums fixed at construction, so O(1)).  0 once finished.
  double remaining_nominal_seconds() const {
    return finished() ? 0.0
                      : suffix_seconds_[position_] - consumed_in_current_;
  }

  /// Consumes `nominal_seconds` of progress, crossing sequence entries as
  /// needed.  Requires nominal_seconds >= 0.
  void advance(double nominal_seconds);

  /// Progress accumulators advance() maintains, exposed so the engine's
  /// event-leaping fast path can replay the exact per-tick additions
  /// externally (one add per accumulator per tick, same order and values
  /// as advance()) and restore the results.
  double consumed_in_current() const { return consumed_in_current_; }
  double consumed_total() const { return consumed_total_; }

  /// Restores progress advanced externally (see above).  The leap must
  /// stay strictly inside the current sequence entry: requires
  /// !finished(), monotone progress, and consumed_in_current below the
  /// entry's jittered duration.
  void restore_progress(double consumed_in_current, double consumed_total);

  std::size_t position() const { return position_; }
  std::size_t total_steps() const { return durations_.size(); }

 private:
  const WorkloadProfile& profile_;
  /// PhaseSpec::demand() per phase index, then the idle demand.
  std::vector<hw::PhaseDemand> demands_;
  std::vector<double> durations_;  ///< jittered, index-aligned with sequence
  /// suffix_seconds_[i]: sum of durations_[i..]; one trailing 0.
  std::vector<double> suffix_seconds_;
  std::size_t position_ = 0;
  double consumed_in_current_ = 0.0;
  double consumed_total_ = 0.0;
};

}  // namespace dufp::workloads
