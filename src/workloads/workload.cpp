#include "workloads/workload.h"

#include <algorithm>
#include <stdexcept>

#include "common/expect.h"

namespace dufp::workloads {

// ---------------------------------------------------------------------------
// WorkloadProfile
// ---------------------------------------------------------------------------

WorkloadProfile& WorkloadProfile::add_phase(PhaseSpec spec) {
  spec.validate();
  for (const auto& p : phases_) {
    if (p.name == spec.name) {
      throw std::invalid_argument("WorkloadProfile '" + name_ +
                                  "': duplicate phase " + spec.name);
    }
  }
  phases_.push_back(std::move(spec));
  return *this;
}

std::size_t WorkloadProfile::phase_index(const std::string& phase_name) const {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].name == phase_name) return i;
  }
  throw std::invalid_argument("WorkloadProfile '" + name_ +
                              "': unknown phase " + phase_name);
}

WorkloadProfile& WorkloadProfile::then(const std::string& phase_name,
                                       int repeats) {
  DUFP_EXPECT(repeats > 0);
  const std::size_t idx = phase_index(phase_name);
  for (int i = 0; i < repeats; ++i) sequence_.push_back(idx);
  return *this;
}

WorkloadProfile& WorkloadProfile::loop(int times,
                                       const std::vector<std::string>& cycle) {
  DUFP_EXPECT(times > 0);
  DUFP_EXPECT(!cycle.empty());
  std::vector<std::size_t> cycle_idx;
  cycle_idx.reserve(cycle.size());
  for (const auto& n : cycle) cycle_idx.push_back(phase_index(n));
  for (int t = 0; t < times; ++t) {
    sequence_.insert(sequence_.end(), cycle_idx.begin(), cycle_idx.end());
  }
  return *this;
}

double WorkloadProfile::nominal_total_seconds() const {
  double total = 0.0;
  for (std::size_t idx : sequence_) total += phases_[idx].nominal_seconds;
  return total;
}

void WorkloadProfile::validate() const {
  if (name_.empty()) throw std::invalid_argument("WorkloadProfile: no name");
  if (phases_.empty())
    throw std::invalid_argument("WorkloadProfile '" + name_ + "': no phases");
  if (sequence_.empty())
    throw std::invalid_argument("WorkloadProfile '" + name_ +
                                "': empty sequence");
  for (const auto& p : phases_) p.validate();
  for (std::size_t idx : sequence_) {
    if (idx >= phases_.size())
      throw std::invalid_argument("WorkloadProfile '" + name_ +
                                  "': sequence index out of range");
  }
}

// ---------------------------------------------------------------------------
// WorkloadInstance
// ---------------------------------------------------------------------------

WorkloadInstance::WorkloadInstance(const WorkloadProfile& profile,
                                   Rng jitter_rng, double jitter_sigma)
    : profile_(profile) {
  DUFP_EXPECT(jitter_sigma >= 0.0 && jitter_sigma < 0.3);
  profile.validate();
  demands_.reserve(profile.phases().size() + 1);
  for (const PhaseSpec& phase : profile.phases()) {
    demands_.push_back(phase.demand());
  }
  demands_.push_back(hw::PhaseDemand::make_idle());
  durations_.reserve(profile.sequence().size());
  for (std::size_t idx : profile.sequence()) {
    const double base = profile.phase(idx).nominal_seconds;
    // Multiplicative jitter, floored so a deep negative draw cannot
    // produce a degenerate phase.
    const double factor =
        std::max(0.5, 1.0 + jitter_rng.gaussian(0.0, jitter_sigma));
    durations_.push_back(base * factor);
  }
  suffix_seconds_.assign(durations_.size() + 1, 0.0);
  for (std::size_t i = durations_.size(); i-- > 0;) {
    suffix_seconds_[i] = suffix_seconds_[i + 1] + durations_[i];
  }
}

void WorkloadInstance::advance(double nominal_seconds) {
  DUFP_EXPECT(nominal_seconds >= 0.0);
  consumed_total_ += nominal_seconds;
  while (nominal_seconds > 0.0 && !finished()) {
    const double remaining = durations_[position_] - consumed_in_current_;
    if (nominal_seconds < remaining) {
      consumed_in_current_ += nominal_seconds;
      return;
    }
    nominal_seconds -= remaining;
    ++position_;
    consumed_in_current_ = 0.0;
  }
}

void WorkloadInstance::restore_progress(double consumed_in_current,
                                        double consumed_total) {
  DUFP_EXPECT(!finished());
  DUFP_EXPECT(consumed_in_current >= consumed_in_current_);
  DUFP_EXPECT(consumed_total >= consumed_total_);
  DUFP_EXPECT(consumed_in_current < durations_[position_]);
  consumed_in_current_ = consumed_in_current;
  consumed_total_ = consumed_total;
}

}  // namespace dufp::workloads
