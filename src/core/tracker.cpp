#include "core/tracker.h"

#include <algorithm>
#include <cmath>

#include "common/expect.h"

namespace dufp::core {

PhaseTracker::PhaseTracker(const PolicyConfig& policy) : policy_(policy) {
  DUFP_EXPECT(policy.oi_highly_memory < policy.oi_memory_class);
  DUFP_EXPECT(policy.oi_memory_class < policy.oi_highly_cpu);
  DUFP_EXPECT(policy.flops_double_factor > 1.0);
}

PhaseClass PhaseTracker::classify(double oi) const {
  return oi < policy_.oi_memory_class ? PhaseClass::memory : PhaseClass::cpu;
}

PhaseTracker::Update PhaseTracker::update(const perfmon::Sample& sample) {
  Update u;
  // Defense in depth behind the sampler's own validation: a garbage
  // sample (NaN/negative rates) must not poison the phase ratchets or
  // fabricate a phase change.  Report a neutral hold and wait for real
  // data.
  if (!std::isfinite(sample.flops_rate) || sample.flops_rate < 0.0 ||
      !std::isfinite(sample.bytes_rate) || sample.bytes_rate < 0.0 ||
      !std::isfinite(sample.operational_intensity())) {
    u.phase_class = have_phase_ ? phase_class_ : PhaseClass::cpu;
    u.oi = policy_.oi_memory_class;  // neutral: neither highly-memory nor -cpu
    return u;
  }
  u.oi = sample.operational_intensity();
  u.phase_class = classify(u.oi);
  u.highly_memory = u.oi < policy_.oi_highly_memory;
  u.highly_cpu = u.oi > policy_.oi_highly_cpu;

  const bool class_flip = have_phase_ && u.phase_class != phase_class_;
  const bool flops_jump =
      have_phase_ && max_flops_ > 0.0 &&
      sample.flops_rate > policy_.flops_double_factor * max_flops_;

  if (!have_phase_ || class_flip || flops_jump) {
    u.phase_change = have_phase_;  // the very first sample is not a change
    have_phase_ = true;
    phase_class_ = u.phase_class;
    max_flops_ = sample.flops_rate;
    max_bw_ = sample.bytes_rate;
    return u;
  }

  max_flops_ = std::max(max_flops_, sample.flops_rate);
  max_bw_ = std::max(max_bw_, sample.bytes_rate);
  u.flops_drop =
      max_flops_ > 0.0 ? 1.0 - sample.flops_rate / max_flops_ : 0.0;
  // Relative drops of negligible traffic are noise, not a signal.
  u.bw_drop = max_bw_ > policy_.bw_floor_bytes_per_s
                  ? 1.0 - sample.bytes_rate / max_bw_
                  : 0.0;
  u.flops_drop = std::clamp(u.flops_drop, 0.0, 1.0);
  u.bw_drop = std::clamp(u.bw_drop, 0.0, 1.0);
  return u;
}

}  // namespace dufp::core
