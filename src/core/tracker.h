// Phase tracking shared by the uncore and power-cap decision paths:
// classifies the current phase from operational intensity, detects phase
// changes (OI class flips and intra-phase FLOPS doubling), and maintains
// the per-phase FLOPS / bandwidth maxima the tolerance checks compare
// against.
#pragma once

#include "core/policy.h"
#include "perfmon/sampler.h"

namespace dufp::core {

enum class PhaseClass { memory, cpu };

class PhaseTracker {
 public:
  explicit PhaseTracker(const PolicyConfig& policy);

  struct Update {
    bool phase_change = false;
    PhaseClass phase_class = PhaseClass::memory;
    double oi = 0.0;

    /// Relative drops vs the ratcheted per-phase maxima, in [0, 1].
    /// 0 when the current sample *is* the maximum.
    double flops_drop = 0.0;
    double bw_drop = 0.0;

    bool highly_memory = false;  ///< oi < oi_highly_memory
    bool highly_cpu = false;     ///< oi > oi_highly_cpu
  };

  /// Feeds one measurement interval.
  Update update(const perfmon::Sample& sample);

  double max_flops() const { return max_flops_; }
  double max_bw() const { return max_bw_; }

 private:
  PhaseClass classify(double oi) const;

  PolicyConfig policy_;
  bool have_phase_ = false;
  PhaseClass phase_class_ = PhaseClass::memory;
  double max_flops_ = 0.0;
  double max_bw_ = 0.0;
};

}  // namespace dufp::core
