#include "harness/control_plane.h"

#include "common/rng.h"
#include "core/policy_registry.h"

namespace dufp::harness {

ControlPlane::ControlPlane(sim::Simulation& sim,
                           const faults::FaultOptions& faults,
                           std::uint64_t run_seed,
                           telemetry::Telemetry* telemetry)
    : sim_(sim), telemetry_(telemetry), inject_(faults.enabled) {
  for (int i = 0; i < sim.socket_count(); ++i) {
    msr::MsrDevice* dev = &sim.msr(i);
    if (inject_) {
      // Per-socket decision stream: the fault seed owns the stream family,
      // the run seed and socket index select the member, so repetitions
      // and sockets see different storms that are still bit-reproducible.
      Rng base(faults.seed);
      Rng per_run = base.fork(run_seed);
      plans_.push_back(std::make_unique<faults::FaultPlan>(
          faults, per_run.fork(static_cast<std::uint64_t>(i))));
      plans_.back()->set_telemetry(socket_telemetry(i));
      fdevs_.push_back(std::make_unique<faults::FaultyMsrDevice>(
          sim.msr(i), *plans_.back()));
      dev = fdevs_.back().get();  // still disarmed: wiring reads clean
    }
    zones_.push_back(std::make_unique<powercap::PackageZone>(*dev, i));
    uncores_.push_back(std::make_unique<powercap::UncoreControl>(*dev));
    sources_.push_back(
        std::make_unique<perfmon::SimCounterSource>(sim.socket(i), *dev));
    if (inject_) {
      fsrcs_.push_back(std::make_unique<faults::FaultyCounterSource>(
          *sources_.back(), *plans_.back()));
    }
  }
}

void ControlPlane::start(const std::string& policy_name,
                         core::PolicyConfig policy,
                         double sampler_noise_sigma) {
  if (!policy_name.empty()) {
    // Per-policy overrides (e.g. DUFP-F forcing manage_core_frequency)
    // must land before the pstate wiring below reads the flag; the Agent
    // re-applies them, which is idempotent.
    policy = core::PolicyRegistry::instance().apply_config_defaults(
        policy_name, policy);
    for (int i = 0; i < sim_.socket_count(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const perfmon::CounterSource& source =
          inject_ ? static_cast<const perfmon::CounterSource&>(*fsrcs_[idx])
                  : *sources_[idx];
      perfmon::SamplerOptions so;
      so.noise_sigma = sampler_noise_sigma;
      perfmon::IntervalSampler sampler(
          source, sim_.socket(i).config().core_base_mhz,
          sim_.fork_rng(0x2000 + static_cast<std::uint64_t>(i)), so);
      powercap::PstateControl* pstate = nullptr;
      if (policy.manage_core_frequency) {
        pstates_.push_back(std::make_unique<powercap::PstateControl>(
            inject_ ? static_cast<msr::MsrDevice&>(*fdevs_[idx])
                    : sim_.msr(i)));
        pstate = pstates_.back().get();
      }
      agents_.push_back(std::make_unique<core::Agent>(
          policy_name, policy, *zones_[idx], *uncores_[idx],
          std::move(sampler), pstate, socket_telemetry(i)));
      core::Agent* agent = agents_.back().get();
      sim_.schedule_periodic(policy.interval,
                             [agent](SimTime now) { agent->on_interval(now); });
    }
  }

  // Only now arm the injectors: construction-time reads must see clean
  // hardware (defaults captured by the agents are the restore targets),
  // while everything from the first tick on is fair game.
  for (auto& d : fdevs_) d->arm();
  for (auto& f : fsrcs_) f->arm();
}

}  // namespace dufp::harness
