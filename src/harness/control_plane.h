// The per-socket control plane of one simulated machine: the chain from
// the substrate to the controller (optional fault decorators, powercap
// zone, uncore control, counter source) and the agent driving it.  Runs
// (prepare_run) and fleet nodes (fleet::prepare_fleet_node) both wire
// their sockets through it, in three steps:
//
//   1. the constructor builds each socket's chain, injectors disarmed;
//   2. the caller adds its own wiring on zone(i): static and phase caps
//      for a run, the budget balancer and epoch clock for a fleet node;
//   3. start() builds the agents and arms the injectors.
//
// The call order is part of the output bytes: Rng::fork advances its
// parent, and periodic callbacks fire in the order they were registered.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "faults/fault_plan.h"
#include "faults/faulty_counter_source.h"
#include "faults/faulty_msr.h"
#include "perfmon/sim_counter_source.h"
#include "powercap/pstate_control.h"
#include "powercap/uncore_control.h"
#include "powercap/zone.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"

namespace dufp::harness {

class ControlPlane {
 public:
  /// Step 1.  With `faults.enabled`, socket i's FaultPlan is seeded
  /// Rng(faults.seed).fork(run_seed).fork(i).  `telemetry` (nullable)
  /// receives the fault counters and agent instruments; it and `sim`
  /// must outlive the plane.
  ControlPlane(sim::Simulation& sim, const faults::FaultOptions& faults,
               std::uint64_t run_seed, telemetry::Telemetry* telemetry);

  // Callbacks the caller schedules may hold the plane's address.
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Socket i's zone, behind the fault decorator when faults are on.
  powercap::PackageZone& zone(int i) {
    return *zones_[static_cast<std::size_t>(i)];
  }

  /// Steps 2-3, once.  Unless `policy_name` is empty (the uncontrolled
  /// baseline), one Agent per socket runs that registry policy under
  /// `policy` plus its config_defaults, sampling on
  /// sim.fork_rng(0x2000 + i) with `sampler_noise_sigma`, with a
  /// PstateControl when the effective config manages core frequency,
  /// scheduled every policy.interval.  Then arms the injectors.
  void start(const std::string& policy_name, core::PolicyConfig policy,
             double sampler_noise_sigma);

  /// In socket order; empty for the baseline / without faults.
  const std::vector<std::unique_ptr<core::Agent>>& agents() const {
    return agents_;
  }
  const std::vector<std::unique_ptr<faults::FaultPlan>>& fault_plans() const {
    return plans_;
  }

 private:
  telemetry::SocketTelemetry* socket_telemetry(int i) {
    return telemetry_ != nullptr ? &telemetry_->socket(i) : nullptr;
  }

  sim::Simulation& sim_;
  telemetry::Telemetry* telemetry_;
  bool inject_;
  std::vector<std::unique_ptr<faults::FaultPlan>> plans_;
  std::vector<std::unique_ptr<faults::FaultyMsrDevice>> fdevs_;
  std::vector<std::unique_ptr<faults::FaultyCounterSource>> fsrcs_;
  std::vector<std::unique_ptr<powercap::PackageZone>> zones_;
  std::vector<std::unique_ptr<powercap::UncoreControl>> uncores_;
  std::vector<std::unique_ptr<powercap::PstateControl>> pstates_;
  std::vector<std::unique_ptr<perfmon::SimCounterSource>> sources_;
  std::vector<std::unique_ptr<core::Agent>> agents_;
};

}  // namespace dufp::harness
