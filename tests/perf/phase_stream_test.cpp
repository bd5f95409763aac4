// Phase-listener enter/exit streams, pinned byte-for-byte against the
// pre-interning engine: the switch from string-keyed to index-keyed
// transitions must not add, drop, or reorder a single event — including
// under a fault storm, where a phase-triggered cap write consumes the
// per-socket fault decision stream in event order.
//
// The listeners here resolve indices back to names through the profile,
// which is exactly the "names live at the edges" contract: the streams
// must still match goldens recorded from the string-keyed engine.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/faulty_msr.h"
#include "golden_util.h"
#include "powercap/zone.h"

namespace dufp::perf_test {
namespace {

std::string run_stream(const harness::RunConfig& base) {
  harness::RunConfig cfg = base;
  std::string stream;
  sim::SimulationOptions sim_opts = cfg.sim;
  sim_opts.seed = cfg.seed;
  sim::Simulation s(cfg.machine, *cfg.profile, sim_opts);
  const auto& profile = *cfg.profile;
  s.add_phase_listener(
      [&](int socket, std::size_t phase_idx, bool entered) {
        stream += strf("%d,%s,%d\n", socket,
                       std::string(profile.phase_name(phase_idx)).c_str(),
                       entered ? 1 : 0);
      });
  s.run();
  return stream;
}

/// The storm variant re-creates the runner's wiring in miniature: each
/// socket's MSR device is wrapped in a FaultyMsrDevice, and the listener
/// itself performs the best-effort phase-cap writes through it — so the
/// event *stream* and the fault-stream consumption are coupled exactly as
/// in the Fig. 1b/1c experiments.
std::string run_storm_stream(const harness::RunConfig& base) {
  harness::RunConfig cfg = base;
  std::string stream;
  sim::SimulationOptions sim_opts = cfg.sim;
  sim_opts.seed = cfg.seed;
  sim::Simulation s(cfg.machine, *cfg.profile, sim_opts);
  const auto& profile = *cfg.profile;
  const std::size_t sweep_idx = profile.phase_index("sweep");
  const int n = s.socket_count();

  std::vector<std::unique_ptr<faults::FaultPlan>> plans;
  std::vector<std::unique_ptr<faults::FaultyMsrDevice>> fdevs;
  std::vector<std::unique_ptr<powercap::PackageZone>> zones;
  for (int i = 0; i < n; ++i) {
    Rng base_rng(cfg.faults.seed);
    Rng per_run = base_rng.fork(cfg.seed);
    plans.push_back(std::make_unique<faults::FaultPlan>(
        cfg.faults, per_run.fork(static_cast<std::uint64_t>(i))));
    fdevs.push_back(std::make_unique<faults::FaultyMsrDevice>(
        s.msr(i), *plans.back()));
    zones.push_back(
        std::make_unique<powercap::PackageZone>(*fdevs.back(), i));
  }

  s.add_phase_listener([&](int socket, std::size_t phase_idx, bool entered) {
    const std::string phase(profile.phase_name(phase_idx));
    stream += strf("%d,%s,%d\n", socket, phase.c_str(), entered ? 1 : 0);
    if (phase_idx != sweep_idx) return;
    auto& z = *zones[static_cast<std::size_t>(socket)];
    try {
      const double cap = entered ? 95.0 : 125.0;
      z.set_power_limit_w(powercap::ConstraintId::long_term, cap);
      z.set_power_limit_w(powercap::ConstraintId::short_term,
                          entered ? cap : 150.0);
    } catch (const msr::MsrError&) {
      stream += strf("%d,%s,write-faulted\n", socket, phase.c_str());
    }
  });
  for (auto& d : fdevs) d->arm();
  s.run();
  return stream;
}

TEST(PhaseStreamTest, StreamMatchesPreInterningGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(run_stream(golden_config(profile)),
                        "phase_stream_reference.txt");
}

TEST(PhaseStreamTest, StormStreamMatchesPreInterningGolden) {
  const auto profile = golden_profile();
  expect_matches_golden(run_storm_stream(golden_storm_config(profile)),
                        "phase_stream_storm.txt");
}

TEST(PhaseStreamTest, EveryEnterHasMatchingExit) {
  const auto profile = golden_profile();
  const std::string stream = run_stream(golden_config(profile));
  int enters = 0;
  int exits = 0;
  std::stringstream ss(stream);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty() && line.back() == '1') ++enters;
    if (!line.empty() && line.back() == '0') ++exits;
  }
  // 4 sockets x 2 cycles x 3 phases, every visit entered and left.
  EXPECT_EQ(enters, 24);
  EXPECT_EQ(exits, 24);
}

}  // namespace
}  // namespace dufp::perf_test
