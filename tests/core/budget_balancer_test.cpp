#include "core/budget_balancer.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "workloads/profiles.h"

namespace dufp::core {
namespace {

/// Two-socket machine: socket 0 runs hot compute (HPL, above-TDP
/// demand), socket 1 the lower-power memory-bound MG — under an equal
/// split the HPL socket is throttled much deeper, which is the signal
/// the balancer reacts to.
struct Rig {
  explicit Rig(double budget_w) {
    hw::MachineConfig machine;
    machine.sockets = 2;
    sim::SimulationOptions opts;
    opts.seed = 33;
    std::vector<const workloads::WorkloadProfile*> apps{
        &workloads::profile(workloads::AppId::hpl),
        &workloads::profile(workloads::AppId::mg)};
    simulation = std::make_unique<sim::Simulation>(machine, apps, opts);
    for (int i = 0; i < 2; ++i) {
      zones.push_back(
          std::make_unique<powercap::PackageZone>(simulation->msr(i)));
    }
    BalancerConfig cfg;
    cfg.machine_budget_w = budget_w;
    balancer = std::make_unique<BudgetBalancer>(
        cfg,
        std::vector<powercap::PackageZone*>{zones[0].get(), zones[1].get()},
        std::vector<const msr::MsrDevice*>{&simulation->msr(0),
                                           &simulation->msr(1)},
        machine.socket.core_max_mhz, machine.socket.core_base_mhz);
    simulation->schedule_periodic(
        SimTime::from_millis(200),
        [this](SimTime) { balancer->on_interval(); });
  }

  std::unique_ptr<sim::Simulation> simulation;
  std::vector<std::unique_ptr<powercap::PackageZone>> zones;
  std::unique_ptr<BudgetBalancer> balancer;
};

TEST(BudgetBalancerTest, StartsWithEqualSplit) {
  Rig rig(200.0);
  EXPECT_DOUBLE_EQ(rig.balancer->allocation_w()[0], 100.0);
  EXPECT_DOUBLE_EQ(rig.balancer->allocation_w()[1], 100.0);
}

TEST(BudgetBalancerTest, ShiftsBudgetTowardThrottledSocket) {
  Rig rig(200.0);  // 100 W each: HPL is starved, MG barely notices
  for (int i = 0; i < 25'000 && rig.simulation->step(); ++i) {
  }
  const auto& alloc = rig.balancer->allocation_w();
  // The compute-hungry socket ends with the bigger share.
  EXPECT_GT(alloc[0], alloc[1] + 2.0);
  // Budget conserved (within the per-socket clamps).
  EXPECT_LE(alloc[0] + alloc[1], 200.0 + 1.0);
  EXPECT_GT(rig.balancer->intervals(), 50u);
}

TEST(BudgetBalancerTest, CapsActuallyProgrammed) {
  Rig rig(200.0);
  for (int i = 0; i < 5'000 && rig.simulation->step(); ++i) {
  }
  for (int s = 0; s < 2; ++s) {
    const double cap = rig.zones[static_cast<std::size_t>(s)]->power_limit_w(
        powercap::ConstraintId::long_term);
    EXPECT_LT(cap, 125.0);
    EXPECT_GE(cap, 65.0);
    EXPECT_NEAR(cap, rig.balancer->allocation_w()[static_cast<std::size_t>(s)],
                1.0);
  }
}

TEST(BudgetBalancerTest, GenerousBudgetLeavesSocketsUnthrottled) {
  Rig rig(250.0);  // 125 W each: the hardware default
  for (int i = 0; i < 10'000 && rig.simulation->step(); ++i) {
  }
  for (double a : rig.balancer->allocation_w()) {
    EXPECT_GT(a, 110.0);
    EXPECT_LE(a, 125.0 + 1e-9);
  }
}

TEST(BudgetBalancerTest, InvalidConfigRejected) {
  hw::MachineConfig machine;
  machine.sockets = 1;
  sim::SimulationOptions opts;
  sim::Simulation s(machine, workloads::profile(workloads::AppId::cg), opts);
  powercap::PackageZone zone(s.msr(0));
  BalancerConfig cfg;
  cfg.machine_budget_w = 30.0;  // below one socket's floor
  EXPECT_THROW(
      BudgetBalancer(cfg, {&zone}, {&s.msr(0)}, 2800.0, 2100.0),
      std::invalid_argument);
}

TEST(AsymmetricSimulationTest, PerSocketProfilesRun) {
  hw::MachineConfig machine;
  machine.sockets = 2;
  sim::SimulationOptions opts;
  opts.seed = 5;
  std::vector<const workloads::WorkloadProfile*> apps{
      &workloads::profile(workloads::AppId::ep),
      &workloads::profile(workloads::AppId::mg)};
  sim::Simulation s(machine, apps, opts);
  EXPECT_EQ(s.workload(0).profile().name(), "EP");
  EXPECT_EQ(s.workload(1).profile().name(), "MG");
  const auto sum = s.run();
  EXPECT_GT(sum.exec_seconds, 25.0);
  EXPECT_GT(sum.total_gflop, 100.0);
}

TEST(AsymmetricSimulationTest, SizeMismatchRejected) {
  hw::MachineConfig machine;
  machine.sockets = 2;
  std::vector<const workloads::WorkloadProfile*> apps{
      &workloads::profile(workloads::AppId::ep)};
  EXPECT_THROW(sim::Simulation(machine, apps, sim::SimulationOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dufp::core
