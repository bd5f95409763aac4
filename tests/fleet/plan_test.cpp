// Phase A of a fleet run: the allocation plan must conserve power at
// every level of the tree in every epoch (no layer ever mints watts),
// keep every node inside its per-socket cap bounds, and be a pure
// function of the spec — the property the sharded determinism guarantee
// rests on.
#include "fleet/plan.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/spec.h"
#include "fleet/traffic.h"

namespace dufp::fleet {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

FleetSpec spec_with(const std::string& allocator,
                    const std::string& traffic = "diurnal") {
  FleetSpec spec = FleetSpec::reference();
  spec.topology = {3, 4, 4};  // 12 nodes, 48 sockets
  spec.epochs = 8;
  spec.allocator = allocator;
  spec.traffic_profile = traffic;
  // 80% of uncapped (48 x 125 = 6000 W): contended but above the floor.
  spec.global_budget_w = 4800.0;
  return spec;
}

TEST(PlanTest, ShapesMatchTheSpec) {
  const FleetSpec spec = spec_with("proportional");
  const AllocationPlan plan = plan_allocations(spec);
  EXPECT_DOUBLE_EQ(plan.budget_w, 4800.0);
  ASSERT_EQ(plan.rack_w.size(), 8u);
  ASSERT_EQ(plan.node_w.size(), 8u);
  ASSERT_EQ(plan.node_demand_w.size(), 8u);
  ASSERT_EQ(plan.node_intensity.size(), 8u);
  for (std::size_t e = 0; e < 8; ++e) {
    EXPECT_EQ(plan.rack_w[e].size(), 3u);
    EXPECT_EQ(plan.node_w[e].size(), 12u);
  }
}

TEST(PlanTest, ConservationHoldsAtEveryLevelAndEpoch) {
  for (const auto& allocator :
       FleetAllocatorRegistry::instance().names()) {
    for (const char* traffic : {"diurnal", "heavy-tail", "flat"}) {
      const FleetSpec spec = spec_with(allocator, traffic);
      const AllocationPlan plan = plan_allocations(spec);
      for (std::size_t e = 0; e < plan.rack_w.size(); ++e) {
        // Cluster level: racks never exceed the global cap.
        EXPECT_LE(sum(plan.rack_w[e]), plan.budget_w + 1e-6)
            << allocator << "/" << traffic << " epoch " << e;
        // Rack level: each rack's nodes never exceed the rack's grant.
        for (int r = 0; r < spec.topology.racks; ++r) {
          double rack_nodes = 0.0;
          for (int slot = 0; slot < spec.topology.nodes_per_rack; ++slot) {
            rack_nodes += plan.node_w[e][spec.topology.node_index(r, slot)];
          }
          EXPECT_LE(rack_nodes, plan.rack_w[e][static_cast<std::size_t>(r)] +
                                    1e-6)
              << allocator << "/" << traffic << " epoch " << e << " rack "
              << r;
        }
      }
    }
  }
}

TEST(PlanTest, NodeAllocationsStayWithinPerSocketCapBounds) {
  // A node's grant divided by its sockets is what the node-level
  // BudgetBalancer hands each socket — it must always fit in
  // [min_cap_w, max_cap_w].
  for (const auto& allocator :
       FleetAllocatorRegistry::instance().names()) {
    const FleetSpec spec = spec_with(allocator, "heavy-tail");
    const double sockets =
        static_cast<double>(spec.topology.sockets_per_node);
    const AllocationPlan plan = plan_allocations(spec);
    for (std::size_t e = 0; e < plan.node_w.size(); ++e) {
      for (const double node_w : plan.node_w[e]) {
        EXPECT_GE(node_w / sockets, spec.min_cap_w - 1e-9) << allocator;
        EXPECT_LE(node_w / sockets, spec.max_cap_w + 1e-9) << allocator;
      }
    }
  }
}

TEST(PlanTest, DemandFollowsTheTrafficModel) {
  const FleetSpec spec = spec_with("static-equal");
  const AllocationPlan plan = plan_allocations(spec);
  const double node_min =
      spec.min_cap_w * static_cast<double>(spec.topology.sockets_per_node);
  const double node_max =
      spec.max_cap_w * static_cast<double>(spec.topology.sockets_per_node);
  TrafficModel traffic({spec.traffic_profile, spec.traffic_seed});
  for (std::size_t e = 0; e < plan.node_demand_w.size(); ++e) {
    for (std::size_t n = 0; n < plan.node_demand_w[e].size(); ++n) {
      const double intensity = traffic.intensity(n, static_cast<int>(e));
      EXPECT_DOUBLE_EQ(plan.node_intensity[e][n], intensity);
      EXPECT_DOUBLE_EQ(plan.node_demand_w[e][n],
                       node_min + intensity * (node_max - node_min));
    }
  }
}

TEST(PlanTest, PureFunctionOfTheSpec) {
  const FleetSpec spec = spec_with("proportional", "heavy-tail");
  const AllocationPlan a = plan_allocations(spec);
  const AllocationPlan b = plan_allocations(spec);
  EXPECT_EQ(a.rack_w, b.rack_w);
  EXPECT_EQ(a.node_w, b.node_w);
  EXPECT_EQ(a.node_demand_w, b.node_demand_w);
  EXPECT_EQ(a.node_intensity, b.node_intensity);
}

TEST(PlanTest, InvalidSpecAggregatesEveryProblem) {
  FleetSpec spec = FleetSpec::reference();
  spec.allocator = "wishful";
  spec.epochs = 0;
  spec.min_cap_w = 200.0;  // above max_cap_w
  try {
    plan_allocations(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("plan_allocations: invalid spec"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unknown allocator \"wishful\""), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("epochs must be >= 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("min_cap_w"), std::string::npos) << msg;
  }
}

// A broken allocator must never silently mint watts: every violation of
// the allocate() contract is a std::logic_error naming the allocator and
// the tree node where it happened.
class MaliciousAllocator final : public FleetAllocator {
 public:
  enum Mode { kWrongSize, kOverBudget, kBelowFloor, kAboveCeiling };
  explicit MaliciousAllocator(Mode mode) : mode_(mode) {}

  std::vector<double> allocate(
      double /*budget_w*/, const std::vector<ChildSignal>& children) override {
    std::vector<double> alloc;
    for (const auto& c : children) alloc.push_back(c.min_w);
    switch (mode_) {
      case kWrongSize:
        alloc.pop_back();
        break;
      case kOverBudget:
        // Every child at its (legal) ceiling: bounds pass, the sum mints
        // watts above the budget.
        for (std::size_t i = 0; i < alloc.size(); ++i) {
          alloc[i] = children[i].max_w;
        }
        break;
      case kBelowFloor:
        alloc[0] = children[0].min_w - 1.0;
        break;
      case kAboveCeiling:
        alloc[0] = children[0].max_w + 1.0;
        break;
    }
    return alloc;
  }

 private:
  Mode mode_;
};

std::string contract_error_of(MaliciousAllocator::Mode mode) {
  MaliciousAllocator alloc(mode);
  const std::vector<ChildSignal> children = {{100, 65, 125, 0},
                                             {100, 65, 125, 0}};
  try {
    checked_allocate(alloc, "malicious", "rack 1", 200.0, children);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return {};
}

TEST(PlanTest, ContractViolationsThrowNamingAllocatorAndTreeNode) {
  for (const auto mode :
       {MaliciousAllocator::kWrongSize, MaliciousAllocator::kOverBudget,
        MaliciousAllocator::kBelowFloor,
        MaliciousAllocator::kAboveCeiling}) {
    const std::string msg = contract_error_of(mode);
    ASSERT_FALSE(msg.empty()) << "mode " << mode << " did not throw";
    EXPECT_NE(msg.find("fleet allocator \"malicious\" violated its contract "
                       "at rack 1"),
              std::string::npos)
        << msg;
  }
  EXPECT_NE(contract_error_of(MaliciousAllocator::kWrongSize)
                .find("returned 1 allocations for 2 children"),
            std::string::npos);
  EXPECT_NE(contract_error_of(MaliciousAllocator::kOverBudget)
                .find("children sum to 250 W, above the 200 W budget"),
            std::string::npos);
  EXPECT_NE(contract_error_of(MaliciousAllocator::kBelowFloor)
                .find("outside its bounds [65, 125]"),
            std::string::npos);
}

TEST(PlanTest, HonestAllocationsPassTheContractCheck) {
  // checked_allocate returns the allocation untouched when it is legal.
  class Honest final : public FleetAllocator {
    std::vector<double> allocate(
        double /*budget_w*/,
        const std::vector<ChildSignal>& children) override {
      std::vector<double> alloc;
      for (const auto& c : children) alloc.push_back(c.min_w);
      return alloc;
    }
  };
  Honest honest;
  const std::vector<ChildSignal> children = {{100, 65, 125, 0},
                                             {100, 65, 125, 0}};
  const auto out =
      checked_allocate(honest, "honest", "cluster", 200.0, children);
  EXPECT_EQ(out, (std::vector<double>{65.0, 65.0}));
}

}  // namespace
}  // namespace dufp::fleet
