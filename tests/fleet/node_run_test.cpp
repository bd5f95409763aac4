// Phase B of a fleet run: one node's simulation under its precomputed
// budget schedule.  The pinned properties: per-epoch records line up
// with the plan, the node's power stays within what its per-socket caps
// allow, and the whole run is a deterministic pure function of
// (spec, node, plan) — bit-exact through the wire codec.
#include "fleet/node_run.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fleet/plan.h"
#include "fleet/spec.h"

namespace dufp::fleet {
namespace {

FleetSpec small_spec() {
  FleetSpec spec = FleetSpec::reference();  // 2 x 2 x 4 sockets, 4 epochs
  spec.epoch_seconds = 0.5;
  spec.global_budget_w = 0.78 * 16 * 125.0;
  return spec;
}

TEST(NodeRunTest, EpochRecordsLineUpWithThePlan) {
  const FleetSpec spec = small_spec();
  const AllocationPlan plan = plan_allocations(spec);
  const FleetNodeResult result = run_fleet_node(spec, 2, plan);

  ASSERT_EQ(result.epochs.size(), 4u);
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const EpochRecord& rec = result.epochs[e];
    EXPECT_DOUBLE_EQ(rec.alloc_w, plan.node_w[e][2]);
    EXPECT_DOUBLE_EQ(rec.demand_w, plan.node_demand_w[e][2]);
    EXPECT_DOUBLE_EQ(rec.intensity, plan.node_intensity[e][2]);
    EXPECT_GT(rec.wall_seconds, 0.0);
    EXPECT_GT(rec.pkg_energy_j, 0.0);
    EXPECT_GE(rec.dram_energy_j, 0.0);
  }
  EXPECT_GT(result.exec_seconds, 0.0);
  EXPECT_GT(result.pkg_energy_j, 0.0);
  EXPECT_GT(result.avg_speed, 0.0);
  EXPECT_LE(result.avg_speed, 1.5);
  EXPECT_DOUBLE_EQ(result.total_energy_j(),
                   result.pkg_energy_j + result.dram_energy_j);
  EXPECT_EQ(result.faults_injected, 0u);
}

TEST(NodeRunTest, NodePowerStaysWithinTheSocketCapCeiling) {
  // The node-level balancer keeps every socket cap in
  // [min_cap_w, max_cap_w]; mean package power per socket in an epoch can
  // therefore never meaningfully exceed the ceiling.
  const FleetSpec spec = small_spec();
  const AllocationPlan plan = plan_allocations(spec);
  for (const std::size_t node : {std::size_t{0}, std::size_t{3}}) {
    const FleetNodeResult result = run_fleet_node(spec, node, plan);
    const double sockets =
        static_cast<double>(spec.topology.sockets_per_node);
    for (const EpochRecord& rec : result.epochs) {
      const double mean_socket_w =
          rec.pkg_energy_j / rec.wall_seconds / sockets;
      EXPECT_LE(mean_socket_w, spec.max_cap_w * 1.05)
          << "node " << node;
      EXPECT_GT(mean_socket_w, 0.0);
    }
  }
}

TEST(NodeRunTest, DeterministicAndBitExactThroughTheCodec) {
  const FleetSpec spec = small_spec();
  const AllocationPlan plan = plan_allocations(spec);
  const FleetNodeResult a = run_fleet_node(spec, 1, plan);
  const FleetNodeResult b = run_fleet_node(spec, 1, plan);
  const std::string a_bytes = encode_node_result(a).dump();
  EXPECT_EQ(a_bytes, encode_node_result(b).dump());
  // decode(encode(x)) re-encodes to the same bytes: doubles travel as
  // IEEE-754 hex, so nothing is lost to decimal formatting.
  EXPECT_EQ(encode_node_result(decode_node_result(encode_node_result(a)))
                .dump(),
            a_bytes);
}

TEST(NodeRunTest, DifferentNodesSeeDifferentSeedsAndTraffic) {
  const FleetSpec spec = small_spec();
  const AllocationPlan plan = plan_allocations(spec);
  const FleetNodeResult a = run_fleet_node(spec, 0, plan);
  const FleetNodeResult b = run_fleet_node(spec, 3, plan);
  EXPECT_NE(encode_node_result(a).dump(), encode_node_result(b).dump());
}

TEST(NodeRunTest, FaultStormIsDeterministicAndCounted) {
  FleetSpec spec = small_spec();
  spec.fault_rate = 0.5;
  spec.fault_seed = 9;
  const AllocationPlan plan = plan_allocations(spec);
  const FleetNodeResult a = run_fleet_node(spec, 0, plan);
  const FleetNodeResult b = run_fleet_node(spec, 0, plan);
  EXPECT_EQ(encode_node_result(a).dump(), encode_node_result(b).dump());
  EXPECT_GT(a.faults_injected, 0u);
}

TEST(NodeRunTest, OutOfRangeNodeThrows) {
  const FleetSpec spec = small_spec();
  const AllocationPlan plan = plan_allocations(spec);
  try {
    run_fleet_node(spec, 4, plan);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what())
                  .find("node 4 out of range (fleet has 4 nodes)"),
              std::string::npos)
        << e.what();
  }
}

TEST(NodeRunTest, InvalidSpecAggregatesProblems) {
  FleetSpec bad = small_spec();
  const AllocationPlan plan = plan_allocations(small_spec());
  bad.epochs = 0;
  bad.policy = "sasquatch";
  try {
    run_fleet_node(bad, 0, plan);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("run_fleet_node: invalid spec"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("epochs must be >= 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown policy \"sasquatch\""), std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace dufp::fleet
