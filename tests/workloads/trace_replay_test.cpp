#include "workloads/trace_replay.h"

#include <gtest/gtest.h>

namespace dufp::workloads {
namespace {

TEST(TraceReplayTest, EmptyTraceRejected) {
  EXPECT_THROW(profile_from_trace({}), std::invalid_argument);
}

TEST(TraceReplayTest, SimilarSamplesMergeIntoOnePhase) {
  std::vector<TraceSample> t;
  for (int i = 0; i < 10; ++i) {
    t.push_back({0.2, 40.0 + (i % 2), 20.0, 0.9, 0.8});
  }
  const auto w = profile_from_trace(t);
  EXPECT_EQ(w.phases().size(), 1u);
  EXPECT_NEAR(w.nominal_total_seconds(), 2.0, 1e-9);
}

TEST(TraceReplayTest, DistinctBehavioursBecomeDistinctPhases) {
  std::vector<TraceSample> t{
      {1.0, 60.0, 10.0, 1.0, 0.3},  // compute
      {1.0, 5.0, 80.0, 0.7, 1.0},   // memory
      {1.0, 60.0, 10.0, 1.0, 0.3},  // compute again -> same phase kind
  };
  const auto w = profile_from_trace(t);
  EXPECT_EQ(w.phases().size(), 2u);
  EXPECT_EQ(w.sequence().size(), 3u);
  EXPECT_EQ(w.sequence().front(), w.sequence().back());
}

TEST(TraceReplayTest, OiDerivedFromRates) {
  const auto w = profile_from_trace({{1.0, 40.0, 20.0, 0.9, 0.8}});
  EXPECT_NEAR(w.phase(0).oi, 2.0, 1e-9);
}

TEST(TraceReplayTest, MemoryShareFollowsBandwidth) {
  ReplayOptions opt;
  opt.peak_bw_gbps = 96.0;
  const auto heavy = profile_from_trace({{1.0, 8.0, 90.0, 0.8, 1.0}}, opt);
  const auto light = profile_from_trace({{1.0, 60.0, 9.0, 1.0, 0.3}}, opt);
  EXPECT_GT(heavy.phase(0).w_mem, 0.6);
  EXPECT_LT(light.phase(0).w_mem, 0.15);
  EXPECT_GT(light.phase(0).w_cpu, 0.7);
}

TEST(TraceReplayTest, ProducedProfileValidates) {
  std::vector<TraceSample> t;
  for (int i = 0; i < 30; ++i) {
    t.push_back({0.2, i % 3 == 0 ? 60.0 : 8.0,
                 i % 3 == 0 ? 10.0 : 85.0, 0.9, 0.9});
  }
  const auto w = profile_from_trace(t, {}, "replayed");
  EXPECT_NO_THROW(w.validate());
  EXPECT_EQ(w.name(), "replayed");
  // Runnable end to end:
  WorkloadInstance inst(w, Rng(1), 0.0);
  inst.advance(1e9);
  EXPECT_TRUE(inst.finished());
}

}  // namespace
}  // namespace dufp::workloads
