#include "workloads/workload.h"

#include <gtest/gtest.h>

namespace dufp::workloads {
namespace {

PhaseSpec make_phase(const std::string& name, double seconds) {
  PhaseSpec p;
  p.name = name;
  p.nominal_seconds = seconds;
  p.gflops_ref = 10.0;
  p.oi = 1.0;
  p.w_cpu = 0.5;
  p.w_mem = 0.3;
  p.w_unc = 0.1;
  p.w_fixed = 0.1;
  return p;
}

WorkloadProfile two_phase_profile() {
  WorkloadProfile w("test", "test profile");
  w.add_phase(make_phase("a", 1.0));
  w.add_phase(make_phase("b", 2.0));
  w.then("a").then("b").then("a", 2);
  return w;
}

TEST(WorkloadProfileTest, BuilderSequences) {
  const auto w = two_phase_profile();
  EXPECT_EQ(w.sequence().size(), 4u);
  EXPECT_DOUBLE_EQ(w.nominal_total_seconds(), 1.0 + 2.0 + 1.0 + 1.0);
}

TEST(WorkloadProfileTest, LoopExpands) {
  WorkloadProfile w("loop", "");
  w.add_phase(make_phase("x", 0.5));
  w.add_phase(make_phase("y", 0.5));
  w.loop(3, {"x", "y"});
  EXPECT_EQ(w.sequence().size(), 6u);
  EXPECT_DOUBLE_EQ(w.nominal_total_seconds(), 3.0);
}

TEST(WorkloadProfileTest, DuplicatePhaseNameRejected) {
  WorkloadProfile w("dup", "");
  w.add_phase(make_phase("x", 1.0));
  EXPECT_THROW(w.add_phase(make_phase("x", 2.0)), std::invalid_argument);
}

TEST(WorkloadProfileTest, UnknownPhaseNameRejected) {
  WorkloadProfile w("u", "");
  w.add_phase(make_phase("x", 1.0));
  EXPECT_THROW(w.then("y"), std::invalid_argument);
  EXPECT_THROW(w.loop(2, {"x", "y"}), std::invalid_argument);
  EXPECT_THROW(w.phase_index("z"), std::invalid_argument);
}

TEST(WorkloadProfileTest, ValidationCatchesEmptyProfiles) {
  WorkloadProfile unnamed;
  EXPECT_THROW(unnamed.validate(), std::invalid_argument);

  WorkloadProfile no_sequence("n", "");
  no_sequence.add_phase(make_phase("x", 1.0));
  EXPECT_THROW(no_sequence.validate(), std::invalid_argument);
}

TEST(WorkloadInstanceTest, WalksSequence) {
  const auto w = two_phase_profile();
  WorkloadInstance inst(w, Rng(1), /*jitter_sigma=*/0.0);
  EXPECT_FALSE(inst.finished());
  EXPECT_EQ(inst.current_phase().name, "a");
  inst.advance(1.0);
  EXPECT_EQ(inst.current_phase().name, "b");
  inst.advance(2.0);
  EXPECT_EQ(inst.current_phase().name, "a");
  inst.advance(2.0);
  EXPECT_TRUE(inst.finished());
}

TEST(WorkloadInstanceTest, AdvanceAcrossMultipleEntries) {
  const auto w = two_phase_profile();
  WorkloadInstance inst(w, Rng(1), 0.0);
  inst.advance(4.5);  // into the final 'a'
  EXPECT_FALSE(inst.finished());
  EXPECT_EQ(inst.position(), 3u);
  EXPECT_NEAR(inst.remaining_in_phase(), 0.5, 1e-12);
}

TEST(WorkloadInstanceTest, PartialAdvanceTracksRemaining) {
  const auto w = two_phase_profile();
  WorkloadInstance inst(w, Rng(1), 0.0);
  inst.advance(0.25);
  EXPECT_NEAR(inst.remaining_in_phase(), 0.75, 1e-12);
  EXPECT_NEAR(inst.consumed_total(), 0.25, 1e-12);
}

TEST(WorkloadInstanceTest, FinishedInstanceIsIdle) {
  const auto w = two_phase_profile();
  WorkloadInstance inst(w, Rng(1), 0.0);
  inst.advance(100.0);
  EXPECT_TRUE(inst.finished());
  EXPECT_TRUE(inst.current_demand().idle);
  EXPECT_THROW(inst.current_phase(), std::invalid_argument);
  EXPECT_THROW(inst.remaining_in_phase(), std::invalid_argument);
}

TEST(WorkloadInstanceTest, NegativeAdvanceRejected) {
  const auto w = two_phase_profile();
  WorkloadInstance inst(w, Rng(1), 0.0);
  EXPECT_THROW(inst.advance(-0.1), std::invalid_argument);
}

TEST(WorkloadInstanceTest, ZeroJitterMatchesNominal) {
  const auto w = two_phase_profile();
  WorkloadInstance inst(w, Rng(1), 0.0);
  EXPECT_DOUBLE_EQ(inst.remaining_nominal_seconds(),
                   w.nominal_total_seconds());
}

TEST(WorkloadInstanceTest, JitterPerturbsDurations) {
  const auto w = two_phase_profile();
  WorkloadInstance a(w, Rng(1), 0.02);
  WorkloadInstance b(w, Rng(2), 0.02);
  EXPECT_NE(a.remaining_nominal_seconds(), b.remaining_nominal_seconds());
  // ... but only slightly.
  EXPECT_NEAR(a.remaining_nominal_seconds(), w.nominal_total_seconds(),
              w.nominal_total_seconds() * 0.1);
}

TEST(WorkloadInstanceTest, SameSeedReplaysExactly) {
  const auto w = two_phase_profile();
  WorkloadInstance a(w, Rng(7), 0.02);
  WorkloadInstance b(w, Rng(7), 0.02);
  EXPECT_DOUBLE_EQ(a.remaining_nominal_seconds(),
                   b.remaining_nominal_seconds());
}

TEST(WorkloadInstanceTest, ExtremeJitterSigmaRejected) {
  const auto w = two_phase_profile();
  EXPECT_THROW(WorkloadInstance(w, Rng(1), 0.5), std::invalid_argument);
}

TEST(WorkloadInstanceTest, TotalStepsMatchesSequence) {
  const auto w = two_phase_profile();
  WorkloadInstance inst(w, Rng(1), 0.0);
  EXPECT_EQ(inst.total_steps(), 4u);
}

}  // namespace
}  // namespace dufp::workloads
