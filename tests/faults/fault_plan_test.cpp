#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include <vector>

namespace dufp::faults {
namespace {

TEST(FaultPlanTest, ZeroRatePlanNeverFiresAndDrawsNothing) {
  FaultOptions opts;
  opts.enabled = true;  // enabled but all rates zero
  FaultPlan plan(opts, Rng(42));
  for (int i = 0; i < 10000; ++i) {
    for (int c = 0; c < kFaultClassCount; ++c) {
      EXPECT_FALSE(plan.fire(static_cast<FaultClass>(c)));
    }
  }
  EXPECT_EQ(plan.stats().total(), 0u);

  // No RNG draw happened: the plan's stream is still at the start, in
  // lockstep with a fresh Rng of the same seed.  (flip_bit() is the only
  // way to observe the stream without injecting.)
  Rng fresh(42);
  FaultPlan probe(opts, Rng(42));
  for (int i = 0; i < 4; ++i) probe.fire(FaultClass::read_eio);
  EXPECT_EQ(probe.flip_bit(), static_cast<unsigned>(fresh.next_u64() & 63u));
}

TEST(FaultPlanTest, SameSeedSameDecisionSequence) {
  const FaultOptions opts = FaultOptions::storm(0.1, 99);
  FaultPlan a(opts, Rng(99));
  FaultPlan b(opts, Rng(99));
  for (int i = 0; i < 5000; ++i) {
    const auto c = static_cast<FaultClass>(i % kFaultClassCount);
    EXPECT_EQ(a.fire(c), b.fire(c)) << "diverged at op " << i;
  }
  EXPECT_EQ(a.stats().total(), b.stats().total());
  EXPECT_GT(a.stats().total(), 0u);  // a 10% storm over 5000 ops must hit
}

TEST(FaultPlanTest, DifferentSeedsDifferentSequences) {
  const FaultOptions opts = FaultOptions::storm(0.1, 0);
  FaultPlan a(opts, Rng(1));
  FaultPlan b(opts, Rng(2));
  int diverged = 0;
  for (int i = 0; i < 2000; ++i) {
    if (a.fire(FaultClass::read_eio) != b.fire(FaultClass::read_eio)) {
      ++diverged;
    }
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultPlanTest, BurstKeepsFiringWithoutNewDraws) {
  FaultOptions opts;
  opts.enabled = true;
  opts.write_eperm = {1.0, 5};  // always triggers, persists 5 ops
  FaultPlan plan(opts, Rng(7));
  // First op draws and triggers; the next four come from the burst.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(plan.fire(FaultClass::write_eperm)) << i;
  }
  EXPECT_EQ(plan.stats().count(FaultClass::write_eperm), 5u);
}

TEST(FaultPlanTest, BurstEndsAndRearms) {
  FaultOptions hot;
  hot.enabled = true;
  hot.read_eio = {1.0, 3};
  FaultPlan hot_plan(hot, Rng(7));
  EXPECT_TRUE(hot_plan.fire(FaultClass::read_eio));  // trigger, burst = 2
  EXPECT_TRUE(hot_plan.fire(FaultClass::read_eio));
  EXPECT_TRUE(hot_plan.fire(FaultClass::read_eio));
  // Burst exhausted; rate 1.0 immediately re-triggers (fresh draw).
  EXPECT_TRUE(hot_plan.fire(FaultClass::read_eio));
  EXPECT_EQ(hot_plan.stats().count(FaultClass::read_eio), 4u);
}

TEST(FaultPlanTest, BurstIsPerClass) {
  FaultOptions opts;
  opts.enabled = true;
  opts.read_eio = {1.0, 10};
  FaultPlan plan(opts, Rng(3));
  EXPECT_TRUE(plan.fire(FaultClass::read_eio));
  // An active read_eio burst must not leak into other classes.
  EXPECT_FALSE(plan.fire(FaultClass::write_eio));
  EXPECT_FALSE(plan.fire(FaultClass::stale_sample));
}

TEST(FaultPlanTest, StormPresetIsValidAndHot) {
  const auto opts = FaultOptions::storm(0.05, 11);
  EXPECT_TRUE(opts.validate().empty());
  EXPECT_TRUE(opts.enabled);
  EXPECT_TRUE(opts.force_energy_wrap);
  EXPECT_DOUBLE_EQ(opts.read_eio.rate, 0.05);
  EXPECT_GT(opts.write_eperm.burst, 1);
}

TEST(FaultPlanTest, ValidateReportsEveryProblem) {
  FaultOptions opts;
  opts.read_eio = {-0.1, 1};
  opts.write_eio = {1.5, 1};
  opts.bit_flip = {0.1, 0};
  opts.force_energy_wrap = true;
  opts.energy_wrap_lead_j = -2.0;
  const auto problems = opts.validate();
  EXPECT_EQ(problems.size(), 4u);
  auto has = [&](const std::string& needle) {
    for (const auto& p : problems) {
      if (p.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("read_eio.rate"));
  EXPECT_TRUE(has("write_eio.rate"));
  EXPECT_TRUE(has("bit_flip.burst"));
  EXPECT_TRUE(has("energy_wrap_lead_j"));
}

TEST(FaultPlanTest, ConstructorRejectsInvalidOptions) {
  FaultOptions opts;
  opts.read_eio = {2.0, 1};
  EXPECT_THROW(FaultPlan(opts, Rng(0)), std::invalid_argument);
}

TEST(FaultPlanTest, DefaultOptionsAreQuiet) {
  const FaultOptions opts;
  EXPECT_FALSE(opts.enabled);
  EXPECT_TRUE(opts.validate().empty());
}

TEST(FaultPlanTest, FaultClassNamesAreDistinct) {
  std::vector<std::string_view> names;
  for (int i = 0; i < kFaultClassCount; ++i) {
    names.push_back(fault_class_name(static_cast<FaultClass>(i)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_NE(names[i], "unknown");
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

}  // namespace
}  // namespace dufp::faults
