#include "core/tracker.h"

#include <gtest/gtest.h>

#include <limits>
#include <ostream>

namespace dufp::core {
namespace {

perfmon::Sample sample(double gflops, double gbps, double power = 100.0) {
  perfmon::Sample s;
  s.flops_rate = gflops * 1e9;
  s.bytes_rate = gbps * 1e9;
  s.pkg_power_w = power;
  s.interval_s = 0.2;
  return s;
}

TEST(ToleranceZoneTest, BandsAtNormalTolerance) {
  const double tol = 0.10;
  const double eps = 0.015;
  EXPECT_EQ(classify_drop(0.00, tol, eps), ToleranceZone::within);
  EXPECT_EQ(classify_drop(0.08, tol, eps), ToleranceZone::within);
  EXPECT_EQ(classify_drop(0.09, tol, eps), ToleranceZone::boundary);
  EXPECT_EQ(classify_drop(0.10, tol, eps), ToleranceZone::boundary);
  EXPECT_EQ(classify_drop(0.11, tol, eps), ToleranceZone::beyond);
}

TEST(ToleranceZoneTest, ZeroToleranceFlooredByEpsilon) {
  // At 0 % tolerance, sub-noise drops must still allow decreases (EP's
  // uncore would otherwise never move) and only > epsilon drops violate.
  const double eps = 0.015;
  EXPECT_EQ(classify_drop(0.004, 0.0, eps), ToleranceZone::within);
  EXPECT_EQ(classify_drop(0.010, 0.0, eps), ToleranceZone::boundary);
  EXPECT_EQ(classify_drop(0.020, 0.0, eps), ToleranceZone::beyond);
}

class PhaseTrackerTest : public ::testing::Test {
 protected:
  PolicyConfig policy_;
  PhaseTracker tracker_{policy_};
};

TEST_F(PhaseTrackerTest, FirstSampleIsNotAPhaseChange) {
  const auto u = tracker_.update(sample(50, 25));
  EXPECT_FALSE(u.phase_change);
  EXPECT_EQ(u.phase_class, PhaseClass::cpu);  // oi = 2
  EXPECT_DOUBLE_EQ(u.flops_drop, 0.0);
}

TEST_F(PhaseTrackerTest, ClassifiesByOperationalIntensity) {
  EXPECT_EQ(tracker_.update(sample(5, 50)).phase_class,
            PhaseClass::memory);  // oi = 0.1
}

TEST_F(PhaseTrackerTest, HighlyMemoryAndHighlyCpuFlags) {
  auto u = tracker_.update(sample(0.5, 50));  // oi = 0.01
  EXPECT_TRUE(u.highly_memory);
  EXPECT_FALSE(u.highly_cpu);

  PhaseTracker t2(policy_);
  u = t2.update(sample(96, 0.24));  // oi = 400
  EXPECT_TRUE(u.highly_cpu);
  EXPECT_FALSE(u.highly_memory);
}

TEST_F(PhaseTrackerTest, OiClassFlipIsPhaseChange) {
  tracker_.update(sample(5, 50));            // memory
  const auto u = tracker_.update(sample(60, 25));  // oi 2.4: cpu
  EXPECT_TRUE(u.phase_change);
}

TEST_F(PhaseTrackerTest, FlopsDoublingWithinClassIsPhaseChange) {
  tracker_.update(sample(5, 50));                   // memory, oi 0.1
  const auto u = tracker_.update(sample(11, 50));   // oi 0.22: same class
  EXPECT_TRUE(u.phase_change);  // flops jumped 2.2x
}

TEST_F(PhaseTrackerTest, SubDoublingVariationIsNotPhaseChange) {
  tracker_.update(sample(5, 50));
  const auto u = tracker_.update(sample(9, 50));  // 1.8x
  EXPECT_FALSE(u.phase_change);
}

TEST_F(PhaseTrackerTest, PhaseChangeResetsMaxima) {
  tracker_.update(sample(50, 25));
  tracker_.update(sample(60, 25));  // ratchet to 60
  tracker_.update(sample(5, 60));   // phase change to memory
  const auto u = tracker_.update(sample(4, 48));
  EXPECT_NEAR(u.flops_drop, 1.0 - 4.0 / 5.0, 1e-9);
}

TEST_F(PhaseTrackerTest, DropsMeasuredAgainstRatchetedMaxima) {
  tracker_.update(sample(50, 25));
  tracker_.update(sample(55, 30));  // new maxima
  const auto u = tracker_.update(sample(44, 24));
  EXPECT_NEAR(u.flops_drop, 1.0 - 44.0 / 55.0, 1e-9);
  EXPECT_NEAR(u.bw_drop, 1.0 - 24.0 / 30.0, 1e-9);
}

TEST_F(PhaseTrackerTest, CurrentMaximumHasZeroDrop) {
  tracker_.update(sample(50, 25));
  const auto u = tracker_.update(sample(52, 26));
  EXPECT_DOUBLE_EQ(u.flops_drop, 0.0);
  EXPECT_DOUBLE_EQ(u.bw_drop, 0.0);
}

TEST_F(PhaseTrackerTest, NegligibleBandwidthIgnoredByGuard) {
  // EP-style traffic (~0.24 GB/s): relative drops are noise and must not
  // register (bw_floor_bytes_per_s).
  tracker_.update(sample(96, 0.24));
  const auto u = tracker_.update(sample(96, 0.12));  // "50 % drop" of noise
  EXPECT_DOUBLE_EQ(u.bw_drop, 0.0);
}

TEST_F(PhaseTrackerTest, MeaningfulBandwidthTracked) {
  tracker_.update(sample(50, 40));
  const auto u = tracker_.update(sample(50, 20));
  EXPECT_NEAR(u.bw_drop, 0.5, 1e-9);
}

TEST_F(PhaseTrackerTest, GarbageSampleIsNeutralAndDoesNotPoisonRatchets) {
  tracker_.update(sample(50, 25));  // cpu phase, maxima 50/25
  perfmon::Sample bad;
  bad.flops_rate = std::numeric_limits<double>::quiet_NaN();
  bad.bytes_rate = 25e9;
  bad.interval_s = 0.2;
  auto u = tracker_.update(bad);
  EXPECT_FALSE(u.phase_change);
  EXPECT_EQ(u.phase_class, PhaseClass::cpu);  // held, not re-derived
  EXPECT_DOUBLE_EQ(u.flops_drop, 0.0);
  EXPECT_FALSE(u.highly_memory);
  EXPECT_FALSE(u.highly_cpu);

  bad.flops_rate = -5e9;  // negative rates are corruption too
  bad.bytes_rate = 25e9;
  u = tracker_.update(bad);
  EXPECT_FALSE(u.phase_change);

  // The ratchets survived: drops are still measured against 50 GFLOPS.
  const auto good = tracker_.update(sample(40, 25));
  EXPECT_NEAR(good.flops_drop, 1.0 - 40.0 / 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(tracker_.max_flops(), 50e9);
}

TEST_F(PhaseTrackerTest, GarbageFirstSampleDoesNotSeedAPhase) {
  perfmon::Sample bad;
  bad.flops_rate = std::numeric_limits<double>::infinity();
  bad.bytes_rate = 1e9;
  bad.interval_s = 0.2;
  const auto u = tracker_.update(bad);
  EXPECT_FALSE(u.phase_change);
  // The first real sample afterwards behaves like a true first sample.
  const auto first = tracker_.update(sample(50, 25));
  EXPECT_FALSE(first.phase_change);
  EXPECT_DOUBLE_EQ(first.flops_drop, 0.0);
}

TEST_F(PhaseTrackerTest, InvalidThresholdOrderingRejected) {
  PolicyConfig bad;
  bad.oi_highly_memory = 2.0;  // above the class boundary
  EXPECT_THROW(PhaseTracker{bad}, std::invalid_argument);
}

// OI boundary sweep: classification must be exact at the thresholds.
struct OiCase {
  double oi;
  bool memory;
  bool highly_memory;
  bool highly_cpu;
};

// Names each case by its OI.  gtest's default printer dumps the raw
// bytes, padding included, so the test names would differ between runs.
void PrintTo(const OiCase& c, std::ostream* os) { *os << "oi=" << c.oi; }

class TrackerOiSweep : public ::testing::TestWithParam<OiCase> {};

TEST_P(TrackerOiSweep, Classification) {
  PolicyConfig policy;
  PhaseTracker t(policy);
  const auto& c = GetParam();
  const auto u = t.update(sample(c.oi * 50.0, 50.0));
  EXPECT_EQ(u.phase_class == PhaseClass::memory, c.memory) << c.oi;
  EXPECT_EQ(u.highly_memory, c.highly_memory) << c.oi;
  EXPECT_EQ(u.highly_cpu, c.highly_cpu) << c.oi;
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, TrackerOiSweep,
    ::testing::Values(OiCase{0.005, true, true, false},
                      OiCase{0.019, true, true, false},
                      OiCase{0.021, true, false, false},
                      OiCase{0.5, true, false, false},
                      OiCase{0.999, true, false, false},
                      OiCase{1.001, false, false, false},
                      OiCase{50.0, false, false, false},
                      OiCase{99.0, false, false, false},
                      OiCase{101.0, false, false, true},
                      OiCase{400.0, false, false, true}));

}  // namespace
}  // namespace dufp::core
