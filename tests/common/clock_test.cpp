#include "common/clock.h"

#include <gtest/gtest.h>

namespace dufp {
namespace {

TEST(SimTimeTest, DefaultIsZero) {
  EXPECT_EQ(SimTime{}.micros(), 0);
  EXPECT_EQ(SimTime::zero().micros(), 0);
}

TEST(SimTimeTest, FromSecondsRoundTrips) {
  const SimTime t = SimTime::from_seconds(1.5);
  EXPECT_EQ(t.micros(), 1'500'000);
  EXPECT_DOUBLE_EQ(t.seconds(), 1.5);
}

TEST(SimTimeTest, FromSecondsRoundsToNearestMicro) {
  EXPECT_EQ(SimTime::from_seconds(0.0000014).micros(), 1);
  EXPECT_EQ(SimTime::from_seconds(0.0000016).micros(), 2);
}

TEST(SimTimeTest, FromMillis) {
  EXPECT_EQ(SimTime::from_millis(200).micros(), 200'000);
}

TEST(SimTimeTest, ArithmeticAndOrdering) {
  const SimTime a = SimTime::from_millis(10);
  const SimTime b = SimTime::from_millis(3);
  EXPECT_EQ((a + b).micros(), 13'000);
  EXPECT_EQ((a - b).micros(), 7'000);
  EXPECT_LT(b, a);
  EXPECT_EQ(a, SimTime::from_millis(10));

  SimTime c = a;
  c += b;
  EXPECT_EQ(c.micros(), 13'000);
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), SimTime::zero());
  clock.advance(SimTime::from_millis(1));
  clock.advance(SimTime::from_millis(2));
  EXPECT_EQ(clock.now().micros(), 3'000);
}

TEST(SimClockTest, AdvanceReturnsNewTime) {
  SimClock clock;
  EXPECT_EQ(clock.advance(SimTime::from_millis(5)).micros(), 5'000);
}

TEST(SimClockTest, RejectsNonPositiveStep) {
  SimClock clock;
  EXPECT_THROW(clock.advance(SimTime::zero()), std::invalid_argument);
  EXPECT_THROW(clock.advance(SimTime{-1}), std::invalid_argument);
}

}  // namespace
}  // namespace dufp
