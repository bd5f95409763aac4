#include "common/stats.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dufp {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, ClearResets) {
  RunningStats s;
  s.add(1.0);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(TrimmedSummaryTest, FollowsPaperProtocol) {
  // 10 runs; the lowest and highest key (execution time) are dropped; the
  // paper then averages the remaining 8 (Sec. V).
  std::vector<double> key{10, 1, 5, 6, 7, 2, 3, 9, 8, 4};
  std::vector<double> values = key;  // trim on the values themselves
  const auto s = trimmed_summary(key, values);
  EXPECT_EQ(s.used, 8u);
  EXPECT_DOUBLE_EQ(s.mean, (2 + 3 + 4 + 5 + 6 + 7 + 8 + 9) / 8.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(TrimmedSummaryTest, TrimsByKeyNotValue) {
  // The run with the fastest/slowest *time* is dropped, whatever its power.
  std::vector<double> time{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> power{100.0, 90.0, 80.0, 70.0, 60.0};
  const auto s = trimmed_summary(time, power);
  EXPECT_EQ(s.used, 3u);
  EXPECT_DOUBLE_EQ(s.mean, (90.0 + 80.0 + 70.0) / 3.0);
}

TEST(TrimmedSummaryTest, FewerThanThreeRunsNotTrimmed) {
  const auto one = trimmed_summary({5.0}, {5.0});
  EXPECT_EQ(one.used, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 5.0);

  const auto two = trimmed_summary({5.0, 7.0}, {5.0, 7.0});
  EXPECT_EQ(two.used, 2u);
  EXPECT_DOUBLE_EQ(two.mean, 6.0);
}

TEST(TrimmedSummaryTest, MismatchedSizesThrow) {
  EXPECT_THROW(trimmed_summary({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(TrimmedSummaryTest, EmptyThrows) {
  EXPECT_THROW(trimmed_summary({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace dufp
