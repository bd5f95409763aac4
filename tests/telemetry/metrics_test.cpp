// MetricsRegistry semantics: instrument arithmetic, the shared-cell
// attach contract (component handle and registry exposition read the same
// value), duplicate-series rejection and deterministic collection order.
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dufp::telemetry {
namespace {

TEST(CounterTest, StandAloneCountsThroughPrivateCell) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(CounterTest, CopiesShareTheCell) {
  Counter a;
  Counter b = a;
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(42.5);
  EXPECT_DOUBLE_EQ(g.value(), 42.5);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 40.0);
}

TEST(HistogramTest, BucketsAreInclusiveUpperBoundsPlusInf) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // <= 1.0 (inclusive)
  h.observe(1.5);   // <= 2.0
  h.observe(5.0);   // <= 5.0
  h.observe(100.0); // +Inf
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 100.0);
}

TEST(HistogramTest, NoBoundsMeansSingleInfBucket) {
  Histogram h;
  h.observe(3.0);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 1u);
}

TEST(MetricsRegistryTest, CreateAndAttachSharesTheCell) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("dufp_x", "X level.");
  g.set(7.0);
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].type, MetricType::gauge);
  EXPECT_EQ(samples[0].name, "dufp_x");
  EXPECT_DOUBLE_EQ(samples[0].value, 7.0);
}

TEST(MetricsRegistryTest, AttachExistingInstrumentKeepsHistory) {
  // A component counts before telemetry is wired; attaching must expose
  // the already-accumulated value, not reset it.
  Counter c;
  c.inc(3);
  MetricsRegistry reg;
  reg.attach("dufp_pre_total", "Counted before attach.", {}, c);
  c.inc(2);
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].value, 5.0);
  EXPECT_EQ(c.value(), 5u);  // component view reads the same cell
}

TEST(MetricsRegistryTest, DuplicateSeriesThrows) {
  MetricsRegistry reg;
  Counter c;
  reg.attach("dufp_dup_total", "A.", {{"socket", "0"}}, c);
  EXPECT_THROW(reg.attach("dufp_dup_total", "A.", {{"socket", "0"}}, c),
               std::invalid_argument);
  // Same name with different labels is a distinct series.
  EXPECT_NO_THROW(reg.attach("dufp_dup_total", "A.", {{"socket", "1"}}, c));
  EXPECT_EQ(reg.collect().size(), 2u);
}

TEST(MetricsRegistryTest, CollectSortsByNameThenLabels) {
  MetricsRegistry reg;
  Counter c;
  reg.attach("dufp_b_total", "B.", {{"socket", "1"}}, c);
  reg.gauge("dufp_a", "A.");
  reg.attach("dufp_b_total", "B.", {{"socket", "0"}}, c);
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "dufp_a");
  EXPECT_EQ(samples[1].name, "dufp_b_total");
  ASSERT_EQ(samples[1].labels.size(), 1u);
  EXPECT_EQ(samples[1].labels[0].second, "0");
  EXPECT_EQ(samples[2].labels[0].second, "1");
}

TEST(MetricsRegistryTest, HistogramSampleCarriesBucketsSumCount) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("dufp_h", "H.", {10.0, 20.0});
  h.observe(5.0);
  h.observe(15.0);
  h.observe(25.0);
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].type, MetricType::histogram);
  ASSERT_EQ(samples[0].bucket_bounds.size(), 2u);
  ASSERT_EQ(samples[0].bucket_counts.size(), 3u);
  EXPECT_EQ(samples[0].bucket_counts[0], 1u);
  EXPECT_EQ(samples[0].bucket_counts[1], 1u);
  EXPECT_EQ(samples[0].bucket_counts[2], 1u);
  EXPECT_EQ(samples[0].count, 3u);
  EXPECT_DOUBLE_EQ(samples[0].sum, 45.0);
}

}  // namespace
}  // namespace dufp::telemetry
