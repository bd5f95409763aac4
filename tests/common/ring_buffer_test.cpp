#include "common/ring_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace dufp {
namespace {

TEST(RingBufferTest, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBufferTest, ZeroCapacityRejected) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

TEST(RingBufferTest, PushUntilFull) {
  RingBuffer<int> rb(3);
  EXPECT_FALSE(rb.push(1));
  EXPECT_FALSE(rb.push(2));
  EXPECT_FALSE(rb.push(3));
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.oldest(), 1);
  EXPECT_EQ(rb.newest(), 3);
}

TEST(RingBufferTest, EvictsOldestWhenFull) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.push(4));  // evicts 1
  EXPECT_EQ(rb.oldest(), 2);
  EXPECT_EQ(rb.newest(), 4);
  EXPECT_EQ(rb.size(), 3u);
}

TEST(RingBufferTest, FromNewestIndexing) {
  RingBuffer<int> rb(4);
  for (int i = 1; i <= 6; ++i) rb.push(i);  // holds 3,4,5,6
  EXPECT_EQ(rb.from_newest(0), 6);
  EXPECT_EQ(rb.from_newest(1), 5);
  EXPECT_EQ(rb.from_newest(3), 3);
}

TEST(RingBufferTest, FromOldestIndexing) {
  RingBuffer<int> rb(4);
  for (int i = 1; i <= 6; ++i) rb.push(i);
  EXPECT_EQ(rb.from_oldest(0), 3);
  EXPECT_EQ(rb.from_oldest(3), 6);
}

TEST(RingBufferTest, OutOfRangeAccessThrows) {
  RingBuffer<int> rb(4);
  rb.push(1);
  EXPECT_THROW(rb.from_newest(1), std::invalid_argument);
  EXPECT_THROW(rb.from_oldest(1), std::invalid_argument);
}

TEST(RingBufferTest, ForEachVisitsOldestToNewest) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);  // 3,4,5
  std::vector<int> seen;
  rb.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5}));
}

TEST(RingBufferTest, ClearEmpties) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(9);
  EXPECT_EQ(rb.newest(), 9);
  EXPECT_EQ(rb.oldest(), 9);
}

TEST(WindowedMeanTest, PartialWindow) {
  WindowedMean m(4);
  m.add(2.0);
  m.add(4.0);
  EXPECT_DOUBLE_EQ(m.mean(), 3.0);
  EXPECT_FALSE(m.full());
}

TEST(WindowedMeanTest, SlidesWhenFull) {
  WindowedMean m(2);
  m.add(1.0);
  m.add(3.0);
  m.add(5.0);  // window now {3,5}
  EXPECT_DOUBLE_EQ(m.mean(), 4.0);
  EXPECT_TRUE(m.full());
}

TEST(WindowedMeanTest, EmptyMeanIsZero) {
  WindowedMean m(3);
  EXPECT_EQ(m.mean(), 0.0);
}

TEST(WindowedMeanTest, LongStreamStaysExact) {
  // O(1) update must not drift: compare against a direct computation.
  WindowedMean m(10);
  double direct[10] = {};
  for (int i = 0; i < 10'000; ++i) {
    const double v = (i * 37 % 101) * 0.5;
    m.add(v);
    direct[i % 10] = v;
    if (i >= 9) {
      double sum = 0.0;
      for (double d : direct) sum += d;
      ASSERT_NEAR(m.mean(), sum / 10.0, 1e-9);
    }
  }
}

TEST(RingBufferTest, HugeDeclaredCapacityAllocatesAsSamplesArrive) {
  // 2^33 slots would be 64 GiB up front; storage follows the pushes, so
  // this costs what 10^4 samples cost and behaves like a small buffer
  // that never fills.
  RingBuffer<double> huge(std::size_t{1} << 33);
  RingBuffer<double> ref(20'000);
  EXPECT_EQ(huge.capacity(), std::size_t{1} << 33);
  for (int i = 0; i < 10'000; ++i) {
    const double v = i * 0.25;
    EXPECT_EQ(huge.push(v), ref.push(v));
  }
  ASSERT_EQ(huge.size(), ref.size());
  EXPECT_FALSE(huge.full());
  EXPECT_EQ(huge.oldest(), ref.oldest());
  EXPECT_EQ(huge.newest(), ref.newest());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(huge.from_oldest(i), ref.from_oldest(i)) << i;
    ASSERT_EQ(huge.from_newest(i), ref.from_newest(i)) << i;
  }
}

TEST(RingBufferTest, GrowsThenWrapsAtTheDeclaredCapacity) {
  // A capacity past the eager allocation and not a power of two: the
  // buffer grows twice, then evicts exactly like a fixed ring.
  const std::size_t cap = 2 * RingBuffer<int>::kEagerSlots + 3;
  RingBuffer<int> rb(cap);
  std::vector<int> all;
  for (int i = 0; i < 3 * static_cast<int>(cap); ++i) {
    EXPECT_EQ(rb.push(i), all.size() >= cap);
    all.push_back(i);
    ASSERT_EQ(rb.size(), std::min(all.size(), cap));
    ASSERT_EQ(rb.newest(), i);
    ASSERT_EQ(rb.oldest(), all[all.size() - rb.size()]);
  }
  for (std::size_t i = 0; i < cap; ++i) {
    ASSERT_EQ(rb.from_oldest(i), all[all.size() - cap + i]);
  }
  rb.clear();
  rb.push(7);
  EXPECT_EQ(rb.oldest(), 7);
  EXPECT_EQ(rb.newest(), 7);
}

TEST(RingBufferTest, CommitPushesEqualsSinglePushes) {
  // Writing k values at head() (wrapping at capacity) and committing them
  // leaves the ring exactly as k push() calls, k past a full wrap too.
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                              std::size_t{5}, std::size_t{17}}) {
    RingBuffer<int> bulk(5);
    RingBuffer<int> ref(5);
    for (int i = 0; i < 7; ++i) {
      bulk.push(i);
      ref.push(i);
    }
    std::size_t h = bulk.head();
    for (std::size_t i = 0; i < k; ++i) {
      const int v = 100 + static_cast<int>(i);
      bulk.slots()[h] = v;
      if (++h == bulk.capacity()) h = 0;
      ref.push(v);
    }
    bulk.commit_head(h);
    ASSERT_EQ(bulk.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(bulk.from_oldest(i), ref.from_oldest(i)) << k << " " << i;
    }
    bulk.push(-1);
    ref.push(-1);
    EXPECT_EQ(bulk.oldest(), ref.oldest()) << k;
    EXPECT_EQ(bulk.newest(), -1);
  }
}

/// Every observable of two windows, sum bits included.
void expect_same_window(const WindowedMean& a, const WindowedMean& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean()),
            std::bit_cast<std::uint64_t>(b.mean()));
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.full(), b.full());
  EXPECT_EQ(a.run_length(), b.run_length());
}

TEST(WindowedMeanTest, CursorCommitEqualsSingleAdds) {
  // Histories: one value change mid-window (so the run restarts), a
  // window already uniform in v (so the run extends and caps), and one
  // ending in a different value.  k covers 0, short runs, runs reaching
  // capacity and runs past several wraps.
  const double v = 0.1 * 3;  // inexact, so the sum's rounding matters
  const std::vector<std::vector<double>> histories = {
      {1.5, 2.25, 7.0, v, v, 9.5, 0.3, v},
      {v, v, v, v, v, v, v, v},
      {v, v, v, v, v, v, v, 4.75}};
  for (const auto& history : histories) {
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{6},
          std::size_t{7}, std::size_t{8}, std::size_t{40}}) {
      WindowedMean bulk(6);
      WindowedMean ref(6);
      for (const double h : history) {
        bulk.add(h);
        ref.add(h);
      }
      ASSERT_TRUE(bulk.full());
      WindowedMean::Cursor c = bulk.cursor(v);
      for (std::size_t i = 0; i < k; ++i) {
        c.add();
        ref.add(v);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(c.mean()),
                  std::bit_cast<std::uint64_t>(ref.mean()))
            << k << " " << i;
      }
      bulk.commit(c);
      expect_same_window(bulk, ref);
      EXPECT_EQ(bulk.steady_under(v), ref.steady_under(v)) << k;
      EXPECT_LE(bulk.run_length(), bulk.capacity());
      // The ring positions agree too: later single adds evict the same
      // samples from both.
      for (const double tail : {2.0, v, 11.0, v, v, v, v, v, v, 0.5}) {
        bulk.add(tail);
        ref.add(tail);
        expect_same_window(bulk, ref);
      }
    }
  }
}

TEST(WindowedMeanTest, CursorWithVaryingValuesEqualsSingleAdds) {
  // The calm-run kernel's flips change the pushed value mid-run.  The
  // trailing run after commit must be what the same single adds leave:
  // restarted at the last change, extended when the first value of an
  // unbroken run matches the window's own run, capped at capacity.  A
  // value "changed" to its own bits is no change.
  const double v = 0.1 * 3;
  const double w = 0.7 * 3;
  const std::vector<std::vector<double>> histories = {
      {1.5, 2.25, 7.0, v, v, 9.5, 0.3, v}, {w, w, w, w, w, w, w, w}};
  const std::vector<std::vector<double>> runs = {
      {w},
      {w, w, w},
      {v, v, w},
      {w, v, v, v},
      {v, w, w, w, w, w, w, w, w, w},
      {w, v, w, v, w, v, w, v, w, v, w},
      {w, w, w, w, w, w, w, w, w, w, w, w, w, w, v, v},
      {v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, w}};
  for (const auto& history : histories) {
    for (const auto& run : runs) {
      WindowedMean bulk(6);
      WindowedMean ref(6);
      for (const double h : history) {
        bulk.add(h);
        ref.add(h);
      }
      WindowedMean::Cursor c = bulk.cursor(v);
      double held = v;
      for (std::size_t i = 0; i < run.size(); ++i) {
        // Alternate the two forms while the value holds: add() repeats
        // it, and add(x) of the held bits is no change.
        const double x = run[i];
        if (x == held && i % 2 == 0) {
          c.add();
        } else {
          c.add(x);
        }
        held = x;
        ref.add(x);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(c.mean()),
                  std::bit_cast<std::uint64_t>(ref.mean()));
      }
      bulk.commit(c);
      expect_same_window(bulk, ref);
      EXPECT_EQ(bulk.steady_under(run.back()), ref.steady_under(run.back()));
      for (const double tail : {2.0, v, w, w, w, w, w, w, 0.5}) {
        bulk.add(tail);
        ref.add(tail);
        expect_same_window(bulk, ref);
      }
    }
  }
}

TEST(WindowedMeanTest, ClearResets) {
  WindowedMean m(2);
  m.add(10.0);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.mean(), 0.0);
}

}  // namespace
}  // namespace dufp
