#include "common/ring_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
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

/// Every observable of two windows, sum included.
void expect_same_window(const WindowedMean& a, const WindowedMean& b) {
  EXPECT_EQ(a.sum(), b.sum());
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
  const std::int64_t v = to_quanta(0.1 * 3);
  const std::vector<std::vector<std::int64_t>> histories = {
      {to_quanta(1.5), to_quanta(2.25), to_quanta(7.0), v, v, to_quanta(9.5),
       to_quanta(0.3), v},
      {v, v, v, v, v, v, v, v},
      {v, v, v, v, v, v, v, to_quanta(4.75)}};
  for (const auto& history : histories) {
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{6},
          std::size_t{7}, std::size_t{8}, std::size_t{40}}) {
      WindowedMean bulk(6);
      WindowedMean ref(6);
      for (const std::int64_t h : history) {
        bulk.add_quanta(h);
        ref.add_quanta(h);
      }
      ASSERT_TRUE(bulk.full());
      WindowedMean::Cursor c = bulk.cursor(v);
      for (std::size_t i = 0; i < k; ++i) {
        c.add();
        ref.add_quanta(v);
        ASSERT_EQ(c.sum(), ref.sum()) << k << " " << i;
      }
      bulk.commit(c);
      expect_same_window(bulk, ref);
      EXPECT_LE(bulk.run_length(), bulk.capacity());
      // The ring positions agree too: later single adds evict the same
      // samples from both.
      for (const std::int64_t tail : {to_quanta(2.0), v, to_quanta(11.0), v,
                                      v, v, v, v, v, to_quanta(0.5)}) {
        bulk.add_quanta(tail);
        ref.add_quanta(tail);
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
  const std::int64_t v = to_quanta(0.1 * 3);
  const std::int64_t w = to_quanta(0.7 * 3);
  const std::vector<std::vector<std::int64_t>> histories = {
      {to_quanta(1.5), to_quanta(2.25), to_quanta(7.0), v, v, to_quanta(9.5),
       to_quanta(0.3), v},
      {w, w, w, w, w, w, w, w}};
  const std::vector<std::vector<std::int64_t>> runs = {
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
      for (const std::int64_t h : history) {
        bulk.add_quanta(h);
        ref.add_quanta(h);
      }
      WindowedMean::Cursor c = bulk.cursor(v);
      std::int64_t held = v;
      for (std::size_t i = 0; i < run.size(); ++i) {
        // Alternate the two forms while the value holds: add() repeats
        // it, and add(x) of the held value is no change.
        const std::int64_t x = run[i];
        if (x == held && i % 2 == 0) {
          c.add();
        } else {
          c.add(x);
        }
        held = x;
        ref.add_quanta(x);
        ASSERT_EQ(c.sum(), ref.sum());
      }
      bulk.commit(c);
      expect_same_window(bulk, ref);
      for (const std::int64_t tail :
           {to_quanta(2.0), v, w, w, w, w, w, w, to_quanta(0.5)}) {
        bulk.add_quanta(tail);
        ref.add_quanta(tail);
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

TEST(ToQuantaTest, RoundsToNearestTiesToEven) {
  constexpr double q = 0x1p-30;  // one quantum
  EXPECT_EQ(to_quanta(0.0), 0);
  EXPECT_EQ(to_quanta(q), 1);
  EXPECT_EQ(to_quanta(0.5 * q), 0);
  EXPECT_EQ(to_quanta(1.5 * q), 2);
  EXPECT_EQ(to_quanta(2.5 * q), 2);
  EXPECT_EQ(to_quanta(3.5 * q), 4);
  EXPECT_EQ(to_quanta(0.49999999 * q), 0);
  EXPECT_EQ(to_quanta(0.50000001 * q), 1);
  EXPECT_EQ(to_quanta(125.0), std::int64_t{125} << 30);
  // Near the top of the range, where a quantum is half an ulp of w: the
  // tie just below 2^22 W goes up to the even 2^52.
  EXPECT_EQ(to_quanta(0x1p22 - 0x1p-31), std::int64_t{1} << 52);
  EXPECT_EQ(to_quanta(0x1p22 - 0x1p-30), (std::int64_t{1} << 52) - 1);
  EXPECT_THROW(to_quanta(0x1p22), std::invalid_argument);
  EXPECT_THROW(to_quanta(-q), std::invalid_argument);
  EXPECT_THROW(to_quanta(std::nan("")), std::invalid_argument);
  // Everywhere else it is the libm rounding of w * 2^30.
  std::mt19937_64 gen(7);
  for (int i = 0; i < 100'000; ++i) {
    const double w = std::ldexp(std::uniform_real_distribution<double>(
                                    0.5, 1.0)(gen),
                                static_cast<int>(gen() % 60) - 37);
    ASSERT_EQ(to_quanta(w),
              static_cast<std::int64_t>(std::nearbyint(w * 0x1p30)))
        << w;
  }
}

TEST(WindowedMeanTest, SumPastItsBoundThrows) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  WindowedMean m(4);
  m.add_quanta(kMax / 2);
  m.add_quanta(kMax / 2);
  EXPECT_THROW(m.add_quanta(2), std::invalid_argument);
  EXPECT_THROW(m.add_quanta(-1), std::invalid_argument);
  WindowedMean full(1);
  full.add_quanta(kMax);
  full.add_quanta(kMax);  // evicts first, so the sum stays in range
  EXPECT_EQ(full.sum(), kMax);
}

__extension__ typedef __int128 Wide;

/// A window kept the slow way: every sample, and the sum in 128 bits.
struct WideWindow {
  explicit WideWindow(std::size_t capacity) : slots(capacity) {}
  void add(std::int64_t q) {
    if (size == slots.size()) sum -= slots[head];
    slots[head] = q;
    sum += q;
    head = (head + 1) % slots.size();
    size = std::min(size + 1, slots.size());
    run = size > 1 && q == last ? run + 1 : 1;
    last = q;
  }
  std::vector<std::int64_t> slots;
  std::size_t head = 0;
  std::size_t size = 0;
  Wide sum = 0;
  std::int64_t last = 0;
  std::size_t run = 0;  ///< trailing run of `last`, uncapped
};

/// Long random streams through add_quanta and every cursor form, against
/// the 128-bit reference after each step.  Values sit on a few levels up
/// to 300 W, and a cursor mostly repeats the value it holds, so the small
/// windows turn uniform and the cursor's bulk and range forms run.
TEST(WindowedMeanTest, SumsMatchAWideReference) {
  std::mt19937_64 gen(11);
  std::vector<std::int64_t> levels = {0, to_quanta(300.0)};
  for (int i = 0; i < 6; ++i) {
    levels.push_back(to_quanta(
        std::uniform_real_distribution<double>(0.0, 300.0)(gen)));
  }
  const auto draw = [&] { return levels[gen() % levels.size()]; };
  const auto below = [&](std::uint64_t n) {
    return static_cast<std::int64_t>(gen() % n);
  };
  const std::int64_t spread = to_quanta(300.0);
  for (const std::size_t cap :
       {std::size_t{1}, std::size_t{3}, std::size_t{10}, std::size_t{1000},
        std::size_t{1} << 20}) {
    WindowedMean m(cap);
    WideWindow ref(cap);
    const std::size_t stream = std::max<std::size_t>(3 * cap, 50'000);
    const std::size_t most = std::min<std::size_t>(3 * cap + 2, 5000);
    std::size_t pushed = 0;
    std::size_t bulk = 0;  ///< repeat() calls, each on a uniform window
    while (pushed < stream) {
      if (!m.full() || gen() % 4 == 0) {
        const std::int64_t q = draw();
        m.add_quanta(q);
        ref.add(q);
        ++pushed;
        ASSERT_EQ(m.sum(), static_cast<std::int64_t>(ref.sum)) << cap;
        continue;
      }
      std::int64_t held = draw();
      WindowedMean::Cursor c = m.cursor(held);
      for (int op = 0; op < 300; ++op) {
        const std::uint64_t r = gen() % 16;
        if (r == 0) {
          held = draw();
          c.add(held);
          ref.add(held);
          ++pushed;
        } else if (r <= 8 || (r <= 12 && !c.uniform())) {
          c.add();
          ref.add(held);
          ++pushed;
        } else if (r <= 12) {
          const std::size_t n = gen() % most;
          c.repeat(n);
          ++bulk;
          for (std::size_t i = 0; i < n; ++i) ref.add(held);
          pushed += n;
        } else {
          // A range around the sum, possibly empty, or open at one end as
          // the calm kernel opens it.
          const std::int64_t sum = c.sum();
          std::int64_t lower = sum - 1 - below(2 * spread) + spread;
          std::int64_t upper = sum + below(2 * spread);
          if (r == 14) lower = std::numeric_limits<std::int64_t>::min();
          if (r == 15) upper = std::numeric_limits<std::int64_t>::max();
          const std::size_t n = gen() % most;
          std::size_t want = 0;
          while (want < n && ref.sum > lower && ref.sum <= upper) {
            ref.add(held);
            ++want;
          }
          ASSERT_EQ(c.add_while_in(lower, upper, n), want) << cap;
          pushed += want;
        }
        ASSERT_EQ(c.sum(), static_cast<std::int64_t>(ref.sum)) << cap;
        ASSERT_EQ(c.uniform(), ref.last == held && ref.run >= cap) << cap;
      }
      m.commit(c);
      ASSERT_EQ(m.sum(), static_cast<std::int64_t>(ref.sum)) << cap;
      ASSERT_EQ(m.run_length(), std::min(ref.run, cap)) << cap;
      ASSERT_EQ(m.from_oldest(0), ref.slots[ref.head]) << cap;
      ASSERT_EQ(m.from_oldest(cap - 1), ref.last) << cap;
    }
    if (cap <= 10) {
      EXPECT_GT(bulk, 100u) << cap;
    }
    // The mean is the exact sum's, divided once.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.mean()),
              std::bit_cast<std::uint64_t>(
                  static_cast<double>(static_cast<std::int64_t>(ref.sum)) *
                  0x1p-30 / static_cast<double>(cap)));
  }
}

}  // namespace
}  // namespace dufp
