// Fixed-capacity ring buffer used by the RAPL running-average windows and
// the controllers' short histories.  Header-only; trivially copyable
// payloads expected but not required.
//
// Storage is allocated as samples arrive, not as declared: capacity() is
// the window the caller asked for, and at most kEagerSlots of it are
// allocated up front.  A window a fault decoded to a billion slots then
// costs memory for the samples actually pushed, while every window up to
// kEagerSlots (the RAPL defaults included) never allocates after
// construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/expect.h"

namespace dufp {

template <typename T>
class RingBuffer {
 public:
  /// Slots allocated at construction; covers the 1000-tick default RAPL
  /// long-term window at 1 ms ticks with room to spare.
  static constexpr std::size_t kEagerSlots = 4096;

  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    DUFP_EXPECT(capacity > 0);
    buf_.resize(std::min(capacity, kEagerSlots));
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Append, evicting the oldest element when full.  Returns true if an
  /// element was evicted.
  bool push(const T& v) {
    const bool evicting = full();
    buf_[head_] = v;
    // Wrap with a branch, not a modulo: this runs once per simulated
    // socket-tick per averaging window and the integer division shows up.
    if (++head_ == buf_.size()) {
      if (buf_.size() == capacity_) {
        head_ = 0;
      } else {
        grow();
      }
    }
    if (evicting) {
      tail_ = head_;
    } else {
      ++size_;
    }
    return evicting;
  }

  /// Element `i` positions back from the newest (0 = newest).
  const T& from_newest(std::size_t i) const {
    DUFP_EXPECT(i < size_);
    const std::size_t idx = (head_ + buf_.size() - 1 - i) % buf_.size();
    return buf_[idx];
  }

  /// Element `i` positions forward from the oldest (0 = oldest).
  const T& from_oldest(std::size_t i) const {
    DUFP_EXPECT(i < size_);
    return buf_[(tail_ + i) % buf_.size()];
  }

  // head_ and tail_ are always in [0, allocated slots), so the common
  // accessors index directly instead of going through the modulo
  // arithmetic of the general from_*() forms.
  const T& newest() const {
    DUFP_EXPECT(size_ > 0);
    return buf_[head_ == 0 ? buf_.size() - 1 : head_ - 1];
  }
  const T& oldest() const {
    DUFP_EXPECT(size_ > 0);
    return buf_[tail_];
  }

  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

  /// Bulk form of push() for a full ring, for callers that keep the
  /// write position in a register.  While the ring is full every slot is
  /// allocated, the oldest element sits at head(), and each push()
  /// overwrites slot head() and steps it (wrapping at capacity()).  A
  /// caller that wrote values that way into slots() and stepped its own
  /// copy of head() to `head` then calls commit_head(head), which leaves
  /// the ring exactly as that many push() calls.
  T* slots() { return buf_.data(); }
  std::size_t head() const { return head_; }
  void commit_head(std::size_t head) {
    DUFP_EXPECT(full() && head < capacity_);
    head_ = head;
    tail_ = head;
  }

  /// Visit all elements oldest → newest.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < size_; ++i) f(from_oldest(i));
  }

 private:
  /// Until the first wrap the elements sit in [0, head_), so reaching
  /// the allocated end early means "grow", never "wrap".  Out of line
  /// and cold: push() must stay small enough to inline into
  /// WindowedMean::add on the governor's per-tick paths.
  [[gnu::noinline, gnu::cold]] void grow() {
    const std::size_t grown = std::min(capacity_, 2 * buf_.size());
    buf_.reserve(grown);  // exactly: resize alone may overshoot
    buf_.resize(grown);
  }

  std::vector<T> buf_;     ///< allocated slots, <= capacity_
  std::size_t capacity_;  ///< declared window
  std::size_t head_ = 0;  ///< next write slot
  std::size_t tail_ = 0;  ///< oldest element
  std::size_t size_ = 0;
};

/// `w` in 2^-30 W quanta, the unit the RAPL windows count in, rounded to
/// nearest, ties to even.  Adding and
/// subtracting 2^52 rounds a non-negative double below 2^52 to an integer
/// in the FPU's own rounding mode; std::nearbyint would be a libm call at
/// the default x86-64 target.  Requires 0 <= w < 2^22 W, so the scaled
/// value stays below 2^52.
inline std::int64_t to_quanta(double w) {
  DUFP_EXPECT(w >= 0.0 && w < 0x1p22);
  const double scaled = w * 0x1p30;
  return static_cast<std::int64_t>((scaled + 0x1p52) - 0x1p52);
}

/// The mean, in watts, of `size` samples summing to `sum_q` quanta: an
/// exact scaling, then one rounded division.  While the sum is below 2^53
/// quanta (2^23 W·samples) these are the bits a double running sum over
/// the same samples divides to, since that sum is exact there too.
inline double quanta_mean(std::int64_t sum_q, std::size_t size) {
  return static_cast<double>(sum_q) * 0x1p-30 / static_cast<double>(size);
}

/// Windowed arithmetic mean over the last `capacity` samples, O(1) update.
/// Samples are quanta (to_quanta), so the running sum is an exact integer:
/// it depends only on the samples the window holds, never on the order
/// they arrived in.
///
/// Also tracks the length of the trailing run of identical samples so the
/// simulation's event-leaping fast path can detect, in O(1), that adding
/// the same value again is a complete no-op (see steady_under).
class WindowedMean {
 public:
  explicit WindowedMean(std::size_t capacity) : ring_(capacity) {}

  /// Pushes one sample of `w` watts, held as to_quanta(w).
  void add(double w) { add_quanta(to_quanta(w)); }

  /// Pushes one sample of `q` quanta, evicting the oldest when full.
  ///
  /// The sum cannot overflow on a simulated run: a run pushes at most
  /// max_seconds / tick samples (3.6M at the engine's defaults), and no
  /// sample exceeds the power model's peak package power, a few hundred
  /// watts (149 W over the ten apps' phases), so a sum stays below
  /// 3.6e6 x 2^9 W x 2^30 < 2^61 quanta.  A window longer than its run
  /// never fills and so only ever takes this path, which checks the bound
  /// instead of wrapping.
  void add_quanta(std::int64_t q) {
    if (ring_.full()) sum_ -= ring_.oldest();
    DUFP_EXPECT(q >= 0 &&
                q <= std::numeric_limits<std::int64_t>::max() - sum_);
    ring_.push(q);
    sum_ += q;
    if (run_length_ > 0 && q == run_value_) {
      if (run_length_ < ring_.capacity()) ++run_length_;
    } else {
      run_value_ = q;
      run_length_ = 1;
    }
  }

  double mean() const {
    return ring_.empty() ? 0.0 : quanta_mean(sum_, ring_.size());
  }
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  bool full() const { return ring_.full(); }
  /// The running sum in quanta, and the samples oldest → newest: with
  /// size() and run_length(), the whole observable state (tests compare
  /// windows through them).
  std::int64_t sum() const { return sum_; }
  std::int64_t from_oldest(std::size_t i) const {
    return ring_.from_oldest(i);
  }
  void clear() {
    ring_.clear();
    sum_ = 0;
    run_length_ = 0;
    run_value_ = 0;
  }

  /// A full window copied into locals for a run of add_quanta() calls:
  /// the running sum, the write position and the slot pointer stay in
  /// registers, and commit() writes them back once.  After any sequence
  /// of adds the window holds what the same add_quanta() calls would
  /// leave.
  class Cursor {
   public:
    /// add_quanta(q) of the value the cursor holds: cursor(q)'s, or the
    /// last one add(std::int64_t) passed.
    void add() {
      sum_ += v_ - slots_[head_];
      slots_[head_] = v_;
      if (++head_ == capacity_) head_ = 0;
      ++adds_;
      ++run_;
    }
    /// add_quanta(q) of a value that may differ from the one held; later
    /// add()s repeat it.
    void add(std::int64_t q) {
      if (q != v_) {
        // Before the first add the newest sample is the window's own.
        v_ = q;
        run_ = adds_ == 0 ? window_->run_of(q) : 0;
      }
      add();
    }
    /// sum() of the window the adds so far would leave.
    std::int64_t sum() const { return sum_; }

    /// True when every slot holds the held value: at least capacity adds
    /// of it since it last changed, the window's own trailing run of it
    /// counted.  Each further add then evicts what it inserts, so the sum
    /// stays fixed.
    bool uniform() const { return run_ >= capacity_; }

    /// `n` add()s on a uniform window: only the write position moves.
    void repeat(std::size_t n) {
      DUFP_EXPECT(uniform());
      head_ = (head_ + n % capacity_) % capacity_;
      adds_ += n;
      run_ += n;
    }

    /// add()s while the sum before the add lies in (lower, upper], at most
    /// `n`; returns how many ran.  The slot loop runs to the wrap or the
    /// last add, whichever comes first, so it tests no wrap per add, and
    /// it tests the range as one unsigned compare: a sum s >= 0 lies in it
    /// exactly when s − (lower + 1) < upper − lower, modulo 2^64.
    std::size_t add_while_in(std::int64_t lower, std::int64_t upper,
                             std::size_t n) {
      if (upper <= lower) return 0;
      std::int64_t* const slots = slots_;
      const std::int64_t v = v_;
      const std::uint64_t base = static_cast<std::uint64_t>(lower) + 1;
      const std::uint64_t width =
          static_cast<std::uint64_t>(upper) - static_cast<std::uint64_t>(lower);
      std::uint64_t off = static_cast<std::uint64_t>(sum_) - base;
      std::size_t h = head_;
      std::size_t done = 0;
      while (done < n) {
        const std::size_t end = h + std::min(capacity_ - h, n - done);
        std::size_t i = h;
        for (; i < end && off < width; ++i) {
          off += static_cast<std::uint64_t>(v - slots[i]);
          slots[i] = v;
        }
        done += i - h;
        h = i == capacity_ ? 0 : i;
        if (i < end) break;
      }
      sum_ = static_cast<std::int64_t>(off + base);
      head_ = h;
      adds_ += done;
      run_ += done;
      return done;
    }

   private:
    friend class WindowedMean;
    Cursor(WindowedMean& window, std::int64_t v)
        : slots_(window.ring_.slots()),
          capacity_(window.ring_.capacity()),
          head_(window.ring_.head()),
          sum_(window.sum_),
          v_(v),
          run_(window.run_of(v)),
          window_(&window) {}

    std::int64_t* slots_;
    std::size_t capacity_;
    std::size_t head_;
    std::int64_t sum_;
    std::int64_t v_;
    std::size_t adds_ = 0;
    /// Length of the trailing run of v_ in the window the adds would
    /// leave, uncapped.
    std::size_t run_;
    const WindowedMean* window_;
  };

  /// Starts a run of adds on a full window; add() repeats `q`.
  Cursor cursor(std::int64_t q) {
    DUFP_EXPECT(full());
    return Cursor(*this, q);
  }

  /// Commits the adds made through `c` since cursor(): afterwards the
  /// window (samples, sum, trailing run) equals the same add_quanta()
  /// calls.  Only valid while no other add has touched the window since
  /// cursor().
  void commit(const Cursor& c) {
    if (c.adds_ == 0) return;
    ring_.commit_head(c.head_);
    sum_ = c.sum_;
    run_value_ = c.v_;
    run_length_ = std::min(ring_.capacity(), c.run_);
  }

  /// Length of the trailing run of identical samples (capped at
  /// capacity).  O(1) pre-gate for steady_under.
  std::size_t run_length() const { return run_length_; }

  /// True when add_quanta(q) — repeated any number of times — would leave
  /// every observable of this window (mean, size, sum) unchanged: the
  /// window is full and every stored sample is `q`, so each future add
  /// evicts exactly what it inserts.
  bool steady_under(std::int64_t q) const {
    return ring_.full() && run_length_ >= ring_.capacity() && q == run_value_;
  }

 private:
  /// Length of the trailing run of `q`: 0 unless the newest samples are q.
  std::size_t run_of(std::int64_t q) const {
    return q == run_value_ ? run_length_ : 0;
  }

  RingBuffer<std::int64_t> ring_;
  std::int64_t sum_ = 0;
  std::int64_t run_value_ = 0;  ///< value of the trailing identical run
  std::size_t run_length_ = 0;  ///< capped at capacity()
};

}  // namespace dufp
