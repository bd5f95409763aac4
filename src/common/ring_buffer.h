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
#include <cstring>
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

/// Windowed arithmetic mean over the last `capacity` samples, O(1) update.
///
/// Also tracks the length of the trailing run of bitwise-identical samples
/// so the simulation's event-leaping fast path can detect, in O(1), that
/// adding the same value again is a complete no-op (see steady_under).
class WindowedMean {
 public:
  explicit WindowedMean(std::size_t capacity) : ring_(capacity) {}

  void add(double v) {
    if (ring_.full()) sum_ -= ring_.oldest();
    ring_.push(v);
    sum_ += v;
    if (run_length_ > 0 && bit_equal(v, run_value_)) {
      if (run_length_ < ring_.capacity()) ++run_length_;
    } else {
      run_value_ = v;
      run_length_ = 1;
    }
  }

  double mean() const {
    return ring_.empty() ? 0.0 : sum_ / static_cast<double>(ring_.size());
  }
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  bool full() const { return ring_.full(); }
  /// The running sum mean() divides, and the samples oldest → newest:
  /// with size() and run_length(), the whole observable state (tests
  /// compare windows through them bit for bit).
  double sum() const { return sum_; }
  double from_oldest(std::size_t i) const { return ring_.from_oldest(i); }
  void clear() {
    ring_.clear();
    sum_ = 0.0;
    run_length_ = 0;
    run_value_ = 0.0;
  }

  /// A full window copied into locals for a run of add() calls: the
  /// running sum, the write position and the slot pointer stay in
  /// registers, and commit() writes them back once.  Each add performs
  /// WindowedMean::add's floating-point operations in its order (evict the
  /// oldest, store, add), so after any sequence of adds the sum holds the
  /// bits the same WindowedMean::add calls would leave.
  class Cursor {
   public:
    /// add(v) of the value the cursor holds: cursor(v)'s, or the last one
    /// add(double) passed.
    void add() {
      sum_ -= slots_[head_];
      slots_[head_] = v_;
      sum_ += v_;
      if (++head_ == capacity_) head_ = 0;
      ++adds_;
    }
    /// add(v) of a value that may differ from the one held; later add()s
    /// repeat it.
    void add(double v) {
      if (!bit_equal(v, v_)) {
        v_ = v;
        run_start_ = adds_;
      }
      add();
    }
    /// mean() of the window the adds so far would leave.
    double mean() const { return sum_ / size_; }

   private:
    friend class WindowedMean;
    Cursor(double* slots, std::size_t capacity, std::size_t head, double sum,
           double v)
        : slots_(slots),
          capacity_(capacity),
          head_(head),
          sum_(sum),
          size_(static_cast<double>(capacity)),
          v_(v) {}

    double* slots_;
    std::size_t capacity_;
    std::size_t head_;
    double sum_;
    double size_;  ///< size() of a full window, as mean() divides by it
    double v_;
    std::size_t adds_ = 0;
    /// Adds made before the first of the trailing run of v_ (0 while every
    /// add so far was v_).
    std::size_t run_start_ = 0;
  };

  /// Starts a run of adds on a full window; add() repeats `v`.
  Cursor cursor(double v) {
    DUFP_EXPECT(full());
    return Cursor(ring_.slots(), ring_.capacity(), ring_.head(), sum_, v);
  }

  /// Commits the adds made through `c` since cursor(): afterwards the
  /// window (samples, sum, trailing run) equals the same add() calls.
  /// Only valid while no other add() has touched the window since
  /// cursor().
  void commit(const Cursor& c) {
    const std::size_t k = c.adds_;
    if (k == 0) return;
    ring_.commit_head(c.head_);
    sum_ = c.sum_;
    // The adds end in a run of k - run_start_ bitwise-identical samples.
    // When that run is all of them it extends the window's trailing run
    // if the values match; either way the run is capped at capacity, as
    // single adds would cap it.
    if (c.run_start_ == 0 && run_length_ > 0 && bit_equal(c.v_, run_value_)) {
      run_length_ = std::min(ring_.capacity(), run_length_ + k);
    } else {
      run_value_ = c.v_;
      run_length_ = std::min(ring_.capacity(), k - c.run_start_);
    }
  }

  /// Length of the trailing run of bitwise-identical samples (capped at
  /// capacity).  O(1) pre-gate for steady_under.
  std::size_t run_length() const { return run_length_; }

  /// True when add(v) — repeated any number of times — would leave every
  /// observable of this window (mean, size, sum) bitwise unchanged: the
  /// window is full, every stored sample is bitwise `v` (so each future
  /// add evicts exactly what it inserts), and the running sum is a fixed
  /// point of the evict-then-insert update.
  bool steady_under(double v) const {
    return ring_.full() && run_length_ >= ring_.capacity() &&
           bit_equal(v, run_value_) && (sum_ - v) + v == sum_;
  }

 private:
  /// Bitwise equality: stricter than ==, so +0.0 / -0.0 (whose additive
  /// behaviour differs) never alias and NaN never reports steady.
  static bool bit_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  }

  RingBuffer<double> ring_;
  double sum_ = 0.0;
  double run_value_ = 0.0;       ///< value of the trailing identical run
  std::size_t run_length_ = 0;   ///< capped at capacity()
};

}  // namespace dufp
