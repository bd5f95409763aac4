// Metrics registry: counters, gauges and fixed-bucket histograms cheap
// enough for the agent hot path.
//
// Instruments are handles over shared atomic cells.  Updates are plain
// relaxed atomics — no locks, no allocation, no formatting — so a counter
// increment costs one fetch_add whether or not a registry is attached.
// Names and labels are interned once, at registration; the hot path never
// touches a string.
//
// The null-sink default: an instrument constructed stand-alone (the
// default constructor) owns a private cell.  It counts — components read
// their own health through it — but no exporter ever sees it.  Attaching
// the same instrument to a MetricsRegistry is what makes it observable;
// the cell is shared, so registry exposition and component-local views
// read the identical value (single source of truth).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dufp::telemetry {

/// Label key/value pairs, in registration order.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { counter, gauge, histogram };

std::string_view metric_type_name(MetricType t);

/// Monotonic counter.  Default-constructed counters own a private cell
/// (null sink); registry-attached counters share their cell with the
/// exposition path.
class Counter {
 public:
  Counter() : cell_(std::make_shared<std::atomic<std::uint64_t>>(0)) {}

  void inc(std::uint64_t n = 1) {
    cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::shared_ptr<std::atomic<std::uint64_t>> cell_;
};

/// Last-written-value gauge.
class Gauge {
 public:
  Gauge() : cell_(std::make_shared<std::atomic<double>>(0.0)) {}

  void set(double v) { cell_->store(v, std::memory_order_relaxed); }
  void add(double v) { cell_->fetch_add(v, std::memory_order_relaxed); }
  double value() const { return cell_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::shared_ptr<std::atomic<double>> cell_;
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// one implicit +Inf bucket is appended.  Bucket selection is a linear
/// scan — bound lists are expected to stay small (< 20).
class Histogram {
 public:
  Histogram() : Histogram(std::vector<double>{}) {}
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) {
    Cells& c = *cells_;
    std::size_t i = 0;
    while (i < c.bounds.size() && v > c.bounds[i]) ++i;
    c.buckets[i].fetch_add(1, std::memory_order_relaxed);
    c.sum.fetch_add(v, std::memory_order_relaxed);
    c.count.fetch_add(1, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return cells_->bounds; }
  /// Per-bucket counts (not cumulative), bounds().size() + 1 entries.
  std::vector<std::uint64_t> bucket_counts() const;
  double sum() const { return cells_->sum.load(std::memory_order_relaxed); }
  std::uint64_t count() const {
    return cells_->count.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  struct Cells {
    explicit Cells(std::vector<double> b)
        : bounds(std::move(b)), buckets(bounds.size() + 1) {}
    std::vector<double> bounds;
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> count{0};
  };
  std::shared_ptr<Cells> cells_;
};

/// One exported series, as read at collection time.  Value type — a
/// collected snapshot stays meaningful after the registry is gone.
struct MetricSample {
  MetricType type = MetricType::counter;
  std::string name;
  std::string help;
  LabelSet labels;
  double value = 0.0;  ///< counter (as double) or gauge

  // Histogram only:
  std::vector<double> bucket_bounds;
  std::vector<std::uint64_t> bucket_counts;  ///< per-bucket, not cumulative
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// Owns the export list.  Registration interns the metric name and takes
/// a mutex; instrument updates never do.  One registry per run.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-and-attach convenience constructors.
  Gauge gauge(std::string_view name, std::string_view help,
              LabelSet labels = {});
  Histogram histogram(std::string_view name, std::string_view help,
                      std::vector<double> bounds, LabelSet labels = {});

  /// Attach an existing instrument (the component keeps its handle; the
  /// registry shares the cell).  A duplicate (name, labels) series throws
  /// std::invalid_argument — Prometheus forbids duplicate series and a
  /// silent overwrite would hide the bug.
  void attach(std::string_view name, std::string_view help, LabelSet labels,
              const Counter& c);
  void attach(std::string_view name, std::string_view help, LabelSet labels,
              const Gauge& g);
  void attach(std::string_view name, std::string_view help, LabelSet labels,
              const Histogram& h);

  /// Reads every series.  Sorted by (name, labels) so output is
  /// deterministic regardless of registration order.
  std::vector<MetricSample> collect() const;

 private:
  struct Entry {
    MetricType type;
    const std::string* name;  ///< interned, stable
    std::string help;
    LabelSet labels;
    // Exactly one of these holds the live cell for `type`.
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  const std::string* intern(std::string_view name);
  void add_entry(Entry e);

  mutable std::mutex mu_;
  std::deque<std::string> names_;  ///< interned storage, stable addresses
  std::vector<Entry> entries_;
};

}  // namespace dufp::telemetry
