#include "telemetry/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "common/expect.h"

namespace dufp::telemetry {

std::string_view metric_type_name(MetricType t) {
  switch (t) {
    case MetricType::counter: return "counter";
    case MetricType::gauge: return "gauge";
    case MetricType::histogram: return "histogram";
  }
  return "unknown";
}

Histogram::Histogram(std::vector<double> bounds) {
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    DUFP_EXPECT(bounds[i] > bounds[i - 1]);  // ascending, no duplicates
  }
  cells_ = std::make_shared<Cells>(std::move(bounds));
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(cells_->buckets.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = cells_->buckets[i].load(std::memory_order_relaxed);
  }
  return out;
}

const std::string* MetricsRegistry::intern(std::string_view name) {
  for (const std::string& n : names_) {
    if (n == name) return &n;
  }
  names_.emplace_back(name);
  return &names_.back();
}

void MetricsRegistry::add_entry(Entry e) {
  for (const Entry& existing : entries_) {
    if (*existing.name == *e.name && existing.labels == e.labels) {
      throw std::invalid_argument("MetricsRegistry: duplicate series \"" +
                                  *e.name + "\"");
    }
  }
  entries_.push_back(std::move(e));
}

Gauge MetricsRegistry::gauge(std::string_view name, std::string_view help,
                             LabelSet labels) {
  Gauge g;
  attach(name, help, std::move(labels), g);
  return g;
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::string_view help,
                                     std::vector<double> bounds,
                                     LabelSet labels) {
  Histogram h(std::move(bounds));
  attach(name, help, std::move(labels), h);
  return h;
}

void MetricsRegistry::attach(std::string_view name, std::string_view help,
                             LabelSet labels, const Counter& c) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e{MetricType::counter, intern(name), std::string(help),
          std::move(labels), c, Gauge{}, Histogram{}};
  add_entry(std::move(e));
}

void MetricsRegistry::attach(std::string_view name, std::string_view help,
                             LabelSet labels, const Gauge& g) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e{MetricType::gauge, intern(name), std::string(help),
          std::move(labels), Counter{}, g, Histogram{}};
  add_entry(std::move(e));
}

void MetricsRegistry::attach(std::string_view name, std::string_view help,
                             LabelSet labels, const Histogram& h) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e{MetricType::histogram, intern(name), std::string(help),
          std::move(labels), Counter{}, Gauge{}, h};
  add_entry(std::move(e));
}

std::vector<MetricSample> MetricsRegistry::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricSample s;
    s.type = e.type;
    s.name = *e.name;
    s.help = e.help;
    s.labels = e.labels;
    switch (e.type) {
      case MetricType::counter:
        s.value = static_cast<double>(e.counter.value());
        break;
      case MetricType::gauge:
        s.value = e.gauge.value();
        break;
      case MetricType::histogram:
        s.bucket_bounds = e.histogram.bounds();
        s.bucket_counts = e.histogram.bucket_counts();
        s.sum = e.histogram.sum();
        s.count = e.histogram.count();
        break;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return out;
}

}  // namespace dufp::telemetry
