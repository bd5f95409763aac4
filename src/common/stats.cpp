#include "common/stats.h"

#include <algorithm>
#include <numeric>

#include "common/expect.h"

namespace dufp {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

TrimmedSummary trimmed_summary(const std::vector<double>& key,
                               const std::vector<double>& values) {
  DUFP_EXPECT(key.size() == values.size());
  DUFP_EXPECT(!values.empty());

  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });

  std::size_t lo = 0;
  std::size_t hi = order.size();
  if (order.size() >= 3) {
    ++lo;   // drop lowest-key run
    --hi;   // drop highest-key run
  }

  TrimmedSummary s;
  s.min = values[order[lo]];
  s.max = values[order[lo]];
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    const double v = values[order[i]];
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.used = hi - lo;
  s.mean = sum / static_cast<double>(s.used);
  return s;
}

}  // namespace dufp
