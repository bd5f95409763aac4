// Small statistics toolkit used by the measurement layer and the
// experiment harness.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace dufp {

/// Numerically stable running mean / extrema (Welford's mean update).
class RunningStats {
 public:
  void add(double x);
  void clear() { *this = RunningStats{}; }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Summary of a repeated-runs experiment following the paper's protocol
/// (Sec. V): drop the runs with the lowest and highest *key* metric, then
/// average the survivors; also report observed min / max for error bars.
struct TrimmedSummary {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t used = 0;  ///< number of runs averaged after trimming
};

/// Computes the paper's trimmed mean.  `key` selects which runs get
/// dropped (the paper trims on execution time); `values` are the metric to
/// summarize, index-aligned with `key`.  With fewer than three runs no
/// trimming occurs.
TrimmedSummary trimmed_summary(const std::vector<double>& key,
                               const std::vector<double>& values);

}  // namespace dufp
