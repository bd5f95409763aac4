// ASCII table rendering for the benchmark harness.  Every figure/table
// bench prints its rows through this so output stays uniform and grep-able.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace dufp {

/// Column-aligned plain-text table.  Usage:
///   TextTable t({"app", "slowdown %", "power %"});
///   t.add_row({"CG", "1.2", "-13.98"});
///   t.print(std::cout);
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 2);

  std::size_t row_count() const { return rows_.size(); }

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for cell construction).
std::string fmt_double(double v, int precision = 2);

}  // namespace dufp
