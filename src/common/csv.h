// CSV emission for traces and figure data.  Quoting follows RFC 4180:
// fields containing comma, quote or newline are quoted, quotes doubled.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

namespace dufp {

class CsvWriter {
 public:
  /// Writes to an externally owned stream.
  explicit CsvWriter(std::ostream& os) : os_(&os) {}

  /// Opens (truncates) `path`; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  void write_row(const std::vector<std::string>& cells);

  std::size_t rows_written() const { return rows_; }

 private:
  std::ofstream file_;
  std::ostream* os_ = nullptr;
  std::size_t rows_ = 0;
};

/// Escapes a single CSV field per RFC 4180.
std::string csv_escape(const std::string& field);

}  // namespace dufp
