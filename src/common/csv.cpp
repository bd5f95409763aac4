#include "common/csv.h"

#include <stdexcept>

namespace dufp {

std::string csv_escape(const std::string& field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : file_(path) {
  if (!file_) throw std::runtime_error("CsvWriter: cannot open " + path);
  os_ = &file_;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) *os_ << ',';
    *os_ << csv_escape(cells[i]);
  }
  *os_ << '\n';
  ++rows_;
}

}  // namespace dufp
