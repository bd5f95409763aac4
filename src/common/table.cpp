#include "common/table.h"

#include <algorithm>
#include <cstdio>

#include "common/expect.h"

namespace dufp {

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  DUFP_EXPECT(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  DUFP_EXPECT(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::add_row(const std::string& label,
                        const std::vector<double>& values, int precision) {
  DUFP_EXPECT(values.size() + 1 == header_.size());
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(fmt_double(v, precision));
  add_row(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c];
      for (std::size_t i = row[c].size(); i < width[c]; ++i) os << ' ';
      os << " |";
    }
    os << '\n';
  };

  auto print_sep = [&] {
    os << "+";
    for (std::size_t c = 0; c < width.size(); ++c) {
      for (std::size_t i = 0; i < width[c] + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };

  print_sep();
  print_row(header_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

}  // namespace dufp
