#include "common/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dufp {
namespace {

TEST(FmtDoubleTest, Precision) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(1.0, 0), "1");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
}

TEST(TextTableTest, EmptyHeaderRejected) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTableTest, RowWidthMustMatchHeader) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TextTableTest, NumericRowHelper) {
  TextTable t({"app", "x", "y"});
  t.add_row("CG", {1.234, 5.678}, 1);
  EXPECT_EQ(t.row_count(), 1u);
  std::ostringstream oss;
  t.print(oss);
  const std::string s = oss.str();
  EXPECT_NE(s.find("CG"), std::string::npos);
  EXPECT_NE(s.find("1.2"), std::string::npos);
  EXPECT_NE(s.find("5.7"), std::string::npos);
}

TEST(TextTableTest, NumericRowHelperSizeChecked) {
  TextTable t({"app", "x", "y"});
  EXPECT_THROW(t.add_row("CG", {1.0}), std::invalid_argument);
}

TEST(TextTableTest, ColumnsAligned) {
  TextTable t({"a", "long header"});
  t.add_row({"very long cell", "x"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();

  // Every rendered line has the same width.
  std::size_t width = std::string::npos;
  std::size_t start = 0;
  int lines = 0;
  while (start < out.size()) {
    const auto end = out.find('\n', start);
    const std::string line = out.substr(start, end - start);
    if (width == std::string::npos) width = line.size();
    EXPECT_EQ(line.size(), width);
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 5);  // sep, header, sep, row, sep
}

TEST(TextTableTest, SeparatorsPresent) {
  TextTable t({"h"});
  t.add_row({"v"});
  std::ostringstream oss;
  t.print(oss);
  const std::string s = oss.str();
  EXPECT_EQ(s.find("+"), 0u);
  EXPECT_NE(s.find("| h"), std::string::npos);
  EXPECT_NE(s.find("| v"), std::string::npos);
}

}  // namespace
}  // namespace dufp
