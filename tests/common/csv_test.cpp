#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace dufp {
namespace {

TEST(CsvEscapeTest, PlainFieldUntouched) {
  EXPECT_EQ(csv_escape("abc"), "abc");
  EXPECT_EQ(csv_escape("1.5"), "1.5");
}

TEST(CsvEscapeTest, CommaQuoted) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscapeTest, QuotesDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscapeTest, NewlinesQuoted) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterTest, WritesRowsToStream) {
  std::ostringstream oss;
  CsvWriter w(oss);
  w.write_row({"a", "b,c"});
  w.write_row({"1", "2"});
  EXPECT_EQ(oss.str(), "a,\"b,c\"\n1,2\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

TEST(CsvWriterTest, FileTargetWorks) {
  const std::string path = testing::TempDir() + "/dufp_csv_test.csv";
  {
    CsvWriter w(path);
    w.write_row({"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_zzz/file.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace dufp
