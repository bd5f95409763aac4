#include "common/config.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dufp {
namespace {

TEST(ConfigTest, ParsesKeyValues) {
  const auto cfg = Config::parse("a = 1\nb= two\n c =3.5\n");
  EXPECT_EQ(cfg.get_string("a", ""), "1");
  EXPECT_EQ(cfg.get_string("b", ""), "two");
  EXPECT_DOUBLE_EQ(cfg.get_double("c", 0), 3.5);
}

TEST(ConfigTest, CommentsAndBlanksIgnored) {
  const auto cfg = Config::parse("# comment\n\na = 1  # trailing\n");
  EXPECT_EQ(cfg.get_string("a", ""), "1");
  EXPECT_FALSE(cfg.has("comment"));
}

TEST(ConfigTest, KeysAreCaseInsensitive) {
  const auto cfg = Config::parse("DUFP.Slowdown = 0.05\n");
  EXPECT_TRUE(cfg.has("dufp.slowdown"));
  EXPECT_DOUBLE_EQ(cfg.get_double("DUFP.SLOWDOWN", 0), 0.05);
}

TEST(ConfigTest, MissingKeyReturnsDefault) {
  const Config cfg;
  EXPECT_EQ(cfg.get_string("nope", "def"), "def");
  EXPECT_DOUBLE_EQ(cfg.get_double("nope", 1.5), 1.5);
  EXPECT_EQ(cfg.get_int("nope", 7), 7);
  EXPECT_FALSE(cfg.get("nope").has_value());
}

TEST(ConfigTest, MalformedLineThrowsWithLineNumber) {
  try {
    Config::parse("a = 1\nbad line\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ConfigTest, EmptyKeyThrows) {
  EXPECT_THROW(Config::parse(" = 1\n"), std::runtime_error);
}

TEST(ConfigTest, BadNumberThrowsNotDefaults) {
  const auto cfg = Config::parse("x = banana\n");
  EXPECT_THROW(cfg.get_double("x", 0), std::runtime_error);
  EXPECT_THROW(cfg.get_int("x", 0), std::runtime_error);
}

TEST(ConfigTest, SetOverrides) {
  Config cfg;
  cfg.set("k", "1");
  cfg.set("K", "2");
  EXPECT_EQ(cfg.get_string("k", ""), "2");
}

TEST(ConfigTest, ValueWithEqualsSign) {
  const auto cfg = Config::parse("cmd = a=b\n");
  EXPECT_EQ(cfg.get_string("cmd", ""), "a=b");
}

TEST(ConfigTest, LoadMissingFileThrows) {
  EXPECT_THROW(Config::load("/nonexistent/path/cfg.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace dufp
