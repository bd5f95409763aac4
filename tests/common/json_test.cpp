#include "common/json.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/string_util.h"

namespace dufp::json {
namespace {

TEST(JsonTest, RoundTripsAnObjectByteExactly) {
  const std::string text =
      R"({"format":"dufp-shard-result","version":1,"jobs":[0,1,2],)"
      R"("ok":true,"note":null,"x":-3.25e2})";
  const Value v = parse(text);
  EXPECT_EQ(v.dump(), text);  // insertion order + raw number tokens
}

TEST(JsonTest, TypedAccessors) {
  const Value v = parse(R"({"u":18446744073709551615,"i":-42,"d":1.5,)"
                        R"("s":"hi","b":false,"a":[1,2]})");
  EXPECT_EQ(v.at("u").as_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(v.at("i").as_i64(), -42);
  EXPECT_DOUBLE_EQ(v.at("d").as_double(), 1.5);
  EXPECT_EQ(v.at("s").as_string(), "hi");
  EXPECT_FALSE(v.at("b").as_bool());
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), std::runtime_error);
  EXPECT_THROW(v.at("s").as_double(), std::runtime_error);
  EXPECT_THROW(v.at("i").as_u64(), std::runtime_error);
}

TEST(JsonTest, StringEscapes) {
  Value v = Value::make_object();
  v.add("k", Value::make_string("a\"b\\c\nd\te\x01"));
  const std::string text = v.dump();
  EXPECT_EQ(text, "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
  EXPECT_EQ(parse(text).at("k").as_string(), "a\"b\\c\nd\te\x01");
}

TEST(JsonTest, ParseErrorsCarryOffset) {
  try {
    parse(R"({"a":1,})");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{\"a\":1} junk"), std::runtime_error);
  EXPECT_THROW(parse("[1,2"), std::runtime_error);
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse("tru"), std::runtime_error);
}

/// Writer::hex's digits, without the quotes.
std::string hex_digits(double v) {
  std::string text;
  Writer(text).hex(v);
  EXPECT_EQ(text.size(), 18u);
  return text.substr(1, 16);
}

TEST(JsonTest, HexDoubleIsBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0 / 3.0,
                           3.14159265358979312e100,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    const std::string hex = hex_digits(v);
    ASSERT_EQ(hex.size(), 16u);
    const double back = hex_to_double(hex);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v), std::bit_cast<std::uint64_t>(back));
  }
  // NaN payloads survive too (bit pattern, not value, is transported).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(nan),
            std::bit_cast<std::uint64_t>(hex_to_double(hex_digits(nan))));
  EXPECT_EQ(hex_digits(-0.0), "8000000000000000");
  EXPECT_THROW(hex_to_double("123"), std::runtime_error);
  EXPECT_THROW(hex_to_double("zzzzzzzzzzzzzzzz"), std::runtime_error);
  // Writer::hex writes lower case only, so upper case is damage.
  EXPECT_THROW(hex_to_double("3FF0000000000000"), std::runtime_error);
}

TEST(JsonTest, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

// -- writer ------------------------------------------------------------------

TEST(JsonWriterTest, WritesWhatDumpWritesForTheSameStructure) {
  Value tree = Value::make_object();
  tree.add("s", Value::make_string("a\"b\\c\n\x01\x1f\x7f\xc3\xa9"));
  tree.add("u", Value::make_u64(std::numeric_limits<std::uint64_t>::max()));
  tree.add("i", Value::make_i64(std::numeric_limits<std::int64_t>::min()));
  tree.add("h", Value::make_string("8000000000000000"));
  tree.add("t", Value::make_bool(true));
  tree.add("n", Value::make_null());
  tree.add("empty", Value::make_array());
  Value nested = Value::make_array();
  nested.push_back(Value::make_object());
  nested.push_back(Value::make_raw_number("-1.5e3"));
  tree.add("nested", std::move(nested));

  std::string text;
  Writer(text)
      .begin_object()
      .key("s").string("a\"b\\c\n\x01\x1f\x7f\xc3\xa9")
      .key("u").u64(std::numeric_limits<std::uint64_t>::max())
      .key("i").i64(std::numeric_limits<std::int64_t>::min())
      .key("h").hex(-0.0)
      .key("t").boolean(true)
      .key("n").null()
      .key("empty").begin_array().end_array()
      .key("nested").begin_array().begin_object().end_object()
      .raw("-1.5e3").end_array()
      .end_object();
  EXPECT_EQ(text, tree.dump());
  // A tree written through the writer, and a raw value, are the same bytes.
  std::string via_value;
  Writer(via_value).value(tree);
  EXPECT_EQ(via_value, text);
  EXPECT_EQ(Value::make_raw(text).dump(), text);
  EXPECT_EQ(parse(text).dump(), text);
}

TEST(JsonWriterTest, NumbersMatchPrintfOverGeneratedValues) {
  Rng rng(2026);
  std::vector<std::uint64_t> bits = {0,
                                     1,
                                     9,
                                     10,
                                     0x8000000000000000ULL,
                                     0x7ff0000000000000ULL,
                                     0xfff8000000000001ULL,
                                     std::numeric_limits<std::uint64_t>::max()};
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = rng.next_u64();
    bits.push_back(r);
    bits.push_back(r >> (r % 64));  // every length of decimal text
  }
  for (const std::uint64_t b : bits) {
    const double d = std::bit_cast<double>(b);
    const auto signed_b = static_cast<std::int64_t>(b);
    std::string text;
    Writer(text).begin_array().u64(b).i64(signed_b).hex(d).end_array();
    ASSERT_EQ(text, strf("[%" PRIu64 ",%" PRId64 ",\"%016" PRIx64 "\"]", b,
                         signed_b, b));
    ASSERT_EQ(Value::make_u64(b).dump(), strf("%" PRIu64, b));
    ASSERT_EQ(Value::make_i64(signed_b).dump(), strf("%" PRId64, signed_b));
  }
}

// -- parser limits and spans -------------------------------------------------

TEST(JsonParseTest, NestingPastTheCapThrowsInsteadOfOverflowingTheStack) {
  // 1M levels recursed the parser off its stack (SIGSEGV) before the cap.
  const std::size_t levels = 1'000'000;
  const std::string arrays(levels, '[');
  std::string objects;
  objects.reserve(levels * 5);
  for (std::size_t i = 0; i < levels; ++i) objects += "{\"a\":";
  const std::pair<const std::string*, std::size_t> cases[] = {
      {&arrays, 1}, {&objects, 5}};
  for (const auto& [text, width] : cases) {
    try {
      parse(*text);
      FAIL() << "a document nested 1M deep parsed";
    } catch (const std::runtime_error& e) {
      // The level past the cap is refused where it opens.
      EXPECT_EQ(std::string(e.what()),
                "json: nesting deeper than " + std::to_string(kMaxDepth) +
                    " at offset " + std::to_string(kMaxDepth * width));
    }
  }
}

TEST(JsonParseTest, NestingUpToTheCapParses) {
  const auto nest = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(parse(nest(kMaxDepth)).dump(), nest(kMaxDepth));
  EXPECT_THROW(parse(nest(kMaxDepth + 1)), std::runtime_error);
  // Depth counts open containers, not containers seen: siblings reuse it.
  std::string wide = "[";
  for (int i = 0; i < 1000; ++i) {
    if (i != 0) wide += ',';
    wide += nest(kMaxDepth - 1);
  }
  wide += "]";
  EXPECT_EQ(parse(wide).as_array().size(), 1000u);
}

TEST(JsonParseTest, ReportsTheTopLevelMembersBytesAsRead) {
  std::string_view span;
  const std::string text =
      R"( {"job":3, "result" : {"a":[1, 2],"result":0} ,"result":7} )";
  const Value v = parse(text, "result", &span);
  EXPECT_EQ(span, R"({"a":[1, 2],"result":0})");  // spacing kept, first one
  EXPECT_EQ(v.at("result").dump(), R"({"a":[1,2],"result":0})");
  EXPECT_EQ(span.data(), text.data() + text.find('{', 2));  // a view of text

  parse(R"({"job":3})", "result", &span);
  EXPECT_TRUE(span.empty());
  parse(R"([{"result":1}])", "result", &span);
  EXPECT_TRUE(span.empty()) << "only a top-level member is reported";
  parse(R"({"result":"x"})", "result", &span);
  EXPECT_EQ(span, R"("x")");
  EXPECT_THROW(parse(R"({"result":1,})", "result", &span), std::runtime_error);
}

}  // namespace
}  // namespace dufp::json
