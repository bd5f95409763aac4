#include "common/json.h"

#include <bit>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <stdexcept>

#include "common/string_util.h"

namespace dufp::json {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("json: " + what);
}

}  // namespace

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::boolean;
  v.bool_ = b;
  return v;
}

Value Value::make_u64(std::uint64_t n) {
  Value v;
  v.kind_ = Kind::number;
  v.scalar_ = strf("%" PRIu64, n);
  return v;
}

Value Value::make_i64(std::int64_t n) {
  Value v;
  v.kind_ = Kind::number;
  v.scalar_ = strf("%" PRId64, n);
  return v;
}

Value Value::make_raw_number(std::string token) {
  Value v;
  v.kind_ = Kind::number;
  v.scalar_ = std::move(token);
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::string;
  v.scalar_ = std::move(s);
  return v;
}

Value Value::make_array(Items items) {
  Value v;
  v.kind_ = Kind::array;
  v.items_ = std::make_shared<Items>(std::move(items));
  return v;
}

Value Value::make_object(Members members) {
  Value v;
  v.kind_ = Kind::object;
  v.members_ = std::make_shared<Members>(std::move(members));
  return v;
}

bool Value::as_bool() const {
  if (kind_ != Kind::boolean) fail("not a boolean");
  return bool_;
}

std::uint64_t Value::as_u64() const {
  if (kind_ != Kind::number) fail("not a number");
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(scalar_.c_str(), &end, 10);
  if (errno != 0 || end != scalar_.c_str() + scalar_.size() ||
      scalar_.empty() || scalar_[0] == '-') {
    fail("number token '" + scalar_ + "' is not a u64");
  }
  return n;
}

std::int64_t Value::as_i64() const {
  if (kind_ != Kind::number) fail("not a number");
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(scalar_.c_str(), &end, 10);
  if (errno != 0 || end != scalar_.c_str() + scalar_.size() ||
      scalar_.empty()) {
    fail("number token '" + scalar_ + "' is not an i64");
  }
  return n;
}

double Value::as_double() const {
  if (kind_ != Kind::number) fail("not a number");
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(scalar_.c_str(), &end);
  if (errno != 0 || end != scalar_.c_str() + scalar_.size() ||
      scalar_.empty()) {
    fail("number token '" + scalar_ + "' is not a double");
  }
  return d;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::string) fail("not a string");
  return scalar_;
}

const Items& Value::as_array() const {
  if (kind_ != Kind::array) fail("not an array");
  return *items_;
}

const Members& Value::as_object() const {
  if (kind_ != Kind::object) fail("not an object");
  return *members_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::object) return nullptr;
  for (const auto& [k, v] : *members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) fail("missing key '" + std::string(key) + "'");
  return *v;
}

void Value::add(std::string key, Value v) {
  if (kind_ != Kind::object) fail("add() on a non-object");
  members_->emplace_back(std::move(key), std::move(v));
}

void Value::push_back(Value v) {
  if (kind_ != Kind::array) fail("push_back() on a non-array");
  items_->push_back(std::move(v));
}

void escape_string(std::string_view s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Value::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::null: out += "null"; break;
    case Kind::boolean: out += bool_ ? "true" : "false"; break;
    case Kind::number: out += scalar_; break;
    case Kind::string: escape_string(scalar_, out); break;
    case Kind::array: {
      out += '[';
      bool first = true;
      for (const auto& v : *items_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      break;
    }
    case Kind::object: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : *members_) {
        if (!first) out += ',';
        first = false;
        escape_string(k, out);
        out += ':';
        v.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// -- parser ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) error("trailing content");
    return v;
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    fail(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  void expect_char(char c) {
    if (peek() != c) error(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value::make_string(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) error("bad literal");
      return Value::make_bool(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) error("bad literal");
      return Value::make_bool(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) error("bad literal");
      return Value::make_null();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    error("unexpected character");
  }

  Value parse_object() {
    expect_char('{');
    Value obj = Value::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect_char(':');
      obj.add(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      error("expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect_char('[');
    Value arr = Value::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      error("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect_char('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else error("bad \\u escape");
          }
          // The shard files only ever escape control characters; encode
          // the BMP code point as UTF-8 for completeness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: error("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      error("bad number");
    }
    return Value::make_raw_number(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

// -- bit-exact double transport ----------------------------------------------

std::string double_to_hex(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return strf("%016" PRIx64, bits);
}

double hex_to_double(std::string_view hex) {
  if (hex.size() != 16) fail("hex double must be 16 digits");
  std::uint64_t bits = 0;
  for (const char c : hex) {
    bits <<= 4;
    if (c >= '0' && c <= '9') bits |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') bits |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') bits |= static_cast<std::uint64_t>(c - 'A' + 10);
    else fail("bad hex digit in double");
  }
  return std::bit_cast<double>(bits);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dufp::json
