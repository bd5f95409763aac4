#include "common/json.h"

#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <system_error>

namespace dufp::json {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("json: " + what);
}

/// The decimal text of an integer, as "%" PRIu64 / "%" PRId64 print it.
template <class Int>
void append_int(Int v, std::string& out) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, end);
}

/// The bit pattern of `v` as 16 lowercase hex digits, as "%016" PRIx64
/// prints it.
void append_hex(double v, std::string& out) {
  char buf[16];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, std::bit_cast<std::uint64_t>(v), 16)
          .ptr;
  out.append(sizeof buf - static_cast<std::size_t>(end - buf), '0');
  out.append(buf, end);
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
  append_int(n, v.scalar_);
  return v;
}

Value Value::make_i64(std::int64_t n) {
  Value v;
  v.kind_ = Kind::number;
  append_int(n, v.scalar_);
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

Value Value::make_raw(std::string json_text) {
  Value v;
  v.kind_ = Kind::raw;
  v.scalar_ = std::move(json_text);
  return v;
}

bool Value::as_bool() const {
  if (kind_ != Kind::boolean) fail("not a boolean");
  return bool_;
}

std::uint64_t Value::as_u64() const {
  if (kind_ != Kind::number) fail("not a number");
  std::uint64_t n = 0;
  const char* end = scalar_.data() + scalar_.size();
  const auto [ptr, ec] = std::from_chars(scalar_.data(), end, n);
  if (ec != std::errc() || ptr != end) {
    fail("number token '" + scalar_ + "' is not a u64");
  }
  return n;
}

std::int64_t Value::as_i64() const {
  if (kind_ != Kind::number) fail("not a number");
  std::int64_t n = 0;
  const char* end = scalar_.data() + scalar_.size();
  const auto [ptr, ec] = std::from_chars(scalar_.data(), end, n);
  if (ec != std::errc() || ptr != end) {
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
  std::size_t run = 0;  // first byte not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

// -- writer ------------------------------------------------------------------

Writer& Writer::open(char bracket) {
  separate();
  out_ += bracket;
  need_comma_ = false;
  return *this;
}

Writer& Writer::close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  separate();
  escape_string(k, out_);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Writer& Writer::u64(std::uint64_t v) {
  separate();
  append_int(v, out_);
  need_comma_ = true;
  return *this;
}

Writer& Writer::i64(std::int64_t v) {
  separate();
  append_int(v, out_);
  need_comma_ = true;
  return *this;
}

Writer& Writer::hex(double v) {
  separate();
  out_ += '"';
  append_hex(v, out_);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

Writer& Writer::string(std::string_view s) {
  separate();
  escape_string(s, out_);
  need_comma_ = true;
  return *this;
}

Writer& Writer::raw(std::string_view json_text) {
  separate();
  out_ += json_text;
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(const Value& v) {
  switch (v.kind_) {
    case Value::Kind::null: return null();
    case Value::Kind::boolean: return boolean(v.bool_);
    case Value::Kind::number:
    case Value::Kind::raw: return raw(v.scalar_);
    case Value::Kind::string: return string(v.scalar_);
    case Value::Kind::array:
      begin_array();
      for (const Value& item : *v.items_) value(item);
      return end_array();
    case Value::Kind::object:
      begin_object();
      for (const auto& [k, item] : *v.members_) key(k).value(item);
      return end_object();
  }
  return *this;
}

void Value::dump_to(std::string& out) const { Writer(out).value(*this); }

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// -- parser ------------------------------------------------------------------

namespace {

class Parser {
 public:
  /// `span` non-null reports the top-level member `span_key` (see the
  /// three-argument parse()).
  Parser(std::string_view text, std::string_view span_key,
         std::string_view* span)
      : text_(text), span_key_(span_key), span_(span) {}

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

  /// Opens an array or object; past kMaxDepth the recursion stops here
  /// instead of running off the stack.
  void enter(char bracket) {
    if (depth_ == kMaxDepth) {
      error("nesting deeper than " + std::to_string(kMaxDepth));
    }
    expect_char(bracket);
    ++depth_;
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

  // A container's members and items gather on the parser's stacks (a
  // nested container's above its parent's) and move into a vector of
  // their exact size when it closes: one allocation per container, none
  // for growth.
  Value parse_object() {
    enter('{');
    const std::size_t base = members_.size();
    skip_ws();
    if (peek() != '}') {
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect_char(':');
        skip_ws();
        const std::size_t start = pos_;
        Value v = parse_value();
        if (depth_ == 1 && span_ != nullptr && !span_found_ &&
            key == span_key_) {
          *span_ = text_.substr(start, pos_ - start);
          span_found_ = true;
        }
        members_.emplace_back(std::move(key), std::move(v));
        skip_ws();
        const char c = peek();
        if (c == '}') break;
        if (c != ',') error("expected ',' or '}'");
        ++pos_;
      }
    }
    ++pos_;
    --depth_;
    const auto first = members_.begin() + static_cast<std::ptrdiff_t>(base);
    Members members(std::make_move_iterator(first),
                    std::make_move_iterator(members_.end()));
    members_.erase(first, members_.end());
    return Value::make_object(std::move(members));
  }

  Value parse_array() {
    enter('[');
    const std::size_t base = items_.size();
    skip_ws();
    if (peek() != ']') {
      while (true) {
        items_.push_back(parse_value());
        skip_ws();
        const char c = peek();
        if (c == ']') break;
        if (c != ',') error("expected ',' or ']'");
        ++pos_;
      }
    }
    ++pos_;
    --depth_;
    const auto first = items_.begin() + static_cast<std::ptrdiff_t>(base);
    Items items(std::make_move_iterator(first),
                std::make_move_iterator(items_.end()));
    items_.erase(first, items_.end());
    return Value::make_array(std::move(items));
  }

  std::string parse_string() {
    expect_char('"');
    std::string out;
    while (true) {
      // Everything up to the next quote or backslash is copied as is.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
        ++end;
      }
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (pos_ >= text_.size()) error("unterminated string");
      if (text_[pos_++] == '"') return out;
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
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      error("bad number");
    }
    return Value::make_raw_number(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open around pos_
  Members members_;  ///< the open objects' members so far
  Items items_;      ///< the open arrays' items so far
  std::string_view span_key_;
  std::string_view* span_ = nullptr;
  bool span_found_ = false;
};

}  // namespace

Value parse(std::string_view text) {
  return Parser(text, {}, nullptr).parse_document();
}

Value parse(std::string_view text, std::string_view key,
            std::string_view* span) {
  *span = {};
  return Parser(text, key, span).parse_document();
}

// -- bit-exact double transport ----------------------------------------------

double hex_to_double(std::string_view hex) {
  // Each digit's value, or -1: a table, where comparisons would branch
  // on every digit of a pattern that is random by nature.
  static constexpr auto kDigit = [] {
    std::array<std::int8_t, 256> digit{};
    digit.fill(-1);
    for (int d = 0; d < 10; ++d) digit['0' + d] = static_cast<std::int8_t>(d);
    // Lower case only, as Writer::hex writes: an upper-case digit would
    // decode to the same bits from other bytes.
    for (int d = 0; d < 6; ++d) {
      digit['a' + d] = static_cast<std::int8_t>(10 + d);
    }
    return digit;
  }();
  if (hex.size() != 16) fail("hex double must be 16 digits");
  std::uint64_t bits = 0;
  for (const char c : hex) {
    const int d = kDigit[static_cast<unsigned char>(c)];
    if (d < 0) fail("bad hex digit in double");
    bits = bits << 4 | static_cast<std::uint64_t>(d);
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
