// Minimal JSON reader/writer for the shard spec + result contract.
//
// Scope is deliberately narrow: deterministic, dependency-free round-trip
// of the JSON the shard layer emits itself (specs, JSONL result lines).
// Objects preserve insertion order (no hashing, no sorting) so a value
// serializes back to the exact byte sequence it was built in — the shard
// gatherer's byte-identity guarantees depend on that.
//
// Numbers are kept as their raw token text on parse and re-emitted
// verbatim, so a file can be parsed and rewritten without any
// double→text→double wobble.  For bit-exact doubles across machines the
// codec below sidesteps decimal entirely: double_to_hex/hex_to_double
// transport the IEEE-754 bit pattern as 16 hex digits.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dufp::json {

class Value;

/// Insertion-ordered key→value list (shard files have a handful of keys;
/// linear find is fine and keeps serialization deterministic).
using Members = std::vector<std::pair<std::string, Value>>;
using Items = std::vector<Value>;

class Value {
 public:
  enum class Kind { null, boolean, number, string, array, object };

  Value() : kind_(Kind::null) {}
  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  /// Stores the decimal text of `v` (shortest round-trip not required —
  /// use this only where bit-exactness doesn't matter, e.g. counts).
  static Value make_u64(std::uint64_t v);
  static Value make_i64(std::int64_t v);
  /// Raw number token, emitted verbatim (caller guarantees validity).
  static Value make_raw_number(std::string token);
  static Value make_string(std::string s);
  static Value make_array(Items items = {});
  static Value make_object(Members members = {});

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::null; }
  bool is_object() const { return kind_ == Kind::object; }
  bool is_array() const { return kind_ == Kind::array; }
  bool is_string() const { return kind_ == Kind::string; }
  bool is_number() const { return kind_ == Kind::number; }
  bool is_bool() const { return kind_ == Kind::boolean; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch or an
  /// unparseable number token (never silently coerce).
  bool as_bool() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;
  const std::string& as_string() const;
  const Items& as_array() const;
  const Members& as_object() const;

  /// Object lookup; returns nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  /// Object lookup; throws std::runtime_error naming the key when absent.
  const Value& at(std::string_view key) const;
  /// Appends a member (objects) / element (arrays); throws otherwise.
  void add(std::string key, Value v);
  void push_back(Value v);

  /// Compact single-line serialization (no whitespace), deterministic:
  /// members in insertion order, numbers as their stored tokens, strings
  /// escaped minimally (", \, control chars).
  std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  Kind kind_;
  bool bool_ = false;
  std::string scalar_;  // number token or string payload
  std::shared_ptr<Items> items_;
  std::shared_ptr<Members> members_;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
/// Throws std::runtime_error with the byte offset on malformed input.
Value parse(std::string_view text);

/// JSON string escaping (the subset dump() emits).
void escape_string(std::string_view s, std::string& out);

// -- bit-exact double transport ---------------------------------------------

/// The IEEE-754 bit pattern of `v` as 16 lowercase hex digits.
std::string double_to_hex(double v);
/// Inverse of double_to_hex; throws std::runtime_error on malformed input
/// (must be exactly 16 hex digits).
double hex_to_double(std::string_view hex);

// -- content fingerprinting --------------------------------------------------

/// FNV-1a 64-bit over the bytes; the shard layer fingerprints the
/// canonical spec serialization with this so a gather can refuse result
/// files produced from a different spec.
std::uint64_t fnv1a(std::string_view bytes);

}  // namespace dufp::json
