// Minimal JSON reader/writer for the shard spec + result contract.
//
// Scope is deliberately narrow: deterministic, dependency-free round-trip
// of the JSON the shard layer emits itself (specs, JSONL result lines).
// Objects preserve insertion order (no hashing, no sorting) so a value
// serializes back to the exact byte sequence it was built in — the shard
// gatherer's byte-identity guarantees depend on that.
//
// One serializer writes every byte: Writer, which appends compact JSON to
// a string.  Value::dump is a Writer walk of the tree; the shard records
// (results, telemetry snapshots, fleet nodes) are written by their
// encoders straight into a Writer, with no tree in between.
//
// Numbers are kept as their raw token text on parse and re-emitted
// verbatim, so a file can be parsed and rewritten without any
// double→text→double wobble.  For bit-exact doubles across machines the
// codec sidesteps decimal entirely: Writer::hex and hex_to_double
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
  /// `raw` is JSON text serialized already (a Writer's output): dump()
  /// emits it verbatim, and every accessor treats it as opaque.
  enum class Kind { null, boolean, number, string, array, object, raw };

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
  /// JSON text a Writer produced, emitted verbatim (the caller guarantees
  /// it is one well-formed value).  The record encoders return their
  /// bytes this way, so a payload crosses the wire as text.
  static Value make_raw(std::string json_text);

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
  /// escaped minimally (", \, control chars).  A Writer walk.
  std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  friend class Writer;

  Kind kind_;
  bool bool_ = false;
  std::string scalar_;  // number token, string payload or raw JSON text
  std::shared_ptr<Items> items_;
  std::shared_ptr<Members> members_;
};

/// Appends compact JSON to a string, exactly the bytes Value::dump emits
/// for the same structure: no whitespace, strings escaped as
/// escape_string does, integers in decimal and doubles as hex bit
/// patterns (both by std::to_chars).  The caller sequences keys and
/// values; the writer places the commas, so a malformed sequence (a key
/// outside an object, a value without its key) is the caller's bug.
/// Every call returns the writer, so a member reads
/// `w.key("count").u64(n)`.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// An object member's key; its value is the next call.
  Writer& key(std::string_view k);

  Writer& null() { return raw("null"); }
  Writer& boolean(bool b) { return raw(b ? "true" : "false"); }
  Writer& u64(std::uint64_t v);
  Writer& i64(std::int64_t v);
  /// `v`'s IEEE-754 bit pattern as a string of 16 lowercase hex digits
  /// (hex_to_double reads it back).
  Writer& hex(double v);
  Writer& string(std::string_view s);
  /// One value serialized already (a number token or a Writer's output),
  /// appended verbatim.
  Writer& raw(std::string_view json_text);
  /// A whole tree, as Value::dump emits it.
  Writer& value(const Value& v);

 private:
  Writer& open(char bracket);
  Writer& close(char bracket);
  void separate() {
    if (need_comma_) out_ += ',';
  }

  std::string& out_;
  bool need_comma_ = false;  ///< a value ended; the next item takes a comma
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
/// Throws std::runtime_error with the byte offset on malformed input,
/// nesting deeper than kMaxDepth arrays and objects included (so a
/// hostile line cannot recurse the parser off its stack).
Value parse(std::string_view text);

/// parse(), also reporting where the top-level object's member `key`
/// lies in `text`: `*span` is its value's bytes exactly as read, or
/// empty when the document is not an object or lacks the key.  A
/// repeated key reports its first occurrence, the one find() returns.
Value parse(std::string_view text, std::string_view key,
            std::string_view* span);

/// The deepest array/object nesting parse() accepts.  The repository's
/// own documents nest about 7 deep.
inline constexpr int kMaxDepth = 64;

/// JSON string escaping (the subset dump() emits).
void escape_string(std::string_view s, std::string& out);

// -- bit-exact double transport ---------------------------------------------

/// The double whose IEEE-754 bit pattern the 16 hex digits spell (what
/// Writer::hex writes, without its quotes); throws std::runtime_error on
/// malformed input (must be exactly 16 lowercase hex digits).
double hex_to_double(std::string_view hex);

// -- content fingerprinting --------------------------------------------------

/// FNV-1a 64-bit over the bytes; the shard layer fingerprints the
/// canonical spec serialization with this so a gather can refuse result
/// files produced from a different spec.
std::uint64_t fnv1a(std::string_view bytes);

}  // namespace dufp::json
