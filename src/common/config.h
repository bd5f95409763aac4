// Key/value configuration used by the CLI examples and the runtime agent.
//
// Format: one `key = value` per line; `#` starts a comment; keys are
// case-insensitive and dot-namespaced ("dufp.slowdown = 0.05").
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace dufp {

class Config {
 public:
  Config() = default;

  /// Parses config text; throws std::runtime_error with a line number on
  /// malformed input.
  static Config parse(std::string_view text);

  /// Loads from a file; throws std::runtime_error if unreadable.
  static Config load(const std::string& path);

  void set(std::string key, std::string value);

  bool has(std::string_view key) const;
  std::optional<std::string> get(std::string_view key) const;

  /// Typed getters with defaults; throw std::runtime_error when a present
  /// value fails to parse (silent fallback would hide typos).
  std::string get_string(std::string_view key, std::string def) const;
  double get_double(std::string_view key, double def) const;
  long long get_int(std::string_view key, long long def) const;

 private:
  std::map<std::string, std::string> values_;  // lowercase keys
};

}  // namespace dufp
