#include "common/config.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/string_util.h"

namespace dufp {

Config Config::parse(std::string_view text) {
  Config cfg;
  std::size_t line_no = 0;
  for (const auto& raw_line : split(text, '\n')) {
    ++line_no;
    std::string_view line = raw_line;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("Config: missing '=' on line " +
                               std::to_string(line_no));
    }
    const auto key = trim(line.substr(0, eq));
    const auto value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("Config: empty key on line " +
                               std::to_string(line_no));
    }
    cfg.set(std::string(key), std::string(value));
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

void Config::set(std::string key, std::string value) {
  values_[to_lower(key)] = std::move(value);
}

bool Config::has(std::string_view key) const {
  return values_.count(to_lower(key)) != 0;
}

std::optional<std::string> Config::get(std::string_view key) const {
  const auto it = values_.find(to_lower(key));
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(std::string_view key, std::string def) const {
  if (auto v = get(key)) return *v;
  return def;
}

double Config::get_double(std::string_view key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  double out = 0.0;
  if (!parse_double(*v, out)) {
    throw std::runtime_error("Config: key '" + std::string(key) +
                             "' is not a number: " + *v);
  }
  return out;
}

long long Config::get_int(std::string_view key, long long def) const {
  const double d = get_double(key, static_cast<double>(def));
  return static_cast<long long>(d);
}

}  // namespace dufp
