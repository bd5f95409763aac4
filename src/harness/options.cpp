#include "harness/options.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "core/policy_registry.h"
#include "fleet/allocator.h"
#include "fleet/traffic.h"

namespace dufp::harness {

namespace {

// Strict parsers: the whole value must be consumed (no trailing junk), no
// overflow, and the result must satisfy the knob's range.  Each failure is
// recorded in `problems`; the caller aggregates them into one exception so
// a user fixing their environment sees every mistake at once.

void note(std::vector<std::string>& problems, const char* name,
          const char* value, const std::string& why) {
  problems.push_back(std::string(name) + "=\"" + value + "\": " + why);
}

void parse_int(const char* name, int& out, int min_value,
               std::vector<std::string>& problems) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') {
    note(problems, name, v, "not an integer");
  } else if (errno == ERANGE || n > 1000000000L || n < -1000000000L) {
    note(problems, name, v, "out of range");
  } else if (n < min_value) {
    note(problems, name, v, "must be >= " + std::to_string(min_value));
  } else {
    out = static_cast<int>(n);
  }
}

void parse_u64(const char* name, std::uint64_t& out,
               std::vector<std::string>& problems) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  if (v[0] == '-') {  // strtoull silently negates; reject explicitly
    note(problems, name, v, "must be >= 0");
    return;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') {
    note(problems, name, v, "not an integer");
  } else if (errno == ERANGE) {
    note(problems, name, v, "out of range");
  } else {
    out = static_cast<std::uint64_t>(n);
  }
}

void parse_unit_double(const char* name, double& out,
                       std::vector<std::string>& problems) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0') {
    note(problems, name, v, "not a number");
  } else if (errno == ERANGE || !(d >= 0.0 && d <= 1.0)) {
    note(problems, name, v, "must be in [0, 1]");
  } else {
    out = d;
  }
}

/// DUFP_POLICIES: comma-separated registry names, stored canonically in
/// list order.  Mirrors GridSpec::validate(): every unknown / duplicate /
/// empty entry is its own problem, aggregated with the other knobs.
void parse_policies(const char* name, std::vector<std::string>& out,
                    std::vector<std::string>& problems) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  const auto& registry = core::PolicyRegistry::instance();
  std::vector<std::string> canonical;
  bool ok = true;
  std::string_view rest = v;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view raw = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    const std::string token(trim(raw));
    if (token.empty()) {
      note(problems, name, v, "empty policy name in the list");
      ok = false;
      continue;
    }
    const auto* entry = registry.find(token);
    if (entry == nullptr) {
      note(problems, name, v,
           "unknown policy \"" + token + "\" (known: " +
               registry.known_names() + ")");
      ok = false;
      continue;
    }
    if (std::find(canonical.begin(), canonical.end(), entry->name) !=
        canonical.end()) {
      note(problems, name, v, "duplicate policy \"" + token + "\"");
      ok = false;
      continue;
    }
    canonical.push_back(entry->name);
  }
  if (canonical.empty() && ok) {
    note(problems, name, v, "must name at least one policy");
    ok = false;
  }
  if (ok) out = std::move(canonical);
}

void parse_nonneg_double(const char* name, double& out,
                         std::vector<std::string>& problems) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0') {
    note(problems, name, v, "not a number");
  } else if (errno == ERANGE || !(d >= 0.0) || !std::isfinite(d)) {
    note(problems, name, v, "must be a finite number >= 0");
  } else {
    out = d;
  }
}

/// DUFP_FLEET_ALLOCATOR: one fleet allocator, stored canonically.
/// Unknown names list the registered ones, exactly like DUFP_POLICIES.
void parse_fleet_allocator(const char* name, std::string& out,
                           std::vector<std::string>& problems) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  const std::string token(trim(v));
  if (token.empty()) {
    note(problems, name, v, "must name an allocator");
    return;
  }
  const auto& registry = fleet::FleetAllocatorRegistry::instance();
  const auto* entry = registry.find(token);
  if (entry == nullptr) {
    note(problems, name, v,
         "unknown fleet allocator \"" + token + "\" (known: " +
             registry.known_names() + ")");
    return;
  }
  out = entry->name;
}

void parse_traffic_profile(const char* name, std::string& out,
                           std::vector<std::string>& problems) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  const std::string token(trim(v));
  if (!fleet::TrafficModel::is_known(token)) {
    note(problems, name, v,
         "unknown traffic profile \"" + token + "\" (known: " +
             fleet::TrafficModel::known_profiles() + ")");
    return;
  }
  out = token;
}

}  // namespace

BenchOptions BenchOptions::from_env() {
  BenchOptions o;
  std::vector<std::string> problems;
  parse_int("DUFP_REPS", o.repetitions, 1, problems);
  parse_int("DUFP_SOCKETS", o.sockets, 1, problems);
  parse_int("DUFP_THREADS", o.threads, 0, problems);
  parse_unit_double("DUFP_FAULT_RATE", o.fault_rate, problems);
  parse_u64("DUFP_FAULT_SEED", o.fault_seed, problems);
  parse_unit_double("DUFP_CHAOS", o.chaos_kill_rate, problems);
  parse_u64("DUFP_CHAOS_SEED", o.chaos_seed, problems);
  o.quiet = std::getenv("DUFP_QUIET") != nullptr;
  o.telemetry = std::getenv("DUFP_TELEMETRY") != nullptr;
  parse_policies("DUFP_POLICIES", o.policies, problems);
  parse_int("DUFP_FLEET_RACKS", o.fleet_racks, 1, problems);
  parse_int("DUFP_FLEET_NODES", o.fleet_nodes_per_rack, 1, problems);
  parse_fleet_allocator("DUFP_FLEET_ALLOCATOR", o.fleet_allocator, problems);
  parse_nonneg_double("DUFP_FLEET_BUDGET", o.fleet_budget_w, problems);
  parse_traffic_profile("DUFP_FLEET_TRAFFIC", o.fleet_traffic_profile,
                        problems);
  parse_u64("DUFP_FLEET_TRAFFIC_SEED", o.fleet_traffic_seed, problems);
  if (const char* v = std::getenv("DUFP_OUT_DIR")) {
    if (v[0] == '\0') {
      note(problems, "DUFP_OUT_DIR", v, "must be non-empty");
    } else {
      o.out_dir = v;
    }
  }
  if (!problems.empty()) {
    std::string msg = "BenchOptions: invalid environment:";
    for (const auto& p : problems) msg += "\n  " + p;
    throw std::invalid_argument(msg);
  }
  return o;
}

int BenchOptions::resolved_threads() const {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::string BenchOptions::out_path(const std::string& filename) const {
  const std::filesystem::path dir(out_dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create output directory \"" + out_dir +
                             "\": " + ec.message());
  }
  return (dir / filename).string();
}

}  // namespace dufp::harness
