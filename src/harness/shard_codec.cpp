#include "harness/shard_codec.h"

#include <bit>
#include <map>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "common/string_util.h"

namespace dufp::harness {

namespace {

using json::Value;

Value hex(double v) { return Value::make_string(json::double_to_hex(v)); }

double unhex(const Value& v) { return json::hex_to_double(v.as_string()); }

Value encode_health(const HealthTotals& h) {
  Value o = Value::make_object();
  o.add("actuation_retries", Value::make_u64(h.actuation_retries));
  o.add("actuation_failures", Value::make_u64(h.actuation_failures));
  o.add("sample_read_failures", Value::make_u64(h.sample_read_failures));
  o.add("samples_rejected", Value::make_u64(h.samples_rejected));
  o.add("degradations", Value::make_u64(h.degradations));
  o.add("reengagements", Value::make_u64(h.reengagements));
  o.add("intervals_degraded", Value::make_u64(h.intervals_degraded));
  o.add("faults_injected", Value::make_u64(h.faults_injected));
  return o;
}

HealthTotals decode_health(const Value& v) {
  HealthTotals h;
  h.actuation_retries = v.at("actuation_retries").as_u64();
  h.actuation_failures = v.at("actuation_failures").as_u64();
  h.sample_read_failures = v.at("sample_read_failures").as_u64();
  h.samples_rejected = v.at("samples_rejected").as_u64();
  h.degradations = v.at("degradations").as_u64();
  h.reengagements = v.at("reengagements").as_u64();
  h.intervals_degraded = v.at("intervals_degraded").as_u64();
  h.faults_injected = v.at("faults_injected").as_u64();
  return h;
}

Value encode_agent_health(const core::AgentHealth& h) {
  Value o = Value::make_object();
  o.add("actuation_retries", Value::make_u64(h.actuation_retries));
  o.add("actuation_failures", Value::make_u64(h.actuation_failures));
  o.add("sample_read_failures", Value::make_u64(h.sample_read_failures));
  o.add("samples_rejected", Value::make_u64(h.samples_rejected));
  o.add("degradations", Value::make_u64(h.degradations));
  o.add("reengage_failures", Value::make_u64(h.reengage_failures));
  o.add("reengagements", Value::make_u64(h.reengagements));
  o.add("intervals_degraded", Value::make_u64(h.intervals_degraded));
  return o;
}

core::AgentHealth decode_agent_health(const Value& v) {
  core::AgentHealth h;
  h.actuation_retries = v.at("actuation_retries").as_u64();
  h.actuation_failures = v.at("actuation_failures").as_u64();
  h.sample_read_failures = v.at("sample_read_failures").as_u64();
  h.samples_rejected = v.at("samples_rejected").as_u64();
  h.degradations = v.at("degradations").as_u64();
  h.reengage_failures = v.at("reengage_failures").as_u64();
  h.reengagements = v.at("reengagements").as_u64();
  h.intervals_degraded = v.at("intervals_degraded").as_u64();
  return h;
}

Value encode_agent_stats(const core::AgentStats& a) {
  Value o = Value::make_object();
  o.add("intervals", Value::make_u64(a.intervals));
  o.add("uncore_decreases", Value::make_u64(a.uncore_decreases));
  o.add("uncore_increases", Value::make_u64(a.uncore_increases));
  o.add("uncore_resets", Value::make_u64(a.uncore_resets));
  o.add("cap_decreases", Value::make_u64(a.cap_decreases));
  o.add("cap_increases", Value::make_u64(a.cap_increases));
  o.add("cap_resets", Value::make_u64(a.cap_resets));
  o.add("cap_overshoot_resets", Value::make_u64(a.cap_overshoot_resets));
  o.add("short_term_tightenings", Value::make_u64(a.short_term_tightenings));
  o.add("uncore_reset_retries", Value::make_u64(a.uncore_reset_retries));
  o.add("pstate_pins", Value::make_u64(a.pstate_pins));
  o.add("pstate_releases", Value::make_u64(a.pstate_releases));
  o.add("health", encode_agent_health(a.health));
  return o;
}

core::AgentStats decode_agent_stats(const Value& v) {
  core::AgentStats a;
  a.intervals = v.at("intervals").as_u64();
  a.uncore_decreases = v.at("uncore_decreases").as_u64();
  a.uncore_increases = v.at("uncore_increases").as_u64();
  a.uncore_resets = v.at("uncore_resets").as_u64();
  a.cap_decreases = v.at("cap_decreases").as_u64();
  a.cap_increases = v.at("cap_increases").as_u64();
  a.cap_resets = v.at("cap_resets").as_u64();
  a.cap_overshoot_resets = v.at("cap_overshoot_resets").as_u64();
  a.short_term_tightenings = v.at("short_term_tightenings").as_u64();
  a.uncore_reset_retries = v.at("uncore_reset_retries").as_u64();
  a.pstate_pins = v.at("pstate_pins").as_u64();
  a.pstate_releases = v.at("pstate_releases").as_u64();
  a.health = decode_agent_health(v.at("health"));
  return a;
}

// -- telemetry ---------------------------------------------------------------
//
// A snapshot crosses as {"help":[...],"metrics":[...],"events":[...],
// "dumps":[...]}.  "help" interns every metric family once: entry k is
// [type, name, help], and each sample names its entry by index.  The
// table lives in the record, not in the file header, so every record
// still decodes on its own: salvage, duplicate detection and resume all
// take records one at a time, and the header is written before any job
// has run.  A sample omits labels and bucket arrays when they are empty
// and value, sum and count when their bits are zero (-0.0 still
// crosses).  "events" and "dumps" are omitted when empty, which they are
// for every job but 0 of a grid (see ExperimentPlan::job_config).

using telemetry::MetricSample;
using telemetry::MetricType;

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("shard_codec: " + what);
}

bool zero_bits(double v) { return std::bit_cast<std::uint64_t>(v) == 0; }

double unhex_or_zero(const Value& o, std::string_view key) {
  const Value* v = o.find(key);
  return v != nullptr ? unhex(*v) : 0.0;
}

std::uint16_t decode_u16(const Value& v, const char* what) {
  const std::uint64_t x = v.as_u64();
  if (x > 0xffff) {
    malformed(strf("%s %llu does not fit in 16 bits", what,
                   static_cast<unsigned long long>(x)));
  }
  return static_cast<std::uint16_t>(x);
}

/// One entry of a record's help table.
struct MetricFamily {
  MetricType type;
  std::string name;
  std::string help;
};

void encode_metrics(const std::vector<MetricSample>& metrics, Value& out) {
  using Key = std::tuple<MetricType, std::string_view, std::string_view>;
  std::map<Key, std::uint64_t> index;
  Value table = Value::make_array();
  Value samples = Value::make_array();
  for (const MetricSample& m : metrics) {
    const auto [it, fresh] =
        index.try_emplace(Key{m.type, m.name, m.help}, index.size());
    if (fresh) {
      Value entry = Value::make_array();
      entry.push_back(Value::make_i64(static_cast<int>(m.type)));
      entry.push_back(Value::make_string(m.name));
      entry.push_back(Value::make_string(m.help));
      table.push_back(std::move(entry));
    }
    Value o = Value::make_object();
    o.add("help", Value::make_u64(it->second));
    if (!m.labels.empty()) {
      Value labels = Value::make_array();
      for (const auto& [k, val] : m.labels) {
        labels.push_back(Value::make_string(k));
        labels.push_back(Value::make_string(val));
      }
      o.add("labels", std::move(labels));
    }
    if (!zero_bits(m.value)) o.add("value", hex(m.value));
    if (!m.bucket_bounds.empty()) {
      Value bounds = Value::make_array();
      for (const double b : m.bucket_bounds) bounds.push_back(hex(b));
      o.add("bucket_bounds", std::move(bounds));
    }
    if (!m.bucket_counts.empty()) {
      Value counts = Value::make_array();
      for (const std::uint64_t c : m.bucket_counts) {
        counts.push_back(Value::make_u64(c));
      }
      o.add("bucket_counts", std::move(counts));
    }
    if (!zero_bits(m.sum)) o.add("sum", hex(m.sum));
    if (m.count != 0) o.add("count", Value::make_u64(m.count));
    samples.push_back(std::move(o));
  }
  out.add("help", std::move(table));
  out.add("metrics", std::move(samples));
}

std::vector<MetricFamily> decode_help(const Value& v) {
  std::vector<MetricFamily> table;
  for (const Value& entry : v.as_array()) {
    const auto& f = entry.as_array();
    if (f.size() != 3) malformed("help entry is not [type, name, help]");
    const std::int64_t type = f[0].as_i64();
    if (type < 0 || type > static_cast<int>(MetricType::histogram)) {
      malformed(strf("metric type %lld out of range",
                     static_cast<long long>(type)));
    }
    table.push_back({static_cast<MetricType>(type), f[1].as_string(),
                     f[2].as_string()});
  }
  return table;
}

MetricSample decode_metric(const Value& v,
                           const std::vector<MetricFamily>& table) {
  const std::uint64_t entry = v.at("help").as_u64();
  if (entry >= table.size()) {
    malformed(strf("metric names help entry %llu, the record has %zu",
                   static_cast<unsigned long long>(entry), table.size()));
  }
  const MetricFamily& family = table[entry];
  MetricSample m;
  m.type = family.type;
  m.name = family.name;
  m.help = family.help;
  if (const Value* labels = v.find("labels")) {
    const auto& kv = labels->as_array();
    if (kv.size() % 2 != 0) malformed("odd-length label list");
    for (std::size_t i = 0; i < kv.size(); i += 2) {
      m.labels.emplace_back(kv[i].as_string(), kv[i + 1].as_string());
    }
  }
  m.value = unhex_or_zero(v, "value");
  if (const Value* bounds = v.find("bucket_bounds")) {
    for (const Value& b : bounds->as_array()) {
      m.bucket_bounds.push_back(unhex(b));
    }
  }
  if (const Value* counts = v.find("bucket_counts")) {
    for (const Value& c : counts->as_array()) {
      m.bucket_counts.push_back(c.as_u64());
    }
  }
  // A histogram has one count per bound plus +Inf; other types have none.
  const bool buckets_ok =
      m.type == MetricType::histogram
          ? m.bucket_counts.size() == m.bucket_bounds.size() + 1
          : m.bucket_counts.empty() && m.bucket_bounds.empty();
  if (!buckets_ok) malformed("bucket arrays do not fit the metric type");
  m.sum = unhex_or_zero(v, "sum");
  if (const Value* count = v.find("count")) m.count = count->as_u64();
  return m;
}

Value encode_event(const telemetry::Event& e) {
  Value o = Value::make_object();
  o.add("t_us", Value::make_i64(e.t_us));
  o.add("kind", Value::make_i64(static_cast<int>(e.kind)));
  o.add("socket", Value::make_u64(e.socket));
  o.add("code", Value::make_u64(e.code));
  o.add("a", hex(e.a));
  o.add("b", hex(e.b));
  return o;
}

telemetry::Event decode_event(const Value& v) {
  telemetry::Event e;
  e.t_us = v.at("t_us").as_i64();
  const auto kind = v.at("kind").as_i64();
  if (kind < 0 || kind >= telemetry::kEventKindCount) {
    malformed("bad event kind");
  }
  e.kind = static_cast<telemetry::EventKind>(kind);
  e.socket = decode_u16(v.at("socket"), "event socket");
  e.code = decode_u16(v.at("code"), "event code");
  e.a = unhex(v.at("a"));
  e.b = unhex(v.at("b"));
  return e;
}

}  // namespace

json::Value encode_snapshot(const telemetry::TelemetrySnapshot& snap) {
  Value o = Value::make_object();
  encode_metrics(snap.metrics, o);
  if (!snap.events.empty()) {
    Value events = Value::make_array();
    for (const auto& per_socket : snap.events) {
      Value arr = Value::make_array();
      for (const auto& e : per_socket) arr.push_back(encode_event(e));
      events.push_back(std::move(arr));
    }
    o.add("events", std::move(events));
  }
  if (!snap.dumps.empty()) {
    Value dumps = Value::make_array();
    for (const auto& d : snap.dumps) {
      Value dump = Value::make_object();
      dump.add("socket", Value::make_i64(d.socket));
      dump.add("at_us", Value::make_i64(d.at_us));
      Value arr = Value::make_array();
      for (const auto& e : d.events) arr.push_back(encode_event(e));
      dump.add("events", std::move(arr));
      dumps.push_back(std::move(dump));
    }
    o.add("dumps", std::move(dumps));
  }
  return o;
}

telemetry::TelemetrySnapshot decode_snapshot(const json::Value& v) {
  telemetry::TelemetrySnapshot snap;
  const std::vector<MetricFamily> table = decode_help(v.at("help"));
  for (const Value& m : v.at("metrics").as_array()) {
    snap.metrics.push_back(decode_metric(m, table));
  }
  if (const Value* events = v.find("events")) {
    for (const Value& per_socket : events->as_array()) {
      std::vector<telemetry::Event> socket_events;
      for (const Value& e : per_socket.as_array()) {
        socket_events.push_back(decode_event(e));
      }
      snap.events.push_back(std::move(socket_events));
    }
  }
  if (const Value* dumps = v.find("dumps")) {
    // A run records one event ring per socket, so the rings name the
    // sockets a dump may come from.
    for (const Value& d : dumps->as_array()) {
      telemetry::FlightDump dump;
      const std::int64_t socket = d.at("socket").as_i64();
      if (socket < 0 ||
          socket >= static_cast<std::int64_t>(snap.events.size())) {
        malformed(strf("dump socket %lld outside the run's %zu sockets",
                       static_cast<long long>(socket), snap.events.size()));
      }
      dump.socket = static_cast<int>(socket);
      dump.at_us = d.at("at_us").as_i64();
      for (const Value& e : d.at("events").as_array()) {
        dump.events.push_back(decode_event(e));
      }
      snap.dumps.push_back(std::move(dump));
    }
  }
  return snap;
}

json::Value encode_run_result(const RunResult& result) {
  Value o = Value::make_object();

  Value summary = Value::make_object();
  const auto& s = result.summary;
  summary.add("exec_seconds", hex(s.exec_seconds));
  summary.add("pkg_energy_j", hex(s.pkg_energy_j));
  summary.add("dram_energy_j", hex(s.dram_energy_j));
  summary.add("avg_pkg_power_w", hex(s.avg_pkg_power_w));
  summary.add("avg_dram_power_w", hex(s.avg_dram_power_w));
  summary.add("total_gflop", hex(s.total_gflop));
  summary.add("total_gbytes", hex(s.total_gbytes));
  o.add("summary", std::move(summary));

  Value agents = Value::make_array();
  for (const auto& a : result.agent_stats) {
    agents.push_back(encode_agent_stats(a));
  }
  o.add("agent_stats", std::move(agents));

  Value faults = Value::make_array();
  for (const auto& f : result.fault_stats) {
    Value counts = Value::make_array();
    for (const std::uint64_t c : f.injected) counts.push_back(Value::make_u64(c));
    faults.push_back(std::move(counts));
  }
  o.add("fault_stats", std::move(faults));

  o.add("health", encode_health(result.health));

  // std::map iterates key-sorted, so phase order is deterministic.
  Value phases = Value::make_array();
  for (const auto& [name, t] : result.phase_totals) {
    Value p = Value::make_object();
    p.add("name", Value::make_string(name));
    p.add("wall_seconds", hex(t.wall_seconds));
    p.add("pkg_energy_j", hex(t.pkg_energy_j));
    p.add("dram_energy_j", hex(t.dram_energy_j));
    phases.push_back(std::move(p));
  }
  o.add("phase_totals", std::move(phases));

  if (result.telemetry.has_value()) {
    o.add("telemetry", encode_snapshot(*result.telemetry));
  }
  return o;
}

RunResult decode_run_result(const json::Value& v) {
  RunResult r;
  const Value& summary = v.at("summary");
  r.summary.exec_seconds = unhex(summary.at("exec_seconds"));
  r.summary.pkg_energy_j = unhex(summary.at("pkg_energy_j"));
  r.summary.dram_energy_j = unhex(summary.at("dram_energy_j"));
  r.summary.avg_pkg_power_w = unhex(summary.at("avg_pkg_power_w"));
  r.summary.avg_dram_power_w = unhex(summary.at("avg_dram_power_w"));
  r.summary.total_gflop = unhex(summary.at("total_gflop"));
  r.summary.total_gbytes = unhex(summary.at("total_gbytes"));

  for (const Value& a : v.at("agent_stats").as_array()) {
    r.agent_stats.push_back(decode_agent_stats(a));
  }
  for (const Value& f : v.at("fault_stats").as_array()) {
    const auto& counts = f.as_array();
    faults::FaultStats fs;
    if (counts.size() != fs.injected.size()) {
      malformed("fault class count mismatch");
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
      fs.injected[i] = counts[i].as_u64();
    }
    r.fault_stats.push_back(fs);
  }
  r.health = decode_health(v.at("health"));
  for (const Value& p : v.at("phase_totals").as_array()) {
    sim::PhaseTotals t;
    t.wall_seconds = unhex(p.at("wall_seconds"));
    t.pkg_energy_j = unhex(p.at("pkg_energy_j"));
    t.dram_energy_j = unhex(p.at("dram_energy_j"));
    r.phase_totals.emplace(p.at("name").as_string(), t);
  }
  if (const Value* telem = v.find("telemetry")) {
    r.telemetry = decode_snapshot(*telem);
  }
  return r;
}

}  // namespace dufp::harness
