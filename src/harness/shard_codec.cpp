#include "harness/shard_codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "common/string_util.h"

namespace dufp::harness {

namespace {

using json::Items;
using json::Value;
using json::Writer;

double unhex(const Value& v) { return json::hex_to_double(v.as_string()); }

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("shard_codec: " + what);
}

/// The members of `v`, an object that may omit some of them: one slot per
/// name in `names`, in that order, null where the member is absent.
/// Every record comes from this codec's writer, which writes each member
/// once and no other, so an unknown or repeated member is damage (a
/// flipped bit in a key, say); read past, it would silently drop the
/// value it carries.
template <std::size_t N>
std::array<const Value*, N> members(
    const Value& v, const std::array<std::string_view, N>& names,
    const char* what) {
  std::array<const Value*, N> slots{};
  for (const auto& [key, field] : v.as_object()) {
    const auto it = std::find(names.begin(), names.end(), key);
    if (it == names.end()) {
      malformed(strf("%s: unknown member \"%s\"", what, key.c_str()));
    }
    const Value*& slot = slots[static_cast<std::size_t>(it - names.begin())];
    if (slot != nullptr) {
      malformed(strf("%s: repeated member \"%s\"", what, key.c_str()));
    }
    slot = &field;
  }
  return slots;
}

/// A slot members() filled for a member the object must carry.
const Value& required(const Value* field, const char* name,
                      const char* what) {
  if (field == nullptr) {
    malformed(strf("%s: missing member \"%s\"", what, name));
  }
  return *field;
}

void write_health(Writer& w, const HealthTotals& h) {
  w.begin_object()
      .key("actuation_retries").u64(h.actuation_retries)
      .key("actuation_failures").u64(h.actuation_failures)
      .key("sample_read_failures").u64(h.sample_read_failures)
      .key("samples_rejected").u64(h.samples_rejected)
      .key("degradations").u64(h.degradations)
      .key("reengagements").u64(h.reengagements)
      .key("intervals_degraded").u64(h.intervals_degraded)
      .key("faults_injected").u64(h.faults_injected)
      .end_object();
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

void write_agent_health(Writer& w, const core::AgentHealth& h) {
  w.begin_object()
      .key("actuation_retries").u64(h.actuation_retries)
      .key("actuation_failures").u64(h.actuation_failures)
      .key("sample_read_failures").u64(h.sample_read_failures)
      .key("samples_rejected").u64(h.samples_rejected)
      .key("degradations").u64(h.degradations)
      .key("reengage_failures").u64(h.reengage_failures)
      .key("reengagements").u64(h.reengagements)
      .key("intervals_degraded").u64(h.intervals_degraded)
      .end_object();
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

void write_agent_stats(Writer& w, const core::AgentStats& a) {
  w.begin_object()
      .key("intervals").u64(a.intervals)
      .key("uncore_decreases").u64(a.uncore_decreases)
      .key("uncore_increases").u64(a.uncore_increases)
      .key("uncore_resets").u64(a.uncore_resets)
      .key("cap_decreases").u64(a.cap_decreases)
      .key("cap_increases").u64(a.cap_increases)
      .key("cap_resets").u64(a.cap_resets)
      .key("cap_overshoot_resets").u64(a.cap_overshoot_resets)
      .key("short_term_tightenings").u64(a.short_term_tightenings)
      .key("uncore_reset_retries").u64(a.uncore_reset_retries)
      .key("pstate_pins").u64(a.pstate_pins)
      .key("pstate_releases").u64(a.pstate_releases)
      .key("health");
  write_agent_health(w, a.health);
  w.end_object();
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

bool zero_bits(double v) { return std::bit_cast<std::uint64_t>(v) == 0; }

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

/// The "help" table and the "metrics" array.  Samples arrive sorted by
/// name (MetricsRegistry::collect), so a family is almost always the
/// previous sample's; the map finds the rest.
void write_metrics(Writer& w, const std::vector<MetricSample>& metrics) {
  using Key = std::tuple<MetricType, std::string_view, std::string_view>;
  std::map<Key, std::uint64_t> index;
  std::vector<std::uint64_t> family(metrics.size());
  w.key("help").begin_array();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSample& m = metrics[i];
    if (i > 0 && m.type == metrics[i - 1].type &&
        m.name == metrics[i - 1].name && m.help == metrics[i - 1].help) {
      family[i] = family[i - 1];
      continue;
    }
    const auto [it, fresh] =
        index.try_emplace(Key{m.type, m.name, m.help}, index.size());
    if (fresh) {
      w.begin_array()
          .i64(static_cast<int>(m.type))
          .string(m.name)
          .string(m.help)
          .end_array();
    }
    family[i] = it->second;
  }
  w.end_array();

  w.key("metrics").begin_array();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSample& m = metrics[i];
    w.begin_object().key("help").u64(family[i]);
    if (!m.labels.empty()) {
      w.key("labels").begin_array();
      for (const auto& [k, val] : m.labels) w.string(k).string(val);
      w.end_array();
    }
    if (!zero_bits(m.value)) w.key("value").hex(m.value);
    if (!m.bucket_bounds.empty()) {
      w.key("bucket_bounds").begin_array();
      for (const double b : m.bucket_bounds) w.hex(b);
      w.end_array();
    }
    if (!m.bucket_counts.empty()) {
      w.key("bucket_counts").begin_array();
      for (const std::uint64_t c : m.bucket_counts) w.u64(c);
      w.end_array();
    }
    if (!zero_bits(m.sum)) w.key("sum").hex(m.sum);
    if (m.count != 0) w.key("count").u64(m.count);
    w.end_object();
  }
  w.end_array();
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

constexpr std::array<std::string_view, 7> kMetricMembers = {
    "help", "labels", "value", "bucket_bounds", "bucket_counts", "sum",
    "count"};

MetricSample decode_metric(const Value& v,
                           const std::vector<MetricFamily>& table) {
  // Samples are most of a record, so their members are read in one pass
  // rather than one find() each.
  const auto [help, labels, value, bounds, counts, sum, count] =
      members(v, kMetricMembers, "metric sample");
  const std::uint64_t entry =
      required(help, "help", "metric sample").as_u64();
  if (entry >= table.size()) {
    malformed(strf("metric names help entry %llu, the record has %zu",
                   static_cast<unsigned long long>(entry), table.size()));
  }
  const MetricFamily& family = table[entry];
  MetricSample m;
  m.type = family.type;
  m.name = family.name;
  m.help = family.help;
  if (labels != nullptr) {
    const auto& kv = labels->as_array();
    if (kv.size() % 2 != 0) malformed("odd-length label list");
    m.labels.reserve(kv.size() / 2);
    for (std::size_t i = 0; i < kv.size(); i += 2) {
      m.labels.emplace_back(kv[i].as_string(), kv[i + 1].as_string());
    }
  }
  if (value != nullptr) m.value = unhex(*value);
  if (bounds != nullptr) {
    m.bucket_bounds.reserve(bounds->as_array().size());
    for (const Value& b : bounds->as_array()) {
      m.bucket_bounds.push_back(unhex(b));
    }
  }
  if (counts != nullptr) {
    m.bucket_counts.reserve(counts->as_array().size());
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
  if (sum != nullptr) m.sum = unhex(*sum);
  if (count != nullptr) m.count = count->as_u64();
  return m;
}

void write_events(Writer& w, const std::vector<telemetry::Event>& events) {
  w.begin_array();
  for (const telemetry::Event& e : events) {
    w.begin_object()
        .key("t_us").i64(e.t_us)
        .key("kind").i64(static_cast<int>(e.kind))
        .key("socket").u64(e.socket)
        .key("code").u64(e.code)
        .key("a").hex(e.a)
        .key("b").hex(e.b)
        .end_object();
  }
  w.end_array();
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

void write_snapshot(Writer& w, const telemetry::TelemetrySnapshot& snap) {
  w.begin_object();
  write_metrics(w, snap.metrics);
  if (!snap.events.empty()) {
    w.key("events").begin_array();
    for (const auto& per_socket : snap.events) write_events(w, per_socket);
    w.end_array();
  }
  if (!snap.dumps.empty()) {
    w.key("dumps").begin_array();
    for (const auto& d : snap.dumps) {
      w.begin_object().key("socket").i64(d.socket).key("at_us").i64(d.at_us);
      w.key("events");
      write_events(w, d.events);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

constexpr std::array<std::string_view, 4> kSnapshotMembers = {
    "help", "metrics", "events", "dumps"};

telemetry::TelemetrySnapshot decode_snapshot(const Value& v) {
  constexpr const char* kWhat = "telemetry snapshot";
  const auto [help, metrics_member, events, dumps] =
      members(v, kSnapshotMembers, kWhat);
  telemetry::TelemetrySnapshot snap;
  const std::vector<MetricFamily> table =
      decode_help(required(help, "help", kWhat));
  const Items& metrics = required(metrics_member, "metrics", kWhat).as_array();
  snap.metrics.reserve(metrics.size());
  for (const Value& m : metrics) snap.metrics.push_back(decode_metric(m, table));
  if (events != nullptr) {
    for (const Value& per_socket : events->as_array()) {
      std::vector<telemetry::Event> socket_events;
      for (const Value& e : per_socket.as_array()) {
        socket_events.push_back(decode_event(e));
      }
      snap.events.push_back(std::move(socket_events));
    }
  }
  if (dumps != nullptr) {
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

}  // namespace

json::Value encode_run_result(const RunResult& result) {
  std::string text;
  Writer w(text);
  const auto& s = result.summary;
  w.begin_object()
      .key("summary").begin_object()
      .key("exec_seconds").hex(s.exec_seconds)
      .key("pkg_energy_j").hex(s.pkg_energy_j)
      .key("dram_energy_j").hex(s.dram_energy_j)
      .key("avg_pkg_power_w").hex(s.avg_pkg_power_w)
      .key("avg_dram_power_w").hex(s.avg_dram_power_w)
      .key("total_gflop").hex(s.total_gflop)
      .key("total_gbytes").hex(s.total_gbytes)
      .end_object();

  w.key("agent_stats").begin_array();
  for (const auto& a : result.agent_stats) write_agent_stats(w, a);
  w.end_array();

  w.key("fault_stats").begin_array();
  for (const auto& f : result.fault_stats) {
    w.begin_array();
    for (const std::uint64_t c : f.injected) w.u64(c);
    w.end_array();
  }
  w.end_array();

  w.key("health");
  write_health(w, result.health);

  // std::map iterates key-sorted, so phase order is deterministic.
  w.key("phase_totals").begin_array();
  for (const auto& [name, t] : result.phase_totals) {
    w.begin_object()
        .key("name").string(name)
        .key("wall_seconds").hex(t.wall_seconds)
        .key("pkg_energy_j").hex(t.pkg_energy_j)
        .key("dram_energy_j").hex(t.dram_energy_j)
        .end_object();
  }
  w.end_array();

  if (result.telemetry.has_value()) {
    w.key("telemetry");
    write_snapshot(w, *result.telemetry);
  }
  w.end_object();
  return Value::make_raw(std::move(text));
}

constexpr std::array<std::string_view, 6> kRunResultMembers = {
    "summary", "agent_stats", "fault_stats", "health", "phase_totals",
    "telemetry"};

RunResult decode_run_result(const json::Value& v) {
  constexpr const char* kWhat = "run result";
  const auto [summary_member, agent_stats, fault_stats, health, phase_totals,
              telemetry] = members(v, kRunResultMembers, kWhat);
  RunResult r;
  const Value& summary = required(summary_member, "summary", kWhat);
  r.summary.exec_seconds = unhex(summary.at("exec_seconds"));
  r.summary.pkg_energy_j = unhex(summary.at("pkg_energy_j"));
  r.summary.dram_energy_j = unhex(summary.at("dram_energy_j"));
  r.summary.avg_pkg_power_w = unhex(summary.at("avg_pkg_power_w"));
  r.summary.avg_dram_power_w = unhex(summary.at("avg_dram_power_w"));
  r.summary.total_gflop = unhex(summary.at("total_gflop"));
  r.summary.total_gbytes = unhex(summary.at("total_gbytes"));

  for (const Value& a :
       required(agent_stats, "agent_stats", kWhat).as_array()) {
    r.agent_stats.push_back(decode_agent_stats(a));
  }
  for (const Value& f :
       required(fault_stats, "fault_stats", kWhat).as_array()) {
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
  r.health = decode_health(required(health, "health", kWhat));
  // The encoder writes the name-keyed map in order, so a name that does
  // not sort after the one before it (repeated, or renamed by damage)
  // would otherwise be dropped or re-sorted silently.
  for (const Value& p :
       required(phase_totals, "phase_totals", kWhat).as_array()) {
    sim::PhaseTotals t;
    t.wall_seconds = unhex(p.at("wall_seconds"));
    t.pkg_energy_j = unhex(p.at("pkg_energy_j"));
    t.dram_energy_j = unhex(p.at("dram_energy_j"));
    const std::string& name = p.at("name").as_string();
    if (!r.phase_totals.empty() && !(r.phase_totals.rbegin()->first < name)) {
      malformed(strf("%s: phase \"%s\" does not sort after \"%s\"", kWhat,
                     name.c_str(), r.phase_totals.rbegin()->first.c_str()));
    }
    r.phase_totals.emplace_hint(r.phase_totals.end(), name, t);
  }
  if (telemetry != nullptr) r.telemetry = decode_snapshot(*telemetry);
  return r;
}

}  // namespace dufp::harness
