#include "telemetry/export.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "common/string_util.h"

namespace dufp::telemetry {

namespace {

/// Deterministic number rendering shared by every exporter: integers
/// print without a fractional part, everything else with 9 significant
/// digits — stable across platforms for the golden tests.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) &&
      std::abs(v) < 9.007199254740992e15) {
    return strf("%.0f", v);
  }
  return strf("%.9g", v);
}

void write_series_line(std::ostream& os, const std::string& name,
                       const LabelSet& labels, const std::string& value,
                       const char* extra_key = nullptr,
                       const std::string& extra_value = {}) {
  os << name;
  const bool have_labels = !labels.empty() || extra_key != nullptr;
  if (have_labels) {
    os << '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) os << ',';
      first = false;
      os << k << "=\"" << prometheus_escape_label(v) << '"';
    }
    if (extra_key != nullptr) {
      if (!first) os << ',';
      os << extra_key << "=\"" << prometheus_escape_label(extra_value) << '"';
    }
    os << '}';
  }
  os << ' ' << value << '\n';
}

/// All sockets' ring events merged into one non-decreasing time order.
/// std::stable_sort keeps same-timestamp events in socket-major recording
/// order, so output is deterministic.
std::vector<Event> merged_events(const TelemetrySnapshot& snap) {
  std::vector<Event> all;
  for (const auto& ring : snap.events) {
    all.insert(all.end(), ring.begin(), ring.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& a, const Event& b) {
                     return a.t_us < b.t_us;
                   });
  return all;
}

void write_event_json(std::ostream& os, const Event& e) {
  os << "{\"ts_us\":" << e.t_us << ",\"socket\":" << e.socket << ",\"kind\":\""
     << event_kind_name(e.kind) << "\",\"code\":" << e.code
     << ",\"a\":" << format_number(e.a) << ",\"b\":" << format_number(e.b)
     << '}';
}

}  // namespace

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string sanitize_prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "_" + out;
  return out;
}

void write_prometheus(const std::vector<MetricSample>& metrics,
                      std::ostream& os) {
  const std::string* last_name = nullptr;
  for (const MetricSample& m : metrics) {
    const std::string name = sanitize_prometheus_name(m.name);
    if (last_name == nullptr || *last_name != m.name) {
      if (!m.help.empty()) {
        // HELP text escaping: backslash and newline only (the format
        // keeps double quotes verbatim here, unlike label values).
        std::string help;
        for (const char c : m.help) {
          if (c == '\\') help += "\\\\";
          else if (c == '\n') help += "\\n";
          else help += c;
        }
        os << "# HELP " << name << ' ' << help << '\n';
      }
      os << "# TYPE " << name << ' ' << metric_type_name(m.type) << '\n';
    }
    last_name = &m.name;

    if (m.type == MetricType::histogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < m.bucket_counts.size(); ++i) {
        cumulative += m.bucket_counts[i];
        const std::string le = i < m.bucket_bounds.size()
                                   ? format_number(m.bucket_bounds[i])
                                   : std::string("+Inf");
        write_series_line(os, name + "_bucket", m.labels,
                          std::to_string(cumulative), "le", le);
      }
      write_series_line(os, name + "_sum", m.labels, format_number(m.sum));
      write_series_line(os, name + "_count", m.labels,
                        std::to_string(m.count));
    } else {
      write_series_line(os, name, m.labels, format_number(m.value));
    }
  }
}

void write_chrome_trace(const TelemetrySnapshot& snap, std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
    os << '\n';
  };
  // Metadata: name one pseudo-thread per socket so Perfetto's track
  // labels read "socket N" instead of bare tids.
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << i
       << ",\"args\":{\"name\":\"socket " << i << "\"}}";
  }
  for (const Event& e : merged_events(snap)) {
    sep();
    os << "{\"name\":\"" << event_kind_name(e.kind)
       << "\",\"cat\":\"dufp\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.t_us
       << ",\"pid\":0,\"tid\":" << e.socket << ",\"args\":{\"code\":" << e.code;
    if (e.kind == EventKind::actuation || e.kind == EventKind::actuation_retry ||
        e.kind == EventKind::actuation_failure) {
      os << ",\"op\":\""
         << actuation_op_name(static_cast<ActuationOp>(e.code)) << '"';
    }
    os << ",\"a\":" << format_number(e.a) << ",\"b\":" << format_number(e.b)
       << "}}";
  }
  os << "\n]}\n";
}

void write_jsonl(const TelemetrySnapshot& snap, std::ostream& os) {
  for (const Event& e : merged_events(snap)) {
    write_event_json(os, e);
    os << '\n';
  }
  for (const FlightDump& d : snap.dumps) {
    os << "{\"dump\":true,\"socket\":" << d.socket << ",\"at_us\":" << d.at_us
       << ",\"events\":" << d.events.size() << "}\n";
  }
}

void write_dump(const FlightDump& dump, std::ostream& os) {
  os << "flight dump: socket " << dump.socket << " at t="
     << strf("%.6f", static_cast<double>(dump.at_us) * 1e-6) << "s, "
     << dump.events.size() << " events (oldest first)\n";
  for (const Event& e : dump.events) {
    os << strf("  t=%12.6fs  %-20s",
               static_cast<double>(e.t_us) * 1e-6,
               std::string(event_kind_name(e.kind)).c_str());
    if (e.kind == EventKind::actuation || e.kind == EventKind::actuation_retry ||
        e.kind == EventKind::actuation_failure) {
      os << " op=" << actuation_op_name(static_cast<ActuationOp>(e.code));
    } else if (e.code != 0) {
      os << " code=" << e.code;
    }
    os << " a=" << format_number(e.a) << " b=" << format_number(e.b) << '\n';
  }
}

std::vector<std::string> export_run(const TelemetrySnapshot& snap,
                                    const std::string& prefix) {
  std::vector<std::string> written;
  auto open = [&](const std::string& path) {
    std::ofstream f(path, std::ios::trunc);
    if (!f) throw std::runtime_error("export_run: cannot open " + path);
    written.push_back(path);
    return f;
  };
  {
    auto f = open(prefix + ".prom");
    write_prometheus(snap.metrics, f);
  }
  {
    auto f = open(prefix + ".trace.json");
    write_chrome_trace(snap, f);
  }
  {
    auto f = open(prefix + ".jsonl");
    write_jsonl(snap, f);
  }
  for (std::size_t i = 0; i < snap.dumps.size(); ++i) {
    auto f = open(prefix + ".dump" + std::to_string(i) + ".txt");
    write_dump(snap.dumps[i], f);
  }
  return written;
}

}  // namespace dufp::telemetry
