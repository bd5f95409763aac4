#include "telemetry/export.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "common/string_util.h"

namespace dufp::telemetry {

namespace {

/// Deterministic number rendering shared by the stream exporters below.
std::string format_number(double v) {
  std::string out;
  append_number(v, out);
  return out;
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

namespace {

/// Writes series lines in the order given, with a family's `# HELP` /
/// `# TYPE` header whenever the metric name differs from the previous
/// sample's; the family's sanitized name is computed once, there, and a
/// sample's labels once for all its series.
class Exposition {
 public:
  explicit Exposition(std::string& out) : out_(out) {}

  /// `m`'s series; `extra_key` non-empty adds that label after m's own.
  void sample(const MetricSample& m, std::string_view extra_key,
              std::string_view extra_value) {
    if (last_name_ == nullptr || *last_name_ != m.name) header(m);
    last_name_ = &m.name;
    labels_.clear();
    for (const auto& [k, v] : m.labels) add_label(k, v);
    if (!extra_key.empty()) add_label(extra_key, extra_value);
    if (m.type == MetricType::histogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < m.bucket_counts.size(); ++i) {
        cumulative += m.bucket_counts[i];
        out_ += name_;
        out_ += "_bucket{";
        out_ += labels_;
        out_ += labels_.empty() ? "le=\"" : ",le=\"";
        if (i < m.bucket_bounds.size()) {
          append_number(m.bucket_bounds[i], out_);
        } else {
          out_ += "+Inf";
        }
        out_ += "\"} ";
        append_count(cumulative);
      }
      open_series("_sum");
      append_number(m.sum, out_);
      out_ += '\n';
      open_series("_count");
      append_count(m.count);
    } else {
      open_series({});
      append_number(m.value, out_);
      out_ += '\n';
    }
  }

 private:
  void header(const MetricSample& m) {
    name_ = sanitize_prometheus_name(m.name);
    if (!m.help.empty()) {
      // HELP text escaping: backslash and newline only (the format keeps
      // double quotes verbatim here, unlike label values).
      out_ += "# HELP ";
      out_ += name_;
      out_ += ' ';
      for (const char c : m.help) {
        if (c == '\\') out_ += "\\\\";
        else if (c == '\n') out_ += "\\n";
        else out_ += c;
      }
      out_ += '\n';
    }
    out_ += "# TYPE ";
    out_ += name_;
    out_ += ' ';
    out_ += metric_type_name(m.type);
    out_ += '\n';
  }

  /// Appends `k="v"` to the sample's label list.
  void add_label(std::string_view k, std::string_view v) {
    if (!labels_.empty()) labels_ += ',';
    labels_ += k;
    labels_ += "=\"";
    if (v.find_first_of("\\\"\n") == std::string_view::npos) {
      labels_ += v;
    } else {
      labels_ += prometheus_escape_label(v);
    }
    labels_ += '"';
  }

  /// `<name><suffix>{<labels>} `, braces only around at least one label.
  void open_series(std::string_view suffix) {
    out_ += name_;
    out_ += suffix;
    if (!labels_.empty()) {
      out_ += '{';
      out_ += labels_;
      out_ += '}';
    }
    out_ += ' ';
  }

  void append_count(std::uint64_t n) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, n).ptr);
    out_ += '\n';
  }

  std::string& out_;
  const std::string* last_name_ = nullptr;
  std::string name_;    ///< the current family's sanitized name
  std::string labels_;  ///< the current sample's `k="v",...`
};

}  // namespace

void append_number(double v, std::string& out) {
  char buf[32];
  char* end;
  if (std::isfinite(v) && v == std::floor(v) &&
      std::abs(v) < 9.007199254740992e15) {
    // "%.0f" of an integral double is its integer, and "-0" for -0.0.
    if (v == 0.0 && std::signbit(v)) {
      out += "-0";
      return;
    }
    end = std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(v))
              .ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        9)
              .ptr;
  }
  out.append(buf, end);
}

void write_prometheus(const std::vector<MetricSample>& metrics,
                      std::string& out) {
  Exposition exposition(out);
  for (const MetricSample& m : metrics) exposition.sample(m, {}, {});
}

void write_prometheus_merged(const std::vector<LabelledSamples>& parts,
                             std::string_view label_key, std::string& out) {
  // A min-heap of the parts' cursors on (name at the cursor, part index).
  // Each pop writes one part's whole run of a name.  The part is sorted,
  // so its next name is larger, and every later part's run of the same
  // name pops before it: runs come out in name order, then part order.
  struct Cursor {
    const MetricSample* at;
    const MetricSample* end;
    std::size_t part;
  };
  const auto after = [](const Cursor& a, const Cursor& b) {
    const int order = a.at->name.compare(b.at->name);
    return order != 0 ? order > 0 : a.part > b.part;
  };
  std::vector<Cursor> heap;
  heap.reserve(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::vector<MetricSample>& samples = *parts[p].samples;
    if (samples.empty()) continue;
    heap.push_back({samples.data(), samples.data() + samples.size(), p});
  }
  std::make_heap(heap.begin(), heap.end(), after);
  Exposition exposition(out);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    Cursor& c = heap.back();
    const std::string& name = c.at->name;
    const std::string& value = parts[c.part].label_value;
    do {
      exposition.sample(*c.at, label_key, value);
      ++c.at;
    } while (c.at != c.end && c.at->name == name);
    if (c.at == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), after);
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
    std::string prom;
    write_prometheus(snap.metrics, prom);
    f << prom;
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
