// Exporter contracts: byte-exact golden files for the Prometheus text
// exposition and the Chrome trace JSON (the two formats external tools
// parse), plus the escaping / name-grammar helpers.
//
// Golden files live in tests/telemetry/golden/ (DUFP_TELEMETRY_GOLDEN_DIR
// is injected by CMake).  To regenerate after an intentional format
// change: DUFP_UPDATE_GOLDEN=1 ctest -R Export, then review the diff.
#include "telemetry/export.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace dufp::telemetry {
namespace {

/// A small but representative snapshot: every metric type, labels that
/// need escaping, two sockets of events covering every payload shape, and
/// one fail-open dump.
TelemetrySnapshot golden_snapshot() {
  MetricsRegistry reg;
  Counter c;
  reg.attach("dufp_agent_intervals_total", "Control intervals executed.",
             {{"socket", "0"}, {"mode", "DUFP"}}, c);
  c.inc(42);
  Gauge g = reg.gauge("dufp_run_pkg_power_watts",
                      "Average package power over the run.");
  g.set(112.5);
  Histogram h = reg.histogram("dufp_agent_pkg_power_watts",
                              "Per-interval package power.", {60.0, 120.0},
                              {{"socket", "0"}});
  h.observe(55.0);
  h.observe(100.0);
  h.observe(130.0);
  Gauge esc = reg.gauge("dufp_escape_check",
                        "Help with a backslash \\ in it.",
                        {{"path", "a\\b\"c\nd"}});
  esc.set(1.0);

  TelemetrySnapshot snap;
  snap.metrics = reg.collect();

  auto ev = [](std::int64_t t, EventKind k, std::uint16_t socket,
               std::uint16_t code, double a, double b) {
    Event e;
    e.t_us = t;
    e.kind = k;
    e.socket = socket;
    e.code = code;
    e.a = a;
    e.b = b;
    return e;
  };
  snap.events.resize(2);
  snap.events[0] = {
      ev(200000, EventKind::sample_accepted, 0, 0, 105.25, 2794.0),
      ev(200050, EventKind::actuation, 0,
         static_cast<std::uint16_t>(ActuationOp::uncore), 2200.0, 0.0),
      ev(400000, EventKind::actuation, 0,
         static_cast<std::uint16_t>(ActuationOp::cap_long), 115.0, 150.0),
      ev(600000, EventKind::fail_open, 0, 0, 0.0, 0.0),
  };
  snap.events[1] = {
      ev(200010, EventKind::sample_rejected, 1, 0, 0.0, 0.0),
      ev(400020, EventKind::fault_injected, 1, 3, 0.0, 0.0),
  };

  FlightDump dump;
  dump.socket = 0;
  dump.at_us = 600000;
  dump.events = {snap.events[0][2], snap.events[0][3]};
  snap.dumps.push_back(dump);
  return snap;
}

std::string golden_path(const std::string& file) {
  return std::string(DUFP_TELEMETRY_GOLDEN_DIR) + "/" + file;
}

void expect_matches_golden(const std::string& produced,
                           const std::string& file) {
  const std::string path = golden_path(file);
  if (std::getenv("DUFP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with DUFP_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(produced, want.str()) << "output drifted from " << path;
}

TEST(ExportGoldenTest, PrometheusExposition) {
  std::ostringstream os;
  write_prometheus(golden_snapshot().metrics, os);
  expect_matches_golden(os.str(), "exposition.prom");
}

TEST(ExportGoldenTest, ChromeTraceJson) {
  std::ostringstream os;
  write_chrome_trace(golden_snapshot(), os);
  expect_matches_golden(os.str(), "trace.json");
}

TEST(ExportGoldenTest, Jsonl) {
  std::ostringstream os;
  write_jsonl(golden_snapshot(), os);
  expect_matches_golden(os.str(), "events.jsonl");
}

TEST(ExportTest, PrometheusOutputIsDeterministic) {
  std::ostringstream a;
  std::ostringstream b;
  write_prometheus(golden_snapshot().metrics, a);
  write_prometheus(golden_snapshot().metrics, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ExportTest, ChromeTraceTimestampsNonDecreasing) {
  std::ostringstream os;
  write_chrome_trace(golden_snapshot(), os);
  const std::string out = os.str();
  // Scan the "ts": fields of the instant events; they must be sorted.
  std::int64_t last = -1;
  std::size_t pos = 0;
  int seen = 0;
  while ((pos = out.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    const std::int64_t ts = std::strtoll(out.c_str() + pos, nullptr, 10);
    if (ts != 0) {  // metadata records sit at ts 0 before the stream
      EXPECT_GE(ts, last);
      last = ts;
      ++seen;
    }
  }
  EXPECT_EQ(seen, 6);  // all six instant events present
}

TEST(ExportTest, PrometheusLabelEscaping) {
  EXPECT_EQ(prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheus_escape_label("a\nb"), "a\\nb");
}

TEST(ExportTest, SanitizeProducesValidNames) {
  EXPECT_EQ(sanitize_prometheus_name("dufp_ok"), "dufp_ok");
  EXPECT_EQ(sanitize_prometheus_name("has-dash"), "has_dash");
  EXPECT_EQ(sanitize_prometheus_name("9lead"), "_9lead");
  EXPECT_EQ(sanitize_prometheus_name("x y-z.9"), "x_y_z_9");
}

TEST(ExportTest, EveryMetricNameInGoldenSetIsValid) {
  for (const auto& m : golden_snapshot().metrics) {
    // Already in the metric-name grammar: sanitizing changes nothing.
    EXPECT_EQ(sanitize_prometheus_name(m.name), m.name);
  }
}

}  // namespace
}  // namespace dufp::telemetry
