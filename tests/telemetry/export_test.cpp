// Exporter contracts: byte-exact golden files for the Prometheus text
// exposition and the Chrome trace JSON (the two formats external tools
// parse), plus the escaping / name-grammar helpers.
//
// Golden files live in tests/telemetry/golden/ (DUFP_TELEMETRY_GOLDEN_DIR
// is injected by CMake).  To regenerate after an intentional format
// change: DUFP_UPDATE_GOLDEN=1 ctest -R Export, then review the diff.
#include "telemetry/export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"

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
  std::string prom;
  write_prometheus(golden_snapshot().metrics, prom);
  expect_matches_golden(prom, "exposition.prom");
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
  std::string a;
  std::string b;
  write_prometheus(golden_snapshot().metrics, a);
  write_prometheus(golden_snapshot().metrics, b);
  EXPECT_EQ(a, b);
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

/// The printf rendering append_number replaces, kept as the reference.
std::string printf_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) &&
      std::abs(v) < 9.007199254740992e15) {
    return strf("%.0f", v);
  }
  return strf("%.9g", v);
}

TEST(ExportTest, NumbersMatchPrintfOverGeneratedDoubles) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e15, -1e15, 1e16, 123456789.0,
      0.1, 1.0 / 3.0, 112.5, 2794.0, 1e-300, limits::min(),
      limits::denorm_min(), -limits::denorm_min(), limits::max(),
      limits::lowest(), limits::epsilon(), limits::infinity(),
      -limits::infinity(), limits::quiet_NaN(), -limits::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000123}),
      std::bit_cast<double>(std::uint64_t{0xfff0000000000001})};
  // Integers around 2^53, where "%.0f" hands over to "%.9g".
  for (double k = -4; k <= 4; ++k) {
    values.push_back(9007199254740992.0 + 2 * k);
    values.push_back(-9007199254740992.0 + 2 * k);
    values.push_back(4503599627370496.0 + k);
  }
  Rng rng(53);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    values.push_back(std::bit_cast<double>(bits));  // any class, any sign
    values.push_back(std::bit_cast<double>(bits & 0x800fffffffffffffULL));
    values.push_back(static_cast<double>(static_cast<std::int64_t>(bits) >>
                                         (bits % 64)));
    values.push_back(static_cast<double>(bits % 100000) / 1000.0);
  }
  for (const double v : values) {
    std::string got;
    append_number(v, got);
    ASSERT_EQ(got, printf_number(v))
        << "bits " << std::bit_cast<std::uint64_t>(v);
  }
}

/// One job's collected samples: a counter and a histogram per socket,
/// plus a family only some jobs have.
std::vector<MetricSample> job_samples(int job, bool extra) {
  MetricsRegistry reg;
  for (int socket = 0; socket < 2; ++socket) {
    const LabelSet labels = {{"socket", std::to_string(socket)},
                             {"note", "q\"" + std::to_string(job)}};
    Counter c;
    reg.attach("dufp_b_total", "B.", labels, c);
    c.inc(static_cast<std::uint64_t>(job * 10 + socket));
    Histogram h = reg.histogram("dufp_a_watts", "A.", {0.5, 1.0}, labels);
    h.observe(0.25 * job);
  }
  if (extra) reg.gauge("dufp_ab_extra", "Only some jobs.").set(-0.0);
  return reg.collect();
}

TEST(ExportTest, MergedExpositionIsTheStableSortOfTheLabelledJobs) {
  std::vector<std::vector<MetricSample>> jobs;
  for (int j = 0; j < 5; ++j) jobs.push_back(job_samples(j, j % 2 == 1));
  jobs.insert(jobs.begin() + 2, std::vector<MetricSample>{});  // no samples

  // The reference: every sample labelled with its job, stable-sorted by
  // name, written in one pass.
  std::vector<MetricSample> labelled;
  std::vector<LabelledSamples> parts;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (MetricSample m : jobs[j]) {
      m.labels.emplace_back("job", std::to_string(j));
      labelled.push_back(std::move(m));
    }
    parts.push_back({std::to_string(j), &jobs[j]});
  }
  std::stable_sort(labelled.begin(), labelled.end(),
                   [](const MetricSample& a, const MetricSample& b) {
                     return a.name < b.name;
                   });
  std::string want;
  write_prometheus(labelled, want);

  std::string got = "kept\n";
  write_prometheus_merged(parts, "job", got);
  EXPECT_EQ(got, "kept\n" + want);
  // The job label follows a sample's own labels and precedes `le`; jobs
  // are numbered by position, the empty one included.
  EXPECT_NE(want.find("dufp_ab_extra{job=\"4\"} -0\n"), std::string::npos);
  EXPECT_NE(want.find("dufp_a_watts_bucket{socket=\"1\",note=\"q\\\"4\","
                      "job=\"5\",le=\"+Inf\"} 1\n"),
            std::string::npos)
      << want;

  std::string none;
  write_prometheus_merged({}, "job", none);
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace dufp::telemetry
