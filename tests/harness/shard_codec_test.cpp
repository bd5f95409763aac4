// The grid payload of wire v2 (DESIGN.md § Sharded execution): a storm
// job's RunResult survives the compact codec bit for bit, a gathered
// grid carries flight data for job 0 alone, a v1 file is a format error,
// and every hostile record fails cleanly — thrown in strict mode, a note
// in partial mode — instead of being truncated into a plausible value.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/shard.h"
#include "harness/shard_codec.h"
#include "telemetry/export.h"

namespace dufp::harness {
namespace {

GridSpec storm_spec() {
  GridSpec spec;
  spec.name = "codec-storm";
  spec.apps = {workloads::AppId::cg};
  spec.policies = {"DUFP"};
  spec.tolerances = {0.10};
  spec.repetitions = 2;  // baseline x 2 + DUFP x 2 = 4 jobs
  spec.seed = 3;
  spec.sockets = 2;
  spec.fault_rate = 0.05;
  spec.fault_seed = 4;
  spec.telemetry = true;
  return spec;
}

std::string temp_path(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "_" +
                     info->name() + "_" + tag;
  // Parameterized names contain '/'.
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name;
}

std::string run_shard_file(const GridSpec& spec, int shard, int shards) {
  const std::string path =
      temp_path("s" + std::to_string(shard) + ".jsonl");
  std::ofstream out(path, std::ios::binary);
  ShardRunOptions opts;
  opts.shard = shard;
  opts.shards = shards;
  run_shard(spec, opts, out);
  return path;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string write_lines(const std::vector<std::string>& lines,
                        const std::string& tag) {
  const std::string path = temp_path(tag + ".jsonl");
  std::ofstream out(path, std::ios::binary);
  for (const auto& l : lines) out << l << '\n';
  return path;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string prometheus(const telemetry::TelemetrySnapshot& snap) {
  std::ostringstream os;
  telemetry::write_prometheus(snap.metrics, os);
  return os.str();
}

/// A DUFP storm job run with flight data kept, plus the values a compact
/// codec is most likely to mangle: -0.0 (whose bits are not zero), a NaN
/// with a payload, and an empty help string.
RunResult edge_case_result() {
  const GridPlan gp = build_plan(storm_spec());
  RunConfig cfg = gp.plan.job_config(2);  // the first DUFP job
  cfg.telemetry.snapshot_flight = true;
  RunResult r = run_once(cfg);
  telemetry::TelemetrySnapshot& snap = *r.telemetry;
  telemetry::MetricSample neg_zero;
  neg_zero.type = telemetry::MetricType::gauge;
  neg_zero.name = "dufp_test_negative_zero";
  neg_zero.help = "";
  neg_zero.value = -0.0;
  neg_zero.sum = -0.0;
  snap.metrics.push_back(neg_zero);
  telemetry::MetricSample nan = neg_zero;
  nan.name = "dufp_test_nan_payload";
  nan.labels = {{"socket", "1"}};
  nan.value = std::bit_cast<double>(std::uint64_t{0x7ff8000000000123});
  snap.metrics.push_back(nan);
  return r;
}

TEST(ShardCodecTest, RunResultRoundTripsBitExactly) {
  const RunResult r = edge_case_result();
  ASSERT_FALSE(r.agent_stats.empty());
  ASSERT_FALSE(r.fault_stats.empty());
  const telemetry::TelemetrySnapshot& snap = *r.telemetry;
  ASSERT_EQ(snap.events.size(), 2u);
  bool histogram = false;
  for (const auto& m : snap.metrics) {
    histogram |= m.type == telemetry::MetricType::histogram &&
                 !m.bucket_bounds.empty();
  }
  ASSERT_TRUE(histogram) << "a DUFP job registers a power histogram";

  const RunResult back =
      decode_run_result(json::parse(encode_run_result(r).dump()));
  EXPECT_EQ(back.summary.exec_seconds, r.summary.exec_seconds);
  EXPECT_EQ(back.summary.pkg_energy_j, r.summary.pkg_energy_j);
  EXPECT_EQ(back.summary.total_gflop, r.summary.total_gflop);
  EXPECT_EQ(back.health.faults_injected, r.health.faults_injected);
  ASSERT_EQ(back.agent_stats.size(), r.agent_stats.size());
  ASSERT_EQ(back.fault_stats.size(), r.fault_stats.size());
  for (std::size_t i = 0; i < r.fault_stats.size(); ++i) {
    EXPECT_EQ(back.fault_stats[i].injected, r.fault_stats[i].injected);
  }
  ASSERT_EQ(back.phase_totals.size(), r.phase_totals.size());
  for (const auto& [name, t] : r.phase_totals) {
    const auto it = back.phase_totals.find(name);
    ASSERT_NE(it, back.phase_totals.end());
    EXPECT_EQ(it->second.wall_seconds, t.wall_seconds);
    EXPECT_EQ(it->second.pkg_energy_j, t.pkg_energy_j);
  }

  ASSERT_TRUE(back.telemetry.has_value());
  const telemetry::TelemetrySnapshot& got = *back.telemetry;
  ASSERT_EQ(got.metrics.size(), snap.metrics.size());
  for (std::size_t i = 0; i < snap.metrics.size(); ++i) {
    const auto& want = snap.metrics[i];
    const auto& have = got.metrics[i];
    EXPECT_EQ(have.type, want.type) << want.name;
    EXPECT_EQ(have.name, want.name);
    EXPECT_EQ(have.help, want.help) << want.name;
    EXPECT_EQ(have.labels, want.labels) << want.name;
    EXPECT_EQ(bits(have.value), bits(want.value)) << want.name;
    EXPECT_EQ(bits(have.sum), bits(want.sum)) << want.name;
    EXPECT_EQ(have.count, want.count) << want.name;
    EXPECT_EQ(have.bucket_counts, want.bucket_counts) << want.name;
    ASSERT_EQ(have.bucket_bounds.size(), want.bucket_bounds.size());
    for (std::size_t b = 0; b < want.bucket_bounds.size(); ++b) {
      EXPECT_EQ(bits(have.bucket_bounds[b]), bits(want.bucket_bounds[b]));
    }
  }
  EXPECT_EQ(got.events.size(), snap.events.size());
  EXPECT_EQ(got.dumps.size(), snap.dumps.size());
  // Everything else, byte for byte through the codec's own output.
  EXPECT_EQ(encode_run_result(back).dump(), encode_run_result(r).dump());
}

TEST(ShardCodecTest, HelpIsInternedOncePerRecord) {
  const RunResult r = edge_case_result();
  const std::string record = encode_run_result(r).dump();
  // Both sockets' series share one help entry.
  const std::string help = "Control intervals that produced a decision";
  const auto first = record.find(help);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(record.find(help, first + 1), std::string::npos);
  // Zero-valued fields are left out; -0.0 is not zero.
  EXPECT_EQ(record.find("\"value\":\"0000000000000000\""), std::string::npos);
  EXPECT_NE(record.find("\"value\":\"8000000000000000\""), std::string::npos);
}

TEST(ShardCodecTest, GatheredStormCarriesFlightDataForJobZeroOnly) {
  const GridSpec spec = storm_spec();
  const std::vector<std::string> files = {run_shard_file(spec, 0, 2),
                                          run_shard_file(spec, 1, 2)};
  const std::vector<RunResult> results = gather_shards(spec, files);
  const GridPlan gp = build_plan(spec);
  ASSERT_EQ(results.size(), gp.plan.job_count());
  bool dumped = false;
  for (std::size_t j = 0; j < results.size(); ++j) {
    ASSERT_TRUE(results[j].telemetry.has_value()) << "job " << j;
    const telemetry::TelemetrySnapshot& snap = *results[j].telemetry;
    if (j == 0) {
      EXPECT_EQ(snap.events.size(), static_cast<std::size_t>(spec.sockets));
    } else {
      EXPECT_TRUE(snap.events.empty()) << "job " << j;
      EXPECT_TRUE(snap.dumps.empty()) << "job " << j;
    }
    // The recorders kept recording: every metric, the dump counters
    // included, matches the same job run with its flight data kept.
    RunConfig cfg = gp.plan.job_config(j);
    cfg.telemetry.snapshot_flight = true;
    const RunResult full = run_once(cfg);
    EXPECT_EQ(prometheus(snap), prometheus(*full.telemetry)) << "job " << j;
    dumped |= j != 0 && !full.telemetry->dumps.empty();
  }
  EXPECT_TRUE(dumped) << "the storm should make a job past 0 fail open";
}

TEST(ShardCodecTest, VersionOneHeaderIsAFormatError) {
  const GridSpec spec = storm_spec();
  auto lines = read_lines(run_shard_file(spec, 0, 1));
  ASSERT_GE(lines.size(), 2u);
  const std::string v2 = "\"version\":2";
  const auto pos = lines[0].find(v2);
  ASSERT_NE(pos, std::string::npos) << lines[0];
  lines[0].replace(pos, v2.size(), "\"version\":1");
  const std::string file = write_lines(lines, "v1");
  EXPECT_THROW(gather_shards(spec, {file}), ShardFormatError);

  GatherOptions partial;
  partial.partial = true;
  const GatherReport report = gather_shards_report(spec, {file}, partial);
  EXPECT_EQ(report.records, 0u);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].what.find("version 1"), std::string::npos)
      << report.notes[0].what;
}

// -- hostile records ---------------------------------------------------------

/// A hand-built record whose every field the mutations below target is
/// present exactly once, so each mutation is one unambiguous edit.
RunResult hostile_base() {
  RunResult r;
  r.summary.exec_seconds = 1.5;
  telemetry::TelemetrySnapshot snap;
  telemetry::MetricSample counter;
  counter.type = telemetry::MetricType::counter;
  counter.name = "dufp_test_total";
  counter.help = "A counter";
  counter.labels = {{"socket", "0"}};
  counter.value = 3.0;
  snap.metrics.push_back(counter);
  telemetry::Event e;
  e.t_us = 200000;
  e.kind = telemetry::EventKind::actuation;
  e.socket = 1;
  e.code = 3;
  e.a = 95.0;
  snap.events = {{}, {e}};
  telemetry::FlightDump dump;
  dump.socket = 1;
  dump.at_us = 400000;
  telemetry::Event fail_open;
  fail_open.t_us = dump.at_us;
  fail_open.kind = telemetry::EventKind::fail_open;
  dump.events = {fail_open};
  snap.dumps.push_back(dump);
  r.telemetry = snap;
  return r;
}

struct Mutation {
  const char* name;
  const char* from;
  const char* to;
  const char* error;  ///< expected in the strict-mode message
};

const Mutation kMutations[] = {
    {"help_entry_missing", "{\"help\":0,", "{\"help\":1,", "help entry 1"},
    {"odd_label_list", "[\"socket\",\"0\"]", "[\"socket\",\"0\",\"mode\"]",
     "odd-length label list"},
    {"type_out_of_range", "[0,\"dufp_test_total\"",
     "[3,\"dufp_test_total\"", "metric type 3 out of range"},
    {"negative_type", "[0,\"dufp_test_total\"", "[-1,\"dufp_test_total\"",
     "metric type -1 out of range"},
    {"non_hex_double", "\"value\":\"4008000000000000\"",
     "\"value\":\"40080000000000zz\"", "bad hex digit"},
    {"buckets_on_a_counter", "\"value\":\"4008000000000000\"",
     "\"value\":\"4008000000000000\",\"bucket_counts\":[1]",
     "bucket arrays do not fit the metric type"},
    {"event_socket_too_wide", "\"socket\":1,\"code\"",
     "\"socket\":65537,\"code\"", "event socket 65537"},
    {"event_code_too_wide", "\"code\":3,", "\"code\":70000,",
     "event code 70000"},
    {"dump_socket_outside_run", "{\"socket\":1,\"at_us\"",
     "{\"socket\":2,\"at_us\"", "dump socket 2 outside the run's 2"},
};

void PrintTo(const Mutation& m, std::ostream* os) { *os << m.name; }

class HostileRecordTest : public ::testing::TestWithParam<Mutation> {
 protected:
  void SetUp() override {
    spec_ = storm_spec();
    spec_.fault_rate = 0.0;
    lines_ = read_lines(run_shard_file(spec_, 0, 1));
    ASSERT_EQ(lines_.size(), 1 + build_plan(spec_).plan.job_count());
    record_ = encode_run_result(hostile_base()).dump();
  }

  /// The shard file with job 0's record replaced by `result`.
  std::string with_job0(const std::string& result, const std::string& tag) {
    auto lines = lines_;
    lines[1] = "{\"job\":0,\"result\":" + result + "}";
    return write_lines(lines, tag);
  }

  GridSpec spec_;
  std::vector<std::string> lines_;
  std::string record_;
};

TEST_P(HostileRecordTest, FailsCleanlyInStrictModeAndIsANoteInPartialMode) {
  const Mutation& m = GetParam();
  // The unmutated record gathers, so the failure below is the edit's.
  ASSERT_NO_THROW(gather_shards(spec_, {with_job0(record_, "base")}));

  std::string hostile = record_;
  const auto pos = hostile.find(m.from);
  ASSERT_NE(pos, std::string::npos) << m.from << " in " << hostile;
  ASSERT_EQ(hostile.find(m.from, pos + 1), std::string::npos) << m.from;
  hostile.replace(pos, std::string(m.from).size(), m.to);
  const std::string file = with_job0(hostile, m.name);

  try {
    gather_shards(spec_, {file});
    FAIL() << "strict gather accepted the hostile record";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(m.error), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }

  GatherOptions partial;
  partial.partial = true;
  const GatherReport report = gather_shards_report(spec_, {file}, partial);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_EQ(report.notes[0].line, 2);
  EXPECT_NE(report.notes[0].what.find(m.error), std::string::npos)
      << report.notes[0].what;
  EXPECT_EQ(report.missing, std::vector<std::size_t>{0});
  EXPECT_EQ(report.records, report.job_count - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, HostileRecordTest, ::testing::ValuesIn(kMutations),
    [](const ::testing::TestParamInfo<Mutation>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dufp::harness
