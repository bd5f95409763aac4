// The sharded execution layer's determinism contract: the same grid run
// serially, as 1 shard, as 3 shards, or in dynamic chunk-claiming mode
// produces byte-identical Evaluation CSV and telemetry export bytes —
// clean and under a fault storm — and malformed shard input is rejected
// loudly, never silently partially merged.
#include "harness/shard.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "harness/shard_codec.h"

namespace dufp::harness {
namespace {

GridSpec small_spec() {
  GridSpec spec;
  spec.name = "shard-test";
  spec.apps = {workloads::AppId::cg};
  spec.policies = {"DUF", "DUFP"};
  spec.tolerances = {0.10};
  spec.repetitions = 3;  // 3 cells (baseline + 2 modes x 1 tol) x 3 = 9 jobs
  spec.seed = 5;
  spec.sockets = 2;
  spec.telemetry = true;
  return spec;
}

GridSpec storm_spec() {
  GridSpec spec = small_spec();
  spec.name = "shard-test-storm";
  spec.fault_rate = 0.02;
  spec.fault_seed = 9;
  return spec;
}

std::string temp_path(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "_" + info->name() +
         "_" + tag;
}

/// Runs one shard to a temp file and returns its path.
std::string run_shard_file(const GridSpec& spec, const ShardRunOptions& opts,
                           const std::string& tag) {
  const std::string path = temp_path(tag + ".jsonl");
  std::ofstream out(path, std::ios::binary);
  run_shard(spec, opts, out);
  return path;
}

std::vector<std::string> run_static_shards(const GridSpec& spec, int shards) {
  std::vector<std::string> files;
  for (int k = 0; k < shards; ++k) {
    ShardRunOptions opts;
    opts.shard = k;
    opts.shards = shards;
    files.push_back(
        run_shard_file(spec, opts, "s" + std::to_string(shards) + "_" +
                                       std::to_string(k)));
  }
  return files;
}

/// Every deterministic byte a gathered grid produces, concatenated:
/// the Evaluation CSV, the merged job-labelled Prometheus exposition,
/// and job 0's full telemetry snapshot (codec serialization).
std::string output_bytes(const GridOutputs& out) {
  std::string bytes = out.evaluation_csv;
  bytes += '\x1f';
  bytes += out.merged_prometheus;
  bytes += '\x1f';
  if (out.job0_telemetry.has_value()) {
    bytes += encode_snapshot(*out.job0_telemetry).dump();
  }
  return bytes;
}

void expect_all_modes_identical(const GridSpec& spec) {
  const std::string serial = output_bytes(run_grid_serial(spec));
  ASSERT_FALSE(serial.empty());

  const auto one = run_static_shards(spec, 1);
  EXPECT_EQ(output_bytes(finalize_grid(spec, gather_shards(spec, one))),
            serial)
      << "1-shard gather drifted from serial";

  const auto three = run_static_shards(spec, 3);
  EXPECT_EQ(output_bytes(finalize_grid(spec, gather_shards(spec, three))),
            serial)
      << "3-shard gather drifted from serial";

  // Dynamic chunk-claiming: two workers race on a shared claim
  // directory; whichever chunks each wins, the union must gather to the
  // same bytes.
  const std::string claim_dir = temp_path("claims");
  std::filesystem::remove_all(claim_dir);  // stale claims break reruns
  std::filesystem::create_directories(claim_dir);
  FileChunkClaimer claimer(claim_dir);
  std::vector<std::string> dynamic;
  for (int k = 0; k < 2; ++k) {
    ShardRunOptions opts;
    opts.shard = k;
    opts.shards = 2;
    opts.chunk_size = 2;
    opts.claimer = &claimer;
    dynamic.push_back(run_shard_file(spec, opts, "dyn" + std::to_string(k)));
  }
  EXPECT_EQ(output_bytes(finalize_grid(spec, gather_shards(spec, dynamic))),
            serial)
      << "dynamic-chunk gather drifted from serial";
}

TEST(ShardDeterminismTest, SerialOneShardThreeShardDynamicIdentical) {
  expect_all_modes_identical(small_spec());
}

TEST(ShardDeterminismTest, IdenticalUnderFaultStorm) {
  expect_all_modes_identical(storm_spec());
}

TEST(ShardSpecTest, CanonicalTextRoundTripsAndFingerprintIsStable) {
  const GridSpec spec = storm_spec();
  const GridSpec back = GridSpec::parse(spec.canonical_text());
  EXPECT_EQ(back.canonical_text(), spec.canonical_text());
  EXPECT_EQ(back.fingerprint(), spec.fingerprint());
  // Any spec field change must change the fingerprint (shard files from
  // a different grid must not gather).
  GridSpec other = spec;
  other.seed = 6;
  EXPECT_NE(other.fingerprint(), spec.fingerprint());
}

TEST(ShardSpecTest, RejectsInvalidSpecs) {
  GridSpec spec = small_spec();
  spec.policies = {"default"};
  EXPECT_THROW(GridSpec::parse(spec.canonical_text()), std::runtime_error);
  EXPECT_THROW(GridSpec::parse("{\"format\":\"other\"}"), std::runtime_error);
}

TEST(ShardSpecTest, AggregatesUnknownAndDuplicatePolicyProblems) {
  GridSpec spec = small_spec();
  spec.policies = {"DUF", "duf", "sasquatch"};
  try {
    GridSpec::parse(spec.canonical_text());
    FAIL() << "expected an aggregated policy-list error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate policy \"duf\""), std::string::npos)
        << what;
    EXPECT_NE(what.find("unknown policy \"sasquatch\""), std::string::npos)
        << what;
    EXPECT_NE(what.find("known:"), std::string::npos) << what;
  }
}

TEST(ShardSpecTest, ParseCanonicalizesAliasSpellings) {
  GridSpec spec = small_spec();
  spec.policies = {"dufpf", "Cuttlefish"};
  const GridSpec back = GridSpec::parse(spec.canonical_text());
  EXPECT_EQ(back.policies, (std::vector<std::string>{"DUFP-F", "cuttlefish"}));
}

TEST(ShardSpecTest, ReferenceFingerprintIsFrozen) {
  // The reference spec's canonical bytes are a wire contract: shard files
  // stamp this fingerprint, and a gatherer from another build must agree.
  // The policy-registry redesign kept the JSON key "modes" and the
  // canonical names precisely so these bytes never moved.
  const GridSpec spec = GridSpec::reference();
  EXPECT_EQ(spec.canonical_text(),
            "{\"format\":\"dufp-grid-spec\",\"version\":1,"
            "\"name\":\"reference\",\"apps\":[\"CG\",\"EP\"],"
            "\"modes\":[\"DUF\",\"DUFP\"],"
            "\"tolerances\":[0.050000000000000003,0.10000000000000001],"
            "\"repetitions\":3,\"seed\":1,\"sockets\":4,\"fault_rate\":0,"
            "\"fault_seed\":0,\"telemetry\":false}");
  EXPECT_EQ(strf("%016llx",
                 static_cast<unsigned long long>(spec.fingerprint())),
            "21edcce3c4c0b5a6");
}

TEST(ShardAssignTest, StaticRoundRobinPartitionsEveryJobExactlyOnce) {
  std::vector<int> owner(10, -1);
  for (int k = 0; k < 3; ++k) {
    for (const std::size_t j : shard_jobs_static(10, 3, k)) {
      ASSERT_LT(j, owner.size());
      EXPECT_EQ(owner[j], -1) << "job " << j << " assigned twice";
      owner[j] = k;
      EXPECT_EQ(j % 3, static_cast<std::size_t>(k));  // round-robin
    }
  }
  for (std::size_t j = 0; j < owner.size(); ++j) {
    EXPECT_NE(owner[j], -1) << "job " << j << " unassigned";
  }
  EXPECT_THROW(shard_jobs_static(10, 3, 3), std::invalid_argument);
  EXPECT_THROW(shard_jobs_static(10, 0, 0), std::invalid_argument);
}

TEST(ShardAssignTest, FileChunkClaimerClaimsEachChunkOnce) {
  const std::string dir = temp_path("claims");
  std::filesystem::remove_all(dir);  // stale claims break reruns
  std::filesystem::create_directories(dir);
  FileChunkClaimer a(dir);
  FileChunkClaimer b(dir);  // a second cooperating worker
  EXPECT_TRUE(a.try_claim(0));
  EXPECT_FALSE(b.try_claim(0));
  EXPECT_FALSE(a.try_claim(0));
  EXPECT_TRUE(b.try_claim(1));
  EXPECT_FALSE(a.try_claim(1));
}

// -- malformed input ---------------------------------------------------------

class ShardGatherErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = small_spec();
    spec_.telemetry = false;  // keep the error-path fixtures fast
    ShardRunOptions opts;
    file_ = run_shard_file(spec_, opts, "whole");
    std::ifstream in(file_, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) lines_.push_back(line);
    ASSERT_GE(lines_.size(), 2u);
  }

  std::string write_lines(const std::vector<std::string>& lines,
                          const std::string& tag) {
    const std::string path = temp_path(tag + ".jsonl");
    std::ofstream out(path, std::ios::binary);
    for (const auto& l : lines) out << l << '\n';
    return path;
  }

  void expect_gather_error(const std::vector<std::string>& files,
                           const std::string& needle) {
    try {
      gather_shards(spec_, files);
      FAIL() << "expected std::runtime_error containing '" << needle << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual error: " << e.what();
    }
  }

  GridSpec spec_;
  std::string file_;
  std::vector<std::string> lines_;  // header + one line per job
};

TEST_F(ShardGatherErrorTest, MalformedJsonNamesFileAndLine) {
  auto lines = lines_;
  lines[1] = "{\"job\":0,\"result\":{broken";
  expect_gather_error({write_lines(lines, "malformed")}, "2:");
}

TEST_F(ShardGatherErrorTest, TruncatedFileReportsMissingJobs) {
  auto lines = lines_;
  lines.resize(lines.size() - 2);  // drop the last two job records
  expect_gather_error({write_lines(lines, "truncated")}, "missing");
}

TEST_F(ShardGatherErrorTest, DuplicateJobRejected) {
  expect_gather_error({file_, file_}, "already gathered");
}

TEST_F(ShardGatherErrorTest, FingerprintMismatchRejected) {
  GridSpec other = spec_;
  other.seed = 99;
  try {
    gather_shards(other, {file_});
    FAIL() << "expected fingerprint mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST_F(ShardGatherErrorTest, MissingHeaderRejected) {
  auto lines = lines_;
  lines.erase(lines.begin());  // job records with no header
  expect_gather_error({write_lines(lines, "headerless")}, "format");
  expect_gather_error({write_lines({}, "empty")}, "empty");
}

TEST_F(ShardGatherErrorTest, OutOfRangeJobRejected) {
  auto lines = lines_;
  // Rewrite a record's job index beyond the plan.
  const auto pos = lines[1].find("\"job\":");
  ASSERT_NE(pos, std::string::npos);
  lines[1].replace(pos, std::string("\"job\":0").size(), "\"job\":99");
  expect_gather_error({write_lines(lines, "range")}, "out of range");
}

}  // namespace
}  // namespace dufp::harness
