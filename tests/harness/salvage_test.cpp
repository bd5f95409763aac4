// Salvageable gather + retry manifests (DESIGN.md § Failure model &
// recovery): partial mode recovers every complete record from damaged
// shard files, reports exactly what is missing, and the emitted retry
// manifest drives a resume run whose gathered bytes are identical to a
// run that never failed.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/shard.h"
#include "harness/shard_codec.h"

namespace dufp::harness {
namespace {

GridSpec small_spec() {
  GridSpec spec;
  spec.name = "salvage-test";
  spec.apps = {workloads::AppId::cg};
  spec.policies = {"DUF", "DUFP"};
  spec.tolerances = {0.10};
  spec.repetitions = 3;  // 3 cells x 3 reps = 9 jobs
  spec.seed = 5;
  spec.sockets = 2;
  spec.telemetry = true;
  return spec;
}

std::string temp_path(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "_" + info->name() +
         "_" + tag;
}

std::string run_shard_file(const GridSpec& spec, const ShardRunOptions& opts,
                           const std::string& tag) {
  const std::string path = temp_path(tag + ".jsonl");
  std::ofstream out(path, std::ios::binary);
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

std::string write_text(const std::string& text, const std::string& tag) {
  const std::string path = temp_path(tag + ".jsonl");
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

/// Every deterministic byte a gathered grid produces (see shard_test).
std::string output_bytes(const GridOutputs& out) {
  std::string bytes = out.evaluation_csv;
  bytes += '\x1f';
  bytes += out.merged_prometheus;
  bytes += '\x1f';
  if (out.job0_telemetry.has_value()) {
    RunResult job0;
    job0.telemetry = out.job0_telemetry;
    bytes += encode_run_result(job0).dump();
  }
  return bytes;
}

/// The file's bytes cut mid-way through its final record — what a
/// SIGKILLed worker's torn `.partial` stream looks like.
std::string truncate_mid_record(const std::string& whole,
                                const std::string& tag) {
  const auto lines = read_lines(whole);
  std::string torn;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    torn += lines[i];
    torn += '\n';
  }
  torn += lines.back().substr(0, lines.back().size() / 2);  // no newline
  return write_text(torn, tag);
}

TEST(SalvageGatherTest, PartialModeSalvagesTruncatedFileAndReportsMissing) {
  const GridSpec spec = small_spec();
  const std::string whole = run_shard_file(spec, {}, "whole");
  const std::string torn = truncate_mid_record(whole, "torn");

  // Strict gather refuses the damage loudly...
  EXPECT_THROW(gather_shards(spec, {torn}), std::runtime_error);

  // ...partial mode keeps every record before the tear.
  GatherOptions opts;
  opts.partial = true;
  const GatherReport report = gather_shards_report(spec, {torn}, opts);
  const std::size_t jobs = build_plan(spec).plan.job_count();
  EXPECT_EQ(report.job_count, jobs);
  EXPECT_FALSE(report.complete());
  ASSERT_EQ(report.missing.size(), 1u) << "only the torn record is lost";
  EXPECT_EQ(report.missing[0], jobs - 1);
  EXPECT_EQ(report.records, jobs - 1);
  ASSERT_FALSE(report.notes.empty());
  EXPECT_EQ(report.notes[0].file, torn);
  EXPECT_EQ(report.notes[0].line, static_cast<int>(jobs + 1));
}

TEST(SalvageGatherTest, PartialModeSkipsUnreadableAndHeaderlessFiles) {
  const GridSpec spec = small_spec();
  const std::string whole = run_shard_file(spec, {}, "whole");
  const std::string headerless = write_text("", "headerless");
  GatherOptions opts;
  opts.partial = true;
  const GatherReport report = gather_shards_report(
      spec, {headerless, temp_path("does_not_exist.jsonl"), whole}, opts);
  EXPECT_TRUE(report.complete()) << "the intact file carries the whole grid";
  EXPECT_EQ(report.notes.size(), 2u);  // one per damaged input
}

TEST(SalvageGatherTest, IdempotentDuplicatesDroppedDivergentDuplicatesFatal) {
  const GridSpec spec = small_spec();
  const std::string whole = run_shard_file(spec, {}, "whole");
  GatherOptions opts;
  opts.partial = true;

  // A reclaimed chunk legitimately re-emits its jobs with identical
  // bytes: tolerated, counted.
  const GatherReport report =
      gather_shards_report(spec, {whole, whole}, opts);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.duplicates, report.job_count);

  // Two *different* results for one job is a determinism violation —
  // fatal even in salvage mode.  Forge one by re-labelling job 1's
  // (valid, decodable) record as job 0.
  const auto lines = read_lines(whole);
  ASSERT_GE(lines.size(), 3u);
  std::string forged = lines[2];
  const auto pos = forged.find("\"job\":1");
  ASSERT_NE(pos, std::string::npos);
  forged.replace(pos, std::string("\"job\":1").size(), "\"job\":0");
  const std::string tampered =
      write_text(lines[0] + '\n' + forged + '\n', "tampered");
  EXPECT_THROW(gather_shards_report(spec, {whole, tampered}, opts),
               std::runtime_error);
}

TEST(SalvageGatherTest, StrictMissingErrorListsJobsAndExpectedShards) {
  GridSpec spec = small_spec();
  spec.telemetry = false;
  spec.repetitions = 9;  // 3 cells x 9 reps = 27 jobs; 18 missing > the cap
  ShardRunOptions opts;
  opts.shards = 3;  // shard 0 of 3: header says shards=3
  const std::string one = run_shard_file(spec, opts, "shard0");
  try {
    gather_shards(spec, {one});
    FAIL() << "expected a missing-jobs error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job 1 (shard 1)"), std::string::npos) << what;
    EXPECT_NE(what.find("job 2 (shard 2)"), std::string::npos) << what;
    EXPECT_EQ(what.find("job 0 "), std::string::npos)
        << "job 0 was gathered: " << what;
    EXPECT_NE(what.find("more"), std::string::npos)
        << "12 missing jobs listed beyond the cap: " << what;
    EXPECT_NE(what.find("--partial"), std::string::npos)
        << "the error must point at the salvage path: " << what;
  }
}

TEST(SalvageGatherTest, RetryManifestRoundTripsAndRejectsTampering) {
  const GridSpec spec = small_spec();
  const std::string whole = run_shard_file(spec, {}, "whole");
  const std::string torn = truncate_mid_record(whole, "torn");
  GatherOptions opts;
  opts.partial = true;
  const GatherReport report = gather_shards_report(spec, {torn}, opts);
  ASSERT_FALSE(report.complete());

  const RetryManifest manifest = make_retry_manifest(spec, report);
  EXPECT_EQ(manifest.missing, report.missing);
  const auto back = RetryManifest<GridSpec>::from_json(
      json::parse(manifest.canonical_text()));
  EXPECT_EQ(back.missing, manifest.missing);
  EXPECT_EQ(back.spec.fingerprint(), spec.fingerprint());

  // The embedded fingerprint is a tamper guard: a manifest whose spec
  // was edited after the fact must not silently resume a different grid.
  std::string text = manifest.canonical_text();
  const auto pos = text.find("\"spec_fingerprint\":\"");
  ASSERT_NE(pos, std::string::npos);
  text[pos + std::string("\"spec_fingerprint\":\"").size()] ^= 1;
  EXPECT_THROW(RetryManifest<GridSpec>::from_json(json::parse(text)),
               std::runtime_error);

  // A complete report has nothing to retry.
  GatherReport done = gather_shards_report(spec, {whole}, opts);
  EXPECT_THROW(make_retry_manifest(spec, done), std::logic_error);
}

TEST(SalvageGatherTest, ResumeGathersToBytesIdenticalToUnfailedRun) {
  const GridSpec spec = small_spec();
  const std::string serial = output_bytes(run_grid_serial(spec));

  const std::string whole = run_shard_file(spec, {}, "whole");
  const std::string torn = truncate_mid_record(whole, "torn");
  GatherOptions opts;
  opts.partial = true;
  const GatherReport report = gather_shards_report(spec, {torn}, opts);
  ASSERT_FALSE(report.complete());
  const RetryManifest manifest = make_retry_manifest(spec, report);

  // `run --resume` executes exactly the manifest's missing jobs...
  ShardRunOptions resume;
  resume.job_filter = &manifest.missing;
  const std::string rescue = run_shard_file(manifest.spec, resume, "rescue");

  // ...and the combined gather is byte-identical to a run that never
  // failed.
  GatherReport final_report =
      gather_shards_report(spec, {torn, rescue}, opts);
  ASSERT_TRUE(final_report.complete());
  EXPECT_EQ(output_bytes(finalize_grid(spec, std::move(final_report.results))),
            serial);
}

TEST(SalvageGatherTest, JobFilterValidatesItsIndices) {
  const GridSpec spec = small_spec();
  const std::vector<std::size_t> descending = {3, 1};
  const std::vector<std::size_t> out_of_range = {0, 999};
  ShardRunOptions opts;
  std::ostringstream sink;
  opts.job_filter = &descending;
  EXPECT_THROW(run_shard(spec, opts, sink), std::invalid_argument);
  opts.job_filter = &out_of_range;
  EXPECT_THROW(run_shard(spec, opts, sink), std::invalid_argument);
  // The static shard index is checked the same way: shard == shards and
  // shards == 0 name no worker.
  opts.job_filter = nullptr;
  opts.shard = 2;
  opts.shards = 2;
  EXPECT_THROW(run_shard(spec, opts, sink), std::invalid_argument);
  opts.shard = 0;
  opts.shards = 0;
  EXPECT_THROW(run_shard(spec, opts, sink), std::invalid_argument);
}

}  // namespace
}  // namespace dufp::harness
