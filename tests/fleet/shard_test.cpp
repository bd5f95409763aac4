// The fleet determinism golden: serial, statically sharded, dynamically
// claimed and supervised executions of the same FleetSpec must produce
// byte-identical finalized outputs — with and without a fault storm —
// and the operational surface (salvage, resume manifests, rack/node
// attribution) must match the experiment grids' contract.
#include "fleet/shard.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/allocator.h"
#include "fleet/spec.h"
#include "harness/supervisor.h"

namespace dufp::fleet {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + info->test_suite_name() +
                          std::string("_") + info->name() + "_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

FleetSpec small_spec() {
  FleetSpec spec = FleetSpec::reference();  // 2 x 2 x 4 sockets, 4 epochs
  spec.epoch_seconds = 0.5;
  return spec;
}

/// Runs `shards` static workers in-process and returns their wire bytes.
std::vector<std::string> run_static_shards(const FleetSpec& spec,
                                           int shards) {
  std::vector<std::string> files;
  for (int shard = 0; shard < shards; ++shard) {
    harness::ShardRunOptions options;
    options.shard = shard;
    options.shards = shards;
    std::ostringstream out;
    harness::run_shard(spec, options, out);
    files.push_back(out.str());
  }
  return files;
}

std::vector<std::string> write_files(const std::string& dir,
                                     const std::vector<std::string>& blobs) {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const std::string path = dir + "/shard" + std::to_string(i) + ".jsonl";
    std::ofstream(path, std::ios::binary) << blobs[i];
    paths.push_back(path);
  }
  return paths;
}

FleetOutputs gather_and_finalize(const FleetSpec& spec,
                                 const std::vector<std::string>& files,
                                 bool partial = false) {
  harness::GatherOptions options;
  options.partial = partial;
  const auto report = harness::gather_shards_report(spec, files, options);
  EXPECT_TRUE(report.complete());
  return finalize_fleet(spec, report.results);
}

void expect_identical(const FleetOutputs& a, const FleetOutputs& b) {
  EXPECT_EQ(a.allocation_csv, b.allocation_csv);
  EXPECT_EQ(a.summary_csv, b.summary_csv);
  EXPECT_EQ(a.prometheus, b.prometheus);
}

TEST(FleetShardTest, SerialAndStaticShardsAreByteIdentical) {
  const FleetSpec spec = small_spec();
  const FleetOutputs serial = run_fleet_serial(spec);
  const std::string dir = temp_dir("wire");
  const FleetOutputs sharded = gather_and_finalize(
      spec, write_files(dir, run_static_shards(spec, 2)));
  expect_identical(serial, sharded);
  EXPECT_GT(serial.total_energy_j, 0.0);
  EXPECT_GT(serial.jain_fairness, 0.5);
  EXPECT_LE(serial.jain_fairness, 1.0);
}

TEST(FleetShardTest, DynamicChunkClaimingMatchesSerialBytes) {
  const FleetSpec spec = small_spec();
  const FleetOutputs serial = run_fleet_serial(spec);

  const std::string claim_dir = temp_dir("claims");
  std::vector<std::string> blobs;
  for (int shard = 0; shard < 2; ++shard) {
    harness::FileChunkClaimer claimer(claim_dir,
                                      {"w" + std::to_string(shard), 30.0});
    harness::ShardRunOptions options;
    options.shard = shard;
    options.shards = 2;
    options.chunk_size = 1;
    options.claimer = &claimer;
    std::ostringstream out;
    harness::run_shard(spec, options, out);
    blobs.push_back(out.str());
  }
  const std::string dir = temp_dir("wire");
  expect_identical(serial, gather_and_finalize(spec, write_files(dir, blobs)));
}

TEST(FleetShardTest, EveryAllocatorSupervisedMatchesSerialBytes) {
  // bench/fleet_scaling ranks every registered allocator from serial runs;
  // here each one's reference fleet also runs on 2 forked workers under
  // the supervisor, and the gather must give the serial bytes.
  for (const std::string& name : FleetAllocatorRegistry::instance().names()) {
    SCOPED_TRACE(name);
    FleetSpec spec = FleetSpec::reference();
    spec.allocator = name;
    const FleetOutputs serial = run_fleet_serial(spec);
    EXPECT_GT(serial.total_energy_j, 0.0);
    EXPECT_GE(serial.violation_rate, 0.0);
    EXPECT_LE(serial.violation_rate, 1.0);
    EXPECT_GT(serial.jain_fairness, 0.0);
    EXPECT_LE(serial.jain_fairness, 1.0);

    harness::SupervisorOptions options;
    options.out_dir = temp_dir(name);
    options.workers = 2;
    const harness::SupervisorReport report =
        harness::supervise_shard_run(spec, options);
    ASSERT_TRUE(report.all_chunks_done);
    expect_identical(serial, gather_and_finalize(spec, report.output_files));
  }
}

TEST(FleetShardTest, FaultStormStaysByteIdenticalAcrossSharding) {
  FleetSpec spec = small_spec();
  spec.fault_rate = 0.3;
  spec.fault_seed = 11;
  const FleetOutputs serial = run_fleet_serial(spec);
  const std::string dir = temp_dir("wire");
  const FleetOutputs sharded = gather_and_finalize(
      spec, write_files(dir, run_static_shards(spec, 3)));
  expect_identical(serial, sharded);
  // The storm must actually have fired: the summary's trailing
  // faults_injected,degradations columns cannot both be zero.
  EXPECT_EQ(serial.summary_csv.find(",0,0\n"), std::string::npos)
      << serial.summary_csv;
}

TEST(FleetShardTest, MissingJobsNameRackAndNode) {
  const FleetSpec spec = small_spec();
  auto blobs = run_static_shards(spec, 2);
  blobs.pop_back();  // shard 1 (nodes 1 and 3) never reported
  const std::string dir = temp_dir("wire");
  try {
    harness::gather_shards_report(spec, write_files(dir, blobs));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 of 4 jobs missing"), std::string::npos) << msg;
    EXPECT_NE(msg.find("job 1 = rack 0 / node 1 (shard 1)"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("job 3 = rack 1 / node 1 (shard 1)"),
              std::string::npos)
        << msg;
  }
}

TEST(FleetShardTest, SalvageAndResumeReproduceTheFullRunBytes) {
  const FleetSpec spec = small_spec();
  const FleetOutputs serial = run_fleet_serial(spec);

  // Lose one shard, salvage the rest.
  auto blobs = run_static_shards(spec, 2);
  blobs.pop_back();
  const std::string dir = temp_dir("wire");
  auto files = write_files(dir, blobs);
  harness::GatherOptions partial;
  partial.partial = true;
  const auto report = harness::gather_shards_report(spec, files, partial);
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.missing, (std::vector<std::size_t>{1, 3}));

  // The manifest round-trips and drives a resume run of just the holes.
  const auto manifest = harness::make_retry_manifest(spec, report);
  const auto back = harness::RetryManifest<FleetSpec>::from_json(
      json::parse(manifest.canonical_text()));
  EXPECT_EQ(back.missing, manifest.missing);
  EXPECT_EQ(back.spec.fingerprint(), spec.fingerprint());

  harness::ShardRunOptions resume;
  resume.job_filter = &back.missing;
  std::ostringstream out;
  harness::run_shard(back.spec, resume, out);
  files.push_back(dir + "/resume.jsonl");
  std::ofstream(files.back(), std::ios::binary) << out.str();

  expect_identical(serial, gather_and_finalize(spec, files));
}

TEST(FleetShardTest, RetryManifestTamperGuard) {
  const FleetSpec spec = small_spec();
  harness::RetryManifest<FleetSpec> manifest{spec, {1, 3}};
  std::string text = manifest.canonical_text();

  // Editing the embedded spec without refreshing the fingerprint is a
  // tamper, not a different experiment.
  const auto pos = text.find("\"fleet-reference\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("\"fleet-reference\"").size(),
               "\"fleet-doctored!\"");
  try {
    harness::RetryManifest<FleetSpec>::from_json(json::parse(text));
    FAIL() << "expected ShardFormatError";
  } catch (const harness::ShardFormatError& e) {
    EXPECT_NE(std::string(e.what())
                  .find("does not match its recorded fingerprint"),
              std::string::npos)
        << e.what();
  }

  // Out-of-order or out-of-range missing lists are rejected too.
  harness::RetryManifest<FleetSpec> bad = manifest;
  bad.missing = {3, 1};
  EXPECT_THROW(harness::RetryManifest<FleetSpec>::from_json(
                   json::parse(bad.canonical_text())),
               harness::ShardFormatError);
  bad.missing = {1, 99};
  EXPECT_THROW(harness::RetryManifest<FleetSpec>::from_json(
                   json::parse(bad.canonical_text())),
               harness::ShardFormatError);
}

TEST(FleetShardTest, FinalizeRejectsShapeMismatches) {
  const FleetSpec spec = small_spec();
  EXPECT_THROW(finalize_fleet(spec, {}), std::invalid_argument);
  std::vector<FleetNodeResult> results(spec.topology.node_count());
  // Right node count, wrong epoch count in node 2.
  for (auto& r : results) r.epochs.resize(4);
  results[2].epochs.resize(3);
  try {
    finalize_fleet(spec, results);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what())
                  .find("node 2 has 3 epoch records, spec has 4 epochs"),
              std::string::npos)
        << e.what();
  }
}

TEST(FleetShardTest, ThousandSocketFleetShardsByteIdentically) {
  // The acceptance-scale shape: 8 racks x 8 nodes x 16 sockets = 1024
  // sockets, shrunk to one short epoch pair so the tier-1 suite stays
  // fast.  Serial and 4-way sharded execution must agree byte for byte.
  FleetSpec spec;
  spec.name = "fleet-1k";
  spec.topology = {8, 8, 16};
  spec.epochs = 2;
  spec.epoch_seconds = 0.1;
  spec.allocator = "fastcap";
  spec.global_budget_w = 0.8 * 1024 * 125.0;
  ASSERT_EQ(spec.topology.socket_count(), 1024u);
  ASSERT_TRUE(spec.validate().empty());

  const FleetOutputs serial = run_fleet_serial(spec);
  const std::string dir = temp_dir("wire");
  const FleetOutputs sharded = gather_and_finalize(
      spec, write_files(dir, run_static_shards(spec, 4)));
  expect_identical(serial, sharded);
  // 64 nodes x 2 epochs of allocation rows plus the header.
  std::size_t lines = 0;
  for (const char c : serial.allocation_csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + 64u * 2u);
}

}  // namespace
}  // namespace dufp::fleet
