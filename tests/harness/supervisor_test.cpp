// The ShardSupervisor's fork/monitor/restart machinery, driven through
// the child_override test seam (which replaces the worker body with a
// scripted exit code), plus the end-to-end crash drill: a seeded-chaos
// supervised run — workers SIGKILLing themselves mid-record — recovers
// via lease reclaim, restart, salvage, and resume to bytes identical
// to a serial run, clean and under a fault storm.
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/shard.h"
#include "harness/shard_codec.h"
#include "harness/supervisor.h"

namespace dufp::harness {
namespace {

namespace fs = std::filesystem;

GridSpec small_spec() {
  GridSpec spec;
  spec.name = "supervisor-test";
  spec.apps = {workloads::AppId::cg};
  spec.policies = {"DUF", "DUFP"};
  spec.tolerances = {0.10};
  spec.repetitions = 3;  // 3 cells x 3 reps = 9 jobs
  spec.seed = 5;
  spec.sockets = 2;
  spec.telemetry = true;
  return spec;
}

GridSpec storm_spec() {
  GridSpec spec = small_spec();
  spec.name = "supervisor-test-storm";
  spec.fault_rate = 0.02;
  spec.fault_seed = 9;
  return spec;
}

std::string temp_dir(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + info->test_suite_name() +
                          "_" + info->name() + "_" + tag;
  fs::remove_all(dir);  // stale markers break reruns
  fs::create_directories(dir);
  return dir;
}

SupervisorOptions base_options(const std::string& dir) {
  SupervisorOptions options;
  options.out_dir = dir;
  options.workers = 2;
  options.chunk_size = 2;
  options.backoff_base_seconds = 0.001;  // keep scripted tests snappy
  options.backoff_max_seconds = 0.002;
  return options;
}

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

TEST(SupervisorTest, CleanWorkersRunOnceAndAreNotRestarted) {
  SupervisorOptions options = base_options(temp_dir("out"));
  options.child_override = [](int, int) { return 0; };
  const SupervisorReport report =
      supervise_shard_run(small_spec(), options);
  ASSERT_EQ(report.attempts.size(), 2u);
  for (const auto& a : report.attempts) {
    EXPECT_EQ(a.exit_class, WorkerExitClass::clean);
  }
  EXPECT_EQ(report.restarts, 0);
  EXPECT_FALSE(report.fatal);
}

TEST(SupervisorTest, RetryableFailuresRestartUpToTheBudget) {
  SupervisorOptions options = base_options(temp_dir("out"));
  options.max_restarts = 2;
  // Every worker dies on attempts 0 and 1, then succeeds on attempt 2.
  options.child_override = [](int, int attempt) {
    return attempt < 2 ? 4 : 0;
  };
  const SupervisorReport report =
      supervise_shard_run(small_spec(), options);
  ASSERT_EQ(report.attempts.size(), 6u);  // 2 workers x 3 attempts
  EXPECT_EQ(report.restarts, 4);
  int clean = 0;
  for (const auto& a : report.attempts) {
    clean += a.exit_class == WorkerExitClass::clean ? 1 : 0;
  }
  EXPECT_EQ(clean, 2);
  EXPECT_FALSE(report.fatal);
}

TEST(SupervisorTest, RestartBudgetExhaustionStopsHonestly) {
  SupervisorOptions options = base_options(temp_dir("out"));
  options.workers = 1;
  options.max_restarts = 1;
  options.child_override = [](int, int) { return 4; };  // never recovers
  const SupervisorReport report =
      supervise_shard_run(small_spec(), options);
  EXPECT_EQ(report.attempts.size(), 2u);  // initial + one restart
  EXPECT_FALSE(report.all_chunks_done);
  EXPECT_FALSE(report.fatal) << "exhaustion is incomplete, not fatal";
}

TEST(SupervisorTest, ConfigurationErrorsAreFatalNotRetried) {
  SupervisorOptions options = base_options(temp_dir("out"));
  options.workers = 1;
  options.max_restarts = 5;
  options.child_override = [](int, int) { return 3; };  // spec mismatch
  const SupervisorReport report =
      supervise_shard_run(small_spec(), options);
  ASSERT_EQ(report.attempts.size(), 1u) << "restarting a config error "
                                           "cannot help";
  EXPECT_EQ(report.attempts[0].exit_class, WorkerExitClass::fatal);
  EXPECT_TRUE(report.fatal);
  EXPECT_EQ(report.restarts, 0);
}

TEST(SupervisorTest, DeadWorkersLeasesAreReapedAndBlamedToPoison) {
  const std::string dir = temp_dir("out");
  SupervisorOptions options = base_options(dir);
  options.workers = 1;
  options.max_restarts = 1;
  options.poison_threshold = 2;
  // The scripted worker "holds" chunk 1's lease at death: plant a lease
  // owned by each attempt before it runs.  Attempt ids are w0.a0/w0.a1.
  std::ofstream(FileChunkClaimer::claim_path(dir, 1))
      << "owner=w0.a0\nheartbeat=00000000000000000001\n";
  options.child_override = [dir](int, int attempt) {
    if (attempt == 1) {
      std::ofstream(FileChunkClaimer::claim_path(dir, 1))
          << "owner=w0.a1\nheartbeat=00000000000000000001\n";
    }
    return 4;  // die holding the lease
  };
  const SupervisorReport report =
      supervise_shard_run(small_spec(), options);
  EXPECT_EQ(report.leases_released, 2);
  ASSERT_EQ(report.poisoned_chunks.size(), 1u)
      << "two deaths on one chunk must quarantine it";
  EXPECT_EQ(report.poisoned_chunks[0], 1);
  EXPECT_TRUE(fs::exists(FileChunkClaimer::poison_path(dir, 1)));
  EXPECT_FALSE(fs::exists(FileChunkClaimer::claim_path(dir, 1)))
      << "a reaped worker's lease must not wait out the TTL";
}

TEST(SupervisorTest, RejectsInvalidConfigurations) {
  SupervisorOptions options = base_options(temp_dir("out"));
  options.workers = 0;
  EXPECT_THROW(supervise_shard_run(small_spec(), options),
               std::invalid_argument);
  options = base_options(temp_dir("out2"));
  options.chunk_size = 0;
  EXPECT_THROW(supervise_shard_run(small_spec(), options),
               std::invalid_argument);
  options = base_options(temp_dir("out3"));
  options.out_dir += "/nope";
  EXPECT_THROW(supervise_shard_run(small_spec(), options),
               std::runtime_error);
}

// -- the end-to-end crash drill ---------------------------------------------

/// Supervised chaos run, then salvage + (if needed) in-process resume +
/// final gather; the result must be byte-identical to a serial run.
void expect_chaos_run_recovers(const GridSpec& spec) {
  const std::string serial = output_bytes(run_grid_serial(spec));
  const std::string dir = temp_dir("out");

  SupervisorOptions options = base_options(dir);
  options.max_restarts = 3;
  options.backoff_base_seconds = 0.001;
  options.chaos.kill_rate = 0.3;
  options.chaos.seed = 1;
  const SupervisorReport report = supervise_shard_run(spec, options);

  // The storm is real: the seeded schedule must actually have killed
  // workers (otherwise this test is testing nothing).
  int killed = 0;
  for (const auto& a : report.attempts) {
    killed += a.signal != 0 ? 1 : 0;
  }
  ASSERT_GT(killed, 0) << "chaos rate 0.3 must kill at least one worker";
  EXPECT_FALSE(report.fatal);

  GatherOptions gopts;
  gopts.partial = true;
  GatherReport gathered =
      gather_shards_report(spec, report.output_files, gopts);
  if (!gathered.complete()) {
    // Whatever the supervisor could not recover (poisoned chunks,
    // exhausted restarts) flows through the manifest + resume path.
    const RetryManifest manifest = make_retry_manifest(spec, gathered);
    const std::string rescue = dir + "/rescue.jsonl";
    {
      std::ofstream out(rescue, std::ios::binary);
      ShardRunOptions resume;
      resume.job_filter = &manifest.missing;
      run_shard(manifest.spec, resume, out);
    }
    std::vector<std::string> files = report.output_files;
    files.push_back(rescue);
    gathered = gather_shards_report(spec, files, gopts);
  }
  ASSERT_TRUE(gathered.complete());
  EXPECT_EQ(
      output_bytes(finalize_grid(spec, std::move(gathered.results))),
      serial)
      << "a killed-and-recovered run must gather to unfailed bytes";
}

TEST(SupervisorChaosTest, KilledWorkersRecoverToSerialBytes) {
  expect_chaos_run_recovers(small_spec());
}

TEST(SupervisorChaosTest, KilledWorkersRecoverToSerialBytesUnderFaultStorm) {
  expect_chaos_run_recovers(storm_spec());
}

}  // namespace
}  // namespace dufp::harness
