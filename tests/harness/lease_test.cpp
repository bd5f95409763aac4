// The lease protocol behind crash-resilient dynamic sharding
// (DESIGN.md § Failure model & recovery): a live owner's chunk is
// never stolen, a dead owner's chunk is reclaimable after the TTL,
// stealing grants ownership to exactly one claimant, a stalled owner
// detects the theft before emitting, and completed / poisoned chunks
// stay off-limits forever.
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/chaos.h"
#include "harness/shard.h"

namespace dufp::harness {
namespace {

namespace fs = std::filesystem;

std::string temp_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + info->test_suite_name() +
                          "_" + info->name() + "_claims";
  fs::remove_all(dir);  // stale state breaks reruns
  fs::create_directories(dir);
  return dir;
}

/// Makes chunk `c`'s lease look like its owner died `age` ago: the
/// staleness signal is the claim file's mtime, so rewinding it is
/// exactly what a crashed worker's abandoned lease looks like — no
/// sleeping in tests.
void age_lease(const std::string& dir, int c, std::chrono::seconds age) {
  const auto path = FileChunkClaimer::claim_path(dir, c);
  fs::last_write_time(path, fs::last_write_time(path) - age);
}

TEST(LeaseTest, FreshLeaseIsNeverStolen) {
  const std::string dir = temp_dir();
  FileChunkClaimer alive(dir, {"alive", /*ttl_seconds=*/0.5});
  FileChunkClaimer rival(dir, {"rival", /*ttl_seconds=*/0.5});
  ASSERT_TRUE(alive.try_claim(0));
  EXPECT_FALSE(rival.try_claim(0));  // heartbeat is fresh: hands off
  EXPECT_TRUE(alive.still_owner(0));
}

TEST(LeaseTest, CrashOrphanedLeaseReclaimableAfterTtl) {
  const std::string dir = temp_dir();
  {
    FileChunkClaimer dead(dir, {"dead", 1.0});
    ASSERT_TRUE(dead.try_claim(0));
  }  // destructor closes the fd but leaves the lease — a crash, in effect
  age_lease(dir, 0, std::chrono::seconds(60));

  FileChunkClaimer heir(dir, {"heir", 1.0});
  EXPECT_TRUE(heir.try_claim(0)) << "stale lease must be stealable";
  EXPECT_TRUE(heir.still_owner(0));
  const auto lease = FileChunkClaimer::read_lease(
      FileChunkClaimer::claim_path(dir, 0));
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->owner, "heir");
}

TEST(LeaseTest, TtlZeroDisablesStealing) {
  const std::string dir = temp_dir();
  FileChunkClaimer a(dir, {"a", /*ttl_seconds=*/0.0});
  ASSERT_TRUE(a.try_claim(0));
  age_lease(dir, 0, std::chrono::seconds(3600));
  FileChunkClaimer b(dir, {"b", 0.0});
  EXPECT_FALSE(b.try_claim(0)) << "ttl <= 0 is the permanent-claim mode";
}

TEST(LeaseTest, StealRaceHasExactlyOneWinner) {
  const std::string dir = temp_dir();
  FileChunkClaimer stalled(dir, {"stalled", 1.0});
  ASSERT_TRUE(stalled.try_claim(0));
  age_lease(dir, 0, std::chrono::seconds(60));

  // Two rivals go after the same stale lease.  The rename(2)-based
  // steal is atomic, so whoever claims first owns it and the second
  // finds a *fresh* lease it must respect.
  FileChunkClaimer first(dir, {"first", 1.0});
  FileChunkClaimer second(dir, {"second", 1.0});
  EXPECT_TRUE(first.try_claim(0));
  EXPECT_FALSE(second.try_claim(0));

  // The stalled owner is not dead — it must notice the theft and drop
  // its duplicate work instead of completing.
  EXPECT_FALSE(stalled.still_owner(0));
  EXPECT_FALSE(stalled.complete(0)) << "a stale owner must not complete";
  EXPECT_TRUE(first.still_owner(0));
  EXPECT_TRUE(first.complete(0));
}

TEST(LeaseTest, RenewKeepsLeaseAliveAndBumpsHeartbeat) {
  const std::string dir = temp_dir();
  FileChunkClaimer a(dir, {"a", 1.0});
  ASSERT_TRUE(a.try_claim(0));
  const auto before = FileChunkClaimer::read_lease(
      FileChunkClaimer::claim_path(dir, 0));
  ASSERT_TRUE(before.has_value());
  age_lease(dir, 0, std::chrono::seconds(60));
  a.renew();  // the in-place rewrite restores the mtime and bumps the count
  const auto after = FileChunkClaimer::read_lease(
      FileChunkClaimer::claim_path(dir, 0));
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->heartbeat, before->heartbeat);
  FileChunkClaimer rival(dir, {"rival", 1.0});
  EXPECT_FALSE(rival.try_claim(0)) << "a renewed lease is fresh again";
}

TEST(LeaseTest, CompletedChunksAreNeverReclaimed) {
  const std::string dir = temp_dir();
  FileChunkClaimer a(dir, {"a", 1.0});
  ASSERT_TRUE(a.try_claim(0));
  ASSERT_TRUE(a.complete(0));
  EXPECT_TRUE(fs::exists(FileChunkClaimer::done_path(dir, 0)));
  EXPECT_FALSE(fs::exists(FileChunkClaimer::claim_path(dir, 0)));
  FileChunkClaimer b(dir, {"b", 1.0});
  EXPECT_FALSE(b.try_claim(0)) << "done chunks must not re-run";
  EXPECT_FALSE(a.try_claim(0));
}

TEST(LeaseTest, PoisonedChunksAreRefusedAndReported) {
  const std::string dir = temp_dir();
  std::ofstream(FileChunkClaimer::poison_path(dir, 2)) << "deaths=2\n";
  FileChunkClaimer a(dir, {"a", 1.0});
  EXPECT_TRUE(a.try_claim(0));
  EXPECT_FALSE(a.try_claim(2)) << "quarantined chunks stay quarantined";
  ASSERT_EQ(a.poisoned_seen().size(), 1u);
  EXPECT_EQ(a.poisoned_seen()[0], 2);
}

TEST(LeaseTest, DefaultOwnerDerivesFromPid) {
  const std::string dir = temp_dir();
  FileChunkClaimer a(dir);  // PR-5 call shape still compiles and works
  EXPECT_FALSE(a.owner().empty());
  EXPECT_EQ(a.owner().rfind("pid", 0), 0u) << a.owner();
}

// -- chaos schedule determinism ---------------------------------------------

TEST(ChaosPlanTest, KillScheduleIsAPureFunctionOfSeedWorkerAttempt) {
  ChaosOptions opts;
  opts.kill_rate = 0.5;
  opts.seed = 42;
  opts.worker = 1;
  opts.attempt = 2;
  const ChaosPlan plan_a(opts);
  const ChaosPlan plan_b(opts);
  ASSERT_TRUE(plan_a.enabled());
  bool any_kill = false;
  bool any_live = false;
  for (std::uint64_t pos = 0; pos < 64; ++pos) {
    EXPECT_EQ(plan_a.should_kill(pos), plan_b.should_kill(pos))
        << "same (seed, worker, attempt) must agree at position " << pos;
    any_kill |= plan_a.should_kill(pos);
    any_live |= !plan_a.should_kill(pos);
  }
  EXPECT_TRUE(any_kill) << "rate 0.5 over 64 positions should kill somewhere";
  EXPECT_TRUE(any_live);

  // A restarted attempt gets a *different* schedule, so a job that
  // happened to land on a kill point is not killed forever.
  ChaosOptions retry = opts;
  retry.attempt = 3;
  const ChaosPlan plan_c(retry);
  bool differs = false;
  for (std::uint64_t pos = 0; pos < 64 && !differs; ++pos) {
    differs = plan_a.should_kill(pos) != plan_c.should_kill(pos);
  }
  EXPECT_TRUE(differs) << "attempt must salt the kill stream";
}

TEST(ChaosPlanTest, DisabledPlanNeverKills) {
  const ChaosPlan plan{ChaosOptions{}};
  EXPECT_FALSE(plan.enabled());
  for (std::uint64_t pos = 0; pos < 16; ++pos) {
    EXPECT_FALSE(plan.should_kill(pos));
  }
}

}  // namespace
}  // namespace dufp::harness
