// The wire's bytes, held three ways:
//   - pinned: a storm-shaped grid and a small fleet through run_shard,
//     each shard file's FNV-1a digest against the value the tree-building
//     encoders produced before the records were written by json::Writer;
//   - swept: every truncation and every single-bit flip of one storm
//     record line gathers cleanly in both modes, a note in partial mode
//     and a file:line error in strict mode, never a crash;
//   - compared as read: the duplicate guard hashes a record's "result"
//     bytes as they stand in the file, so the same value spaced
//     differently is a divergent duplicate.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/policy_registry.h"
#include "fleet/shard.h"
#include "harness/shard.h"

namespace dufp::harness {
namespace {

/// The reference grid's apps and tolerances under the policy_storm
/// workload's settings: every registered policy, a 2% fault storm,
/// telemetry on; one repetition keeps it to 38 jobs.
GridSpec storm_grid() {
  GridSpec spec = GridSpec::reference();
  spec.name = "wire-storm";
  spec.policies = core::PolicyRegistry::instance().names();
  spec.repetitions = 1;
  spec.fault_rate = 0.02;
  spec.fault_seed = 8;
  spec.telemetry = true;
  return spec;
}

fleet::FleetSpec small_fleet() {
  fleet::FleetSpec spec = fleet::FleetSpec::reference();  // 2 x 2 x 4
  spec.epoch_seconds = 0.5;
  return spec;
}

template <class Spec>
std::string shard_bytes(const Spec& spec, int shard, int shards) {
  ShardRunOptions options;
  options.shard = shard;
  options.shards = shards;
  std::ostringstream out;
  run_shard(spec, options, out);
  return out.str();
}

std::string temp_path(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "_" + info->name() +
         "_" + tag;
}

std::string write_file(const std::string& tag, const std::string& bytes) {
  const std::string path = temp_path(tag);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return path;
}

std::vector<std::string> lines_of(const std::string& bytes) {
  std::vector<std::string> lines;
  std::istringstream in(bytes);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// -- pinned digests ----------------------------------------------------------

TEST(WireBytesTest, StormGridShardFilesKeepTheirBytes) {
  const GridSpec spec = storm_grid();
  ASSERT_EQ(spec.wire_identity().job_count, 38u);
  EXPECT_EQ(fingerprint_hex(json::fnv1a(shard_bytes(spec, 0, 2))),
            "6e9ff16de6347309");
  EXPECT_EQ(fingerprint_hex(json::fnv1a(shard_bytes(spec, 1, 2))),
            "ea240ab2e132f029");
}

TEST(WireBytesTest, FleetShardFilesKeepTheirBytes) {
  const fleet::FleetSpec spec = small_fleet();
  EXPECT_EQ(fingerprint_hex(json::fnv1a(shard_bytes(spec, 0, 2))),
            "f84a41ec998e9aa7");
  EXPECT_EQ(fingerprint_hex(json::fnv1a(shard_bytes(spec, 1, 2))),
            "0824b5ce19ed288e");
}

// -- hostile records ---------------------------------------------------------

/// One storm job's record gathered alone: the header a one-job wire of
/// the spec would carry, then `record`.  gather_wire with the grid codec
/// as its store, which is what gather_shards_report runs.
class RecordSweep {
 public:
  explicit RecordSweep(const GridSpec& spec) {
    id_ = spec.wire_identity();
    id_.job_count = 1;
    header_ = "{\"format\":\"" + id_.format +
              "\",\"version\":" + std::to_string(kShardWireVersion) +
              ",\"spec_name\":\"" + id_.spec_name +
              "\",\"spec_fingerprint\":\"" + id_.fingerprint_hex +
              "\",\"shard\":0,\"shards\":1,\"job_count\":1}\n";
    path_ = temp_path("sweep.jsonl");
  }

  /// Gathers `record` in both modes.  Returns true when it was accepted
  /// as job 0; fails the test unless strict mode threw a file:line
  /// error, and partial mode noted the damage and left job 0 missing.
  /// Partial mode differs from strict mode only where strict mode
  /// throws, so a record strict mode accepts needs no second gather.
  bool gather(const std::string& record, const std::string& what) {
    // A fresh file each time: rewriting one through O_TRUNC can make the
    // filesystem flush it on close.
    std::remove(path_.c_str());
    {
      std::ofstream out(path_, std::ios::binary);
      out << header_ << record << '\n';
    }
    const auto store = [](std::size_t, const json::Value& v) {
      (void)decode_run_result(v);
    };
    std::string strict_error;
    try {
      gather_wire(id_, {path_}, {}, store);
      return true;
    } catch (const std::runtime_error& e) {
      strict_error = e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": not a runtime_error: " << e.what();
      return false;
    }
    GatherOptions partial;
    partial.partial = true;
    WireGatherReport report;
    try {
      report = gather_wire(id_, {path_}, partial, store);
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": partial gather threw: " << e.what();
      return false;
    }
    EXPECT_EQ(report.missing, std::vector<std::size_t>{0}) << what;
    // A flip to '\n' splits the record into lines 2 and 3.
    EXPECT_FALSE(report.notes.empty()) << what;
    for (const GatherNote& note : report.notes) {
      EXPECT_TRUE(note.line == 2 || note.line == 3) << what << ": " << note.what;
    }
    EXPECT_TRUE(strict_error.rfind("gather: " + path_ + ":2: ", 0) == 0 ||
                strict_error.rfind("gather: " + path_ + ":3: ", 0) == 0)
        << what << ": " << strict_error;
    return false;
  }

 private:
  WireIdentity id_;
  std::string header_;
  std::string path_;
};

TEST(HostileRecordSweepTest, EveryTruncationAndBitFlipGathersCleanly) {
  // The smallest storm record: a one-socket baseline job 0, whose
  // telemetry carries metrics and flight events.
  GridSpec spec = storm_grid();
  spec.apps = {workloads::AppId::ep};
  spec.policies = {"DUFP"};
  spec.tolerances = {0.05};
  spec.sockets = 1;
  const std::vector<std::string> lines = lines_of(shard_bytes(spec, 0, 1));
  ASSERT_EQ(lines.size(), 3u);
  std::string record = lines[1];
  const std::string job0 = "{\"job\":0,";
  ASSERT_EQ(record.rfind(job0, 0), 0u);
  ASSERT_NE(record.find("\"events\":"), std::string::npos);

  RecordSweep sweep(spec);
  ASSERT_TRUE(sweep.gather(record, "the record itself"));

  // Every proper prefix leaves the record's object open.  (The empty
  // prefix is a blank line, which gather skips by design.)
  for (std::size_t len = 1; len < record.size(); ++len) {
    EXPECT_FALSE(sweep.gather(record.substr(0, len),
                              "truncated to " + std::to_string(len)));
  }

  std::size_t accepted = 0;
  for (std::size_t i = 0; i < record.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = record;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      if (sweep.gather(flipped, "byte " + std::to_string(i) + " bit " +
                                    std::to_string(bit))) {
        ++accepted;
      }
    }
  }
  // Hex digits are most of a record, and flipping one of a digit's low
  // bits mostly lands on another digit: a different value, well formed.
  // The other survivors turn a label or name character into another
  // character, or an optional member's key into one the decoder does not
  // read.  Everything else is damage.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 8 * record.size() / 2);
}

TEST(HostileRecordSweepTest, ANestingBombIsADamagedLineNotACrash) {
  GridSpec spec = storm_grid();
  spec.apps = {workloads::AppId::ep};
  spec.policies = {"DUFP"};
  spec.tolerances = {0.05};
  spec.sockets = 1;
  RecordSweep sweep(spec);
  std::string bomb = "{\"job\":0,\"result\":";
  bomb.append(1'000'000, '[');
  EXPECT_FALSE(sweep.gather(bomb, "1M nested arrays"));
}

// -- the duplicate guard over bytes as read ----------------------------------

TEST(WireGatherTest, ARespacedDuplicateIsDivergent) {
  GridSpec spec = storm_grid();
  spec.apps = {workloads::AppId::ep};
  spec.policies = {"DUFP"};
  spec.tolerances = {0.05};
  spec.sockets = 1;
  const std::string bytes = shard_bytes(spec, 0, 1);
  const std::string original = write_file("original.jsonl", bytes);
  const std::string copy = write_file("copy.jsonl", bytes);

  // The same value, one space inside job 1's "result".
  std::vector<std::string> lines = lines_of(bytes);
  ASSERT_EQ(lines.size(), 3u);
  const std::string before = lines[2];
  const auto comma = before.find(',', before.find("\"result\":"));
  ASSERT_NE(comma, std::string::npos);
  lines[2].insert(comma + 1, " ");
  EXPECT_EQ(json::parse(lines[2]).dump(), json::parse(before).dump());
  std::string respaced_bytes;
  for (const std::string& line : lines) respaced_bytes += line + '\n';
  const std::string respaced = write_file("respaced.jsonl", respaced_bytes);

  GatherOptions partial;
  partial.partial = true;
  // A byte-identical re-delivery is dropped and counted ...
  const auto report = gather_shards_report(spec, {original, copy}, partial);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.duplicates, 2u);
  // ... the respaced one is a determinism violation, in every mode.
  try {
    gather_shards_report(spec, {original, respaced}, partial);
    FAIL() << "a respaced duplicate was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("job 1 gathered twice with "
                                         "DIFFERENT bytes"),
              std::string::npos)
        << e.what();
  }
  // Alone, the respaced file is an ordinary, complete gather.
  EXPECT_TRUE(gather_shards_report(spec, {respaced}).complete());
}

}  // namespace
}  // namespace dufp::harness
