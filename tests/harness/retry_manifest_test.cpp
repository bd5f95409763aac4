// The retry manifest is one codec for both spec kinds, and its bytes are a
// contract between builds: a manifest one build writes, another resumes.
// golden/ holds the manifests `gather --partial` writes for shard 0 of 2
// of the reference grid and of the reference fleet, as written by the
// build that still had a manifest type per kind.  Both must parse and
// re-emit byte-identical, and the writer must reproduce them.  A
// deterministic hostile sweep of both texts — every truncation and every
// single-bit flip of every byte — must end in a parse or a clean
// ShardFormatError / std::runtime_error, never another exception type, a
// crash or a sanitizer report.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/shard.h"
#include "harness/shard.h"

namespace dufp::harness {
namespace {

using fleet::FleetSpec;

std::string golden(const std::string& name) {
  std::ifstream in(std::string(DUFP_HARNESS_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const std::vector<std::size_t> kGridMissing = {1,  3,  5,  7,  9,  11, 13, 15,
                                               17, 19, 21, 23, 25, 27, 29};
const std::vector<std::size_t> kFleetMissing = {1, 3};

template <class Spec>
void expect_reemits(const std::string& file,
                    const std::vector<std::size_t>& missing) {
  const std::string text = golden(file);
  ASSERT_FALSE(text.empty());
  const auto manifest = RetryManifest<Spec>::from_json(json::parse(text));
  EXPECT_EQ(manifest.canonical_text() + '\n', text);
  EXPECT_EQ(manifest.missing, missing);
  EXPECT_EQ(manifest.spec.canonical_text(),
            Spec::reference().canonical_text());
}

TEST(RetryManifestTest, CheckedInManifestsReEmitByteIdentical) {
  expect_reemits<GridSpec>("reference_grid.retry.json", kGridMissing);
  expect_reemits<FleetSpec>("reference_fleet.retry.json", kFleetMissing);
}

/// What `gather --partial` of shard 0 of 2 writes, built in-process.
template <class Spec>
std::string shard0_manifest_text() {
  const Spec spec = Spec::reference();
  ShardRunOptions options;
  options.shards = 2;
  const std::string path = ::testing::TempDir() + "retry_manifest_" +
                           spec.wire_identity().format + "_shard0.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    run_shard(spec, options, out);
  }
  GatherOptions partial;
  partial.partial = true;
  return make_retry_manifest(spec, gather_shards_report(spec, {path}, partial))
             .canonical_text() +
         '\n';
}

TEST(RetryManifestTest, WriterReproducesTheCheckedInManifests) {
  EXPECT_EQ(shard0_manifest_text<GridSpec>(),
            golden("reference_grid.retry.json"));
  EXPECT_EQ(shard0_manifest_text<FleetSpec>(),
            golden("reference_fleet.retry.json"));
}

TEST(RetryManifestTest, UnknownKeysAreListedInOneFormatError) {
  std::string text = golden("reference_fleet.retry.json");
  const auto at = text.find("\"missing_jobs\"");
  ASSERT_NE(at, std::string::npos);
  text.insert(at, "\"resume\":true,\"note\":\"x\",");
  try {
    RetryManifest<FleetSpec>::from_json(json::parse(text));
    FAIL() << "expected ShardFormatError";
  } catch (const ShardFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key(s) \"resume\", \"note\""),
              std::string::npos)
        << what;
  }
}

/// True when `text` parses as a manifest of `Spec`, false when it is
/// rejected with a ShardFormatError or std::runtime_error; any other
/// exception fails the test.
template <class Spec>
bool parses(const std::string& text, const std::string& what) {
  try {
    RetryManifest<Spec>::from_json(json::parse(text));
    return true;
  } catch (const std::runtime_error&) {  // ShardFormatError included
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
    return false;
  }
}

template <class Spec>
void hostile_sweep(const std::string& file) {
  std::string text = golden(file);
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  ASSERT_TRUE(parses<Spec>(text, file));

  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_FALSE(parses<Spec>(text.substr(0, len),
                              file + " truncated to " + std::to_string(len)));
  }

  std::size_t parsed = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      if (parses<Spec>(flipped, file + " byte " + std::to_string(i) +
                                    " bit " + std::to_string(bit))) {
        ++parsed;
      }
    }
  }
  // Most flips break the JSON, a key, the version or the fingerprint
  // guard; the survivors are the few that keep missing_jobs ascending
  // and in range.
  EXPECT_LT(parsed, 8 * text.size() / 50) << file;
}

TEST(RetryManifestTest, HostileSweepParsesOrThrowsCleanly) {
  hostile_sweep<GridSpec>("reference_grid.retry.json");
  hostile_sweep<FleetSpec>("reference_fleet.retry.json");
}

}  // namespace
}  // namespace dufp::harness
