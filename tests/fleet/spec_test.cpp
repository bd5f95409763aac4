// FleetSpec is the self-contained identity of a fleet experiment: its
// canonical JSON must round-trip exactly, its fingerprint must pin the
// wire contract, and validation must aggregate every problem house-style.
#include "fleet/spec.h"

#include <gtest/gtest.h>

#include <string>

#include "harness/wire.h"

namespace dufp::fleet {
namespace {

TEST(FleetSpecTest, CanonicalTextRoundTripsExactly) {
  FleetSpec spec = FleetSpec::reference();
  spec.topology = {3, 5, 8};
  spec.allocator = "fastcap";
  spec.traffic_profile = "heavy-tail";
  spec.traffic_seed = 42;
  spec.global_budget_w = 9000.0;
  spec.fault_rate = 0.125;
  const std::string text = spec.canonical_text();
  const FleetSpec back = FleetSpec::from_json(json::parse(text));
  EXPECT_EQ(back.canonical_text(), text);
  EXPECT_EQ(back.fingerprint(), spec.fingerprint());
}

TEST(FleetSpecTest, ParseCanonicalizesAliasAndCaseSpellings) {
  FleetSpec spec = FleetSpec::reference();
  spec.allocator = "FAIR";  // fastcap alias, wrong case
  const FleetSpec back =
      FleetSpec::from_json(json::parse(spec.canonical_text()));
  EXPECT_EQ(back.allocator, "fastcap");
}

TEST(FleetSpecTest, ResolvedBudgetDerivesFromCeilingsWhenZero) {
  FleetSpec spec = FleetSpec::reference();
  spec.global_budget_w = 0.0;  // sentinel: derive from the fleet
  // 2 x 2 x 4 sockets x 125 W ceiling = the uncapped fleet.
  EXPECT_DOUBLE_EQ(spec.resolved_budget_w(), 16 * 125.0);
  spec.global_budget_w = 1560.0;
  EXPECT_DOUBLE_EQ(spec.resolved_budget_w(), 1560.0);
}

TEST(FleetSpecTest, WrongFormatAndVersionRejected) {
  const std::string text = FleetSpec::reference().canonical_text();

  std::string wrong_format = text;
  const auto fpos = wrong_format.find("\"dufp-fleet-spec\"");
  ASSERT_NE(fpos, std::string::npos);
  wrong_format.replace(fpos, std::string("\"dufp-fleet-spec\"").size(),
                       "\"dufp-shard-spec\"");
  EXPECT_THROW(FleetSpec::from_json(json::parse(wrong_format)),
               harness::ShardFormatError);

  std::string wrong_version = text;
  const auto vpos = wrong_version.find("\"version\":1");
  ASSERT_NE(vpos, std::string::npos);
  wrong_version.replace(vpos, std::string("\"version\":1").size(),
                        "\"version\":999");
  EXPECT_THROW(FleetSpec::from_json(json::parse(wrong_version)),
               harness::ShardFormatError);
}

TEST(FleetSpecTest, ValidateAggregatesEveryProblem) {
  FleetSpec spec = FleetSpec::reference();
  spec.name = "";
  spec.topology.racks = 0;
  spec.allocator = "wishful";
  spec.traffic_profile = "tidal";
  spec.policy = "sasquatch";
  spec.epochs = 0;
  spec.tolerated_slowdown = 2.0;
  const auto problems = spec.validate();
  const std::string joined = [&] {
    std::string out;
    for (const auto& p : problems) out += p + "; ";
    return out;
  }();
  EXPECT_GE(problems.size(), 7u) << joined;
  EXPECT_NE(joined.find("name is empty"), std::string::npos) << joined;
  EXPECT_NE(joined.find("racks must be >= 1"), std::string::npos) << joined;
  EXPECT_NE(joined.find("unknown allocator \"wishful\" (known: "),
            std::string::npos)
      << joined;
  for (const char* name : {"proportional", "fastcap", "static-equal"}) {
    EXPECT_NE(joined.find(name), std::string::npos) << name << ": " << joined;
  }
  EXPECT_NE(joined.find("unknown traffic profile \"tidal\" (known: "),
            std::string::npos)
      << joined;
  EXPECT_NE(joined.find("diurnal"), std::string::npos) << joined;
  EXPECT_NE(joined.find("unknown policy \"sasquatch\""), std::string::npos)
      << joined;
}

TEST(FleetSpecTest, BudgetBelowTheFleetFloorRejected) {
  FleetSpec spec = FleetSpec::reference();  // 16 sockets, 65 W floors
  spec.global_budget_w = 500.0;             // < 16 x 65 = 1040
  const auto problems = spec.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("must cover the fleet's 16 socket floors"),
            std::string::npos)
      << problems[0];
  EXPECT_NE(problems[0].find(">= 1040"), std::string::npos) << problems[0];
}

TEST(FleetSpecTest, ReferenceSpecIsValid) {
  EXPECT_TRUE(FleetSpec::reference().validate().empty());
}

TEST(FleetSpecTest, ReferenceFingerprintIsFrozen) {
  // Fleet wire files and retry manifests stamp this fingerprint; a
  // gatherer or a resume from another build must agree on it.
  const FleetSpec spec = FleetSpec::reference();
  EXPECT_EQ(spec.canonical_text(),
            "{\"format\":\"dufp-fleet-spec\",\"version\":1,"
            "\"name\":\"fleet-reference\",\"racks\":2,"
            "\"nodes_per_rack\":2,\"sockets_per_node\":4,"
            "\"allocator\":\"proportional\",\"global_budget_w\":1560,"
            "\"epochs\":4,\"epoch_seconds\":1,\"traffic\":\"diurnal\","
            "\"traffic_seed\":1,\"seed\":1,\"app\":\"CG\","
            "\"policy\":\"DUFP\",\"tolerance\":0.10000000000000001,"
            "\"min_cap_w\":65,\"max_cap_w\":125,\"fault_rate\":0,"
            "\"fault_seed\":0}");
  EXPECT_EQ(harness::fingerprint_hex(spec.fingerprint()), "24791608c3f775ba");
}

TEST(FleetSpecTest, UnknownKeysAndAppsAreFormatErrors) {
  // "traffic_profile" is the C++ field's name; the JSON key is "traffic".
  // A reader that skipped it would run the diurnal default in silence.
  std::string text = FleetSpec::reference().canonical_text();
  text.insert(text.size() - 1, ",\"traffic_profile\":\"flat\",\"rack\":3");
  try {
    FleetSpec::from_json(json::parse(text));
    FAIL() << "expected ShardFormatError";
  } catch (const harness::ShardFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key(s) \"traffic_profile\", \"rack\""),
              std::string::npos)
        << what;
  }
  text = FleetSpec::reference().canonical_text();
  const auto pos = text.find("\"CG\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "\"XX\"");
  EXPECT_THROW(FleetSpec::from_json(json::parse(text)),
               harness::ShardFormatError);
}

}  // namespace
}  // namespace dufp::fleet
