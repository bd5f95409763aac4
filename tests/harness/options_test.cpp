// Strict environment parsing: a typo in a DUFP_* knob must fail loudly
// with every problem listed, never silently fall back to a default that
// then masquerades as a paper-protocol run.
#include "harness/options.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace dufp::harness {
namespace {

class OptionsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }

  static void clear() {
    unsetenv("DUFP_REPS");
    unsetenv("DUFP_SOCKETS");
    unsetenv("DUFP_THREADS");
    unsetenv("DUFP_QUIET");
    unsetenv("DUFP_FAULT_RATE");
    unsetenv("DUFP_FAULT_SEED");
    unsetenv("DUFP_OUT_DIR");
    unsetenv("DUFP_TELEMETRY");
    unsetenv("DUFP_POLICIES");
    unsetenv("DUFP_CHAOS");
    unsetenv("DUFP_CHAOS_SEED");
  }

  static std::string error_of_from_env() {
    try {
      BenchOptions::from_env();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return {};
  }
};

TEST_F(OptionsEnvTest, DefaultsWhenUnset) {
  const auto o = BenchOptions::from_env();
  EXPECT_EQ(o.repetitions, 10);
  EXPECT_EQ(o.sockets, 4);
  EXPECT_EQ(o.threads, 0);
  EXPECT_FALSE(o.quiet);
  EXPECT_DOUBLE_EQ(o.fault_rate, 0.0);
  EXPECT_EQ(o.fault_seed, 0u);
  EXPECT_EQ(o.out_dir, "out");
  EXPECT_FALSE(o.telemetry);
}

TEST_F(OptionsEnvTest, OutDirOverrideAndPathJoin) {
  setenv("DUFP_OUT_DIR", "/tmp/dufp_options_test_out", 1);
  const auto o = BenchOptions::from_env();
  EXPECT_EQ(o.out_dir, "/tmp/dufp_options_test_out");
  // out_path creates the directory and joins the filename onto it.
  EXPECT_EQ(o.out_path("x.csv"), "/tmp/dufp_options_test_out/x.csv");
}

TEST_F(OptionsEnvTest, EmptyOutDirRejected) {
  setenv("DUFP_OUT_DIR", "", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("DUFP_OUT_DIR"), std::string::npos) << msg;
  EXPECT_NE(msg.find("non-empty"), std::string::npos) << msg;
}

TEST_F(OptionsEnvTest, TelemetryIsPresenceFlag) {
  setenv("DUFP_TELEMETRY", "1", 1);
  EXPECT_TRUE(BenchOptions::from_env().telemetry);
}

TEST_F(OptionsEnvTest, ValidValuesParse) {
  setenv("DUFP_REPS", "3", 1);
  setenv("DUFP_SOCKETS", "2", 1);
  setenv("DUFP_THREADS", "0", 1);
  setenv("DUFP_FAULT_RATE", "0.05", 1);
  setenv("DUFP_FAULT_SEED", "12345678901234567890", 1);  // > 2^63
  const auto o = BenchOptions::from_env();
  EXPECT_EQ(o.repetitions, 3);
  EXPECT_EQ(o.sockets, 2);
  EXPECT_EQ(o.threads, 0);
  EXPECT_DOUBLE_EQ(o.fault_rate, 0.05);
  EXPECT_EQ(o.fault_seed, 12345678901234567890ULL);
}

TEST_F(OptionsEnvTest, NonNumericRepsRejected) {
  setenv("DUFP_REPS", "ten", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("DUFP_REPS"), std::string::npos) << msg;
  EXPECT_NE(msg.find("ten"), std::string::npos) << msg;
}

TEST_F(OptionsEnvTest, TrailingJunkRejected) {
  setenv("DUFP_SOCKETS", "4x", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("DUFP_SOCKETS"), std::string::npos) << msg;
}

TEST_F(OptionsEnvTest, ThreadsAbcRejected) {
  setenv("DUFP_THREADS", "abc", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("DUFP_THREADS"), std::string::npos) << msg;
  EXPECT_NE(msg.find("not an integer"), std::string::npos) << msg;
}

TEST_F(OptionsEnvTest, BelowMinimumRejectedNotDefaulted) {
  setenv("DUFP_REPS", "0", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("DUFP_REPS"), std::string::npos) << msg;
  EXPECT_NE(msg.find(">= 1"), std::string::npos) << msg;
}

TEST_F(OptionsEnvTest, NegativeThreadsRejected) {
  setenv("DUFP_THREADS", "-2", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("DUFP_THREADS"), std::string::npos) << msg;
}

TEST_F(OptionsEnvTest, FaultRateOutOfRangeRejected) {
  setenv("DUFP_FAULT_RATE", "1.5", 1);
  EXPECT_NE(error_of_from_env().find("DUFP_FAULT_RATE"), std::string::npos);
  setenv("DUFP_FAULT_RATE", "-0.1", 1);
  EXPECT_NE(error_of_from_env().find("[0, 1]"), std::string::npos);
  setenv("DUFP_FAULT_RATE", "half", 1);
  EXPECT_NE(error_of_from_env().find("not a number"), std::string::npos);
}

TEST_F(OptionsEnvTest, ChaosKnobsParseAndValidateLikeFaultKnobs) {
  setenv("DUFP_CHAOS", "0.25", 1);
  setenv("DUFP_CHAOS_SEED", "7", 1);
  const auto o = BenchOptions::from_env();
  EXPECT_DOUBLE_EQ(o.chaos_kill_rate, 0.25);
  EXPECT_EQ(o.chaos_seed, 7u);

  setenv("DUFP_CHAOS", "1.5", 1);
  EXPECT_NE(error_of_from_env().find("DUFP_CHAOS"), std::string::npos);
  setenv("DUFP_CHAOS", "0.25", 1);
  setenv("DUFP_CHAOS_SEED", "-1", 1);
  EXPECT_NE(error_of_from_env().find("DUFP_CHAOS_SEED"), std::string::npos);
}

TEST_F(OptionsEnvTest, NegativeFaultSeedRejected) {
  // strtoull would silently wrap "-1" to 2^64-1; the parser must not.
  setenv("DUFP_FAULT_SEED", "-1", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("DUFP_FAULT_SEED"), std::string::npos) << msg;
}

TEST_F(OptionsEnvTest, AllProblemsAggregatedIntoOneError) {
  setenv("DUFP_REPS", "zero", 1);
  setenv("DUFP_SOCKETS", "-3", 1);
  setenv("DUFP_THREADS", "4.5", 1);
  setenv("DUFP_FAULT_RATE", "2", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("DUFP_REPS"), std::string::npos) << msg;
  EXPECT_NE(msg.find("DUFP_SOCKETS"), std::string::npos) << msg;
  EXPECT_NE(msg.find("DUFP_THREADS"), std::string::npos) << msg;
  EXPECT_NE(msg.find("DUFP_FAULT_RATE"), std::string::npos) << msg;
}

TEST_F(OptionsEnvTest, PoliciesUnsetMeansEmptyList) {
  EXPECT_TRUE(BenchOptions::from_env().policies.empty());
}

TEST_F(OptionsEnvTest, PoliciesParseCanonicalizesAliasSpellings) {
  setenv("DUFP_POLICIES", " duf , DUFP-F ,cuttlefish", 1);
  const auto o = BenchOptions::from_env();
  EXPECT_EQ(o.policies,
            (std::vector<std::string>{"DUF", "DUFP-F", "cuttlefish"}));
}

TEST_F(OptionsEnvTest, PoliciesUnknownAndDuplicateAggregated) {
  setenv("DUFP_POLICIES", "DUF,duf,sasquatch", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("DUFP_POLICIES"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate policy \"duf\""), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown policy \"sasquatch\""), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("known:"), std::string::npos) << msg;
}

TEST_F(OptionsEnvTest, PoliciesEmptyTokenAndEmptyListRejected) {
  setenv("DUFP_POLICIES", "DUF,,DUFP", 1);
  EXPECT_NE(error_of_from_env().find("empty policy name"), std::string::npos);
  setenv("DUFP_POLICIES", "", 1);
  EXPECT_NE(error_of_from_env().find("at least one policy"),
            std::string::npos);
}

TEST_F(OptionsEnvTest, IntegerOverflowRejected) {
  setenv("DUFP_REPS", "99999999999999999999", 1);
  const auto msg = error_of_from_env();
  EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

}  // namespace
}  // namespace dufp::harness
