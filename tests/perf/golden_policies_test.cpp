// Byte-identical golden regression for the four legacy policies across
// the policy-API seam.
//
// The goldens in tests/perf/golden were produced by the pre-redesign
// agent (enum-switch dispatch inside core::Agent); these tests pin the
// registry-backed Policy port of DUF / DUFP / DUFP-F / DNPC to the exact
// same bytes for the same seeds — summaries, full traces under a fault
// storm, and the complete telemetry surface (Prometheus + Chrome trace +
// JSONL).  Any behavioural drift in the port fails a byte compare here.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>

#include "golden_util.h"
#include "sim/trace.h"
#include "telemetry/export.h"

namespace dufp::perf_test {
namespace {

struct PolicyCase {
  const char* policy;  ///< registry name
  const char* tag;     ///< golden-file infix
};

void PrintTo(const PolicyCase& c, std::ostream* os) { *os << c.policy; }

class GoldenPoliciesTest : public ::testing::TestWithParam<PolicyCase> {};

harness::RunConfig policy_config(const workloads::WorkloadProfile& profile,
                                 const char* policy) {
  harness::RunConfig cfg = golden_config(profile);
  cfg.policy_name = policy;
  return cfg;
}

harness::RunConfig policy_storm_config(
    const workloads::WorkloadProfile& profile, const char* policy) {
  harness::RunConfig cfg = golden_storm_config(profile);
  cfg.policy_name = policy;
  return cfg;
}

TEST_P(GoldenPoliciesTest, SerialSummaryMatchesPreRedesignGolden) {
  const auto profile = golden_profile();
  const auto p = GetParam();
  expect_matches_golden(
      summary_text(harness::run_once(policy_config(profile, p.policy))),
      std::string("policy_") + p.tag + "_summary.txt");
}

TEST_P(GoldenPoliciesTest, FaultStormTraceMatchesPreRedesignGolden) {
  const auto profile = golden_profile();
  const auto p = GetParam();
  harness::RunConfig cfg = policy_storm_config(profile, p.policy);
  const std::string path = temp_path(std::string(p.tag) + "_storm.csv");
  {
    sim::CsvTraceSink sink(path, /*decimation=*/1);
    cfg.trace = &sink;
    harness::run_once(cfg);
  }
  expect_matches_golden(read_file(path),
                        std::string("policy_") + p.tag + "_storm_trace.csv");
}

TEST_P(GoldenPoliciesTest, FaultStormTelemetryBytesMatchPreRedesignGolden) {
  const auto profile = golden_profile();
  const auto p = GetParam();
  harness::RunConfig cfg = policy_storm_config(profile, p.policy);
  cfg.telemetry.enabled = true;
  const auto res = harness::run_once(cfg);
  ASSERT_TRUE(res.telemetry.has_value());
  std::string bytes;
  telemetry::write_prometheus(res.telemetry->metrics, bytes);
  std::ostringstream out;
  telemetry::write_chrome_trace(*res.telemetry, out);
  telemetry::write_jsonl(*res.telemetry, out);
  expect_matches_golden(bytes + out.str(),
                        std::string("policy_") + p.tag + "_telemetry.txt");
}

INSTANTIATE_TEST_SUITE_P(
    LegacyPolicies, GoldenPoliciesTest,
    ::testing::Values(PolicyCase{"DUF", "duf"},
                      PolicyCase{"DUFP", "dufp"},
                      PolicyCase{"DUFP-F", "dufpf"},
                      PolicyCase{"DNPC", "dnpc"}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return std::string(info.param.tag);
    });

}  // namespace
}  // namespace dufp::perf_test
