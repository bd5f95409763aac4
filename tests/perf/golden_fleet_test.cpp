// Golden bytes of a faulted DUFP-F fleet run.  A fleet node wires its
// sockets like run_once does (fault chain, zones, counters, agents,
// P-state control), and nothing else pins what that wiring produces
// under a storm: the other fleet storm tests compare a run against
// itself.  The golden holds the allocation CSV, the summary CSV and the
// Prometheus exposition of FleetSpec::reference() under that storm.
#include <gtest/gtest.h>

#include "fleet/shard.h"
#include "fleet/spec.h"
#include "golden_util.h"

namespace dufp::perf_test {
namespace {

TEST(GoldenFleetTest, DufpfStormMatchesGolden) {
  fleet::FleetSpec spec = fleet::FleetSpec::reference();
  spec.policy = "DUFP-F";
  spec.fault_rate = 0.3;
  spec.fault_seed = 11;
  const fleet::FleetOutputs out = fleet::run_fleet_serial(spec);
  expect_matches_golden(out.allocation_csv + out.summary_csv + out.prometheus,
                        "fleet_dufpf_storm.txt");
}

}  // namespace
}  // namespace dufp::perf_test
