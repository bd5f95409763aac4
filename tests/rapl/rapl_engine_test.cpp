#include "rapl/rapl_engine.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "msr/registers.h"

namespace dufp::rapl {
namespace {

using namespace dufp::msr;

hw::PhaseDemand busy_demand() {
  hw::PhaseDemand d;
  d.w_cpu = 0.8;
  d.w_mem = 0.1;
  d.w_unc = 0.0;
  d.w_fixed = 0.1;
  d.cpu_activity = 1.0;
  d.mem_activity = 0.8;
  d.flops_rate_ref = 50e9;
  d.bytes_rate_ref = 30e9;
  return d;
}

class RaplEngineTest : public ::testing::Test {
 protected:
  RaplEngineTest() : socket_(cfg_, 0), dev_(cfg_.cores), engine_(socket_, dev_) {}

  void run(int ms) {
    for (int i = 0; i < ms; ++i) {
      engine_.tick();
      const auto inst = socket_.evaluate();
      socket_.accumulate(inst, 0.001);
      engine_.record(inst, 0.001);
    }
  }

  hw::SocketConfig cfg_;
  hw::SocketModel socket_;
  msr::SimulatedMsr dev_;
  RaplEngine engine_;
};

TEST_F(RaplEngineTest, InstallsExpectedRegisters) {
  for (std::uint32_t reg :
       {kMsrRaplPowerUnit, kMsrPkgPowerLimit, kMsrPkgEnergyStatus,
        kMsrPkgPowerInfo, kMsrDramPowerLimit, kMsrDramEnergyStatus,
        kMsrUncoreRatioLimit, kMsrUncorePerfStatus, kIa32Aperf,
        kIa32Mperf}) {
    // An undefined register reads as MsrError("not implemented").
    EXPECT_NO_THROW(dev_.read(0, reg)) << "reg 0x" << std::hex << reg;
  }
}

TEST_F(RaplEngineTest, UnitsAreSkylake) {
  const auto u = decode_rapl_units(dev_.read(0, kMsrRaplPowerUnit));
  EXPECT_EQ(u.power_unit_bits, 3u);
  EXPECT_EQ(u.energy_unit_bits, 14u);
}

TEST_F(RaplEngineTest, DefaultLimitMatchesTableI) {
  const auto pl =
      decode_power_limit(dev_.read(0, kMsrPkgPowerLimit), engine_.units());
  EXPECT_DOUBLE_EQ(pl.long_term_w, 125.0);
  EXPECT_DOUBLE_EQ(pl.short_term_w, 150.0);
  EXPECT_TRUE(pl.long_term_enabled);
  EXPECT_TRUE(pl.short_term_enabled);
}

TEST_F(RaplEngineTest, PowerInfoReportsTdp) {
  const auto info =
      decode_power_info(dev_.read(0, kMsrPkgPowerInfo), engine_.units());
  EXPECT_DOUBLE_EQ(info.tdp_w, 125.0);
}

TEST_F(RaplEngineTest, WritingLimitMsrReprogramsGovernor) {
  PowerLimit pl =
      decode_power_limit(dev_.read(0, kMsrPkgPowerLimit), engine_.units());
  pl.long_term_w = 95.0;
  pl.short_term_w = 95.0;
  dev_.write(0, kMsrPkgPowerLimit, encode_power_limit(pl, engine_.units()));
  EXPECT_DOUBLE_EQ(engine_.governor().limit().long_term_w, 95.0);

  socket_.set_demand(busy_demand());
  run(2000);
  EXPECT_LE(socket_.evaluate().pkg_power_w, 96.5);
}

TEST_F(RaplEngineTest, EnergyCounterAdvancesWithConsumption) {
  socket_.set_demand(busy_demand());
  const auto before = dev_.read(0, kMsrPkgEnergyStatus);
  run(500);  // 0.5 s at ~115 W -> ~57 J
  const auto after = dev_.read(0, kMsrPkgEnergyStatus);
  const double joules =
      static_cast<double>(wrap_delta(before, after, 1ULL << 32)) *
      engine_.units().joules_per_unit();
  EXPECT_NEAR(joules, socket_.pkg_energy_j(), 0.01);
  EXPECT_GT(joules, 20.0);
}

TEST_F(RaplEngineTest, DramEnergyCounterAdvances) {
  socket_.set_demand(busy_demand());
  run(500);
  const auto raw = dev_.read(0, kMsrDramEnergyStatus);
  EXPECT_GT(raw, 0ull);
  const double joules = static_cast<double>(raw) *
                        engine_.units().joules_per_unit();
  EXPECT_NEAR(joules, socket_.dram_energy_j(), 0.01);
}

TEST_F(RaplEngineTest, UncoreRatioWriteClampsSocketWindow) {
  UncoreRatioLimit lim;
  lim.min_ratio = 16;
  lim.max_ratio = 16;
  dev_.write(0, kMsrUncoreRatioLimit, encode_uncore_ratio_limit(lim));
  socket_.set_demand(busy_demand());
  EXPECT_DOUBLE_EQ(socket_.effective_uncore_mhz(), 1600.0);
}

TEST_F(RaplEngineTest, UncorePerfStatusReflectsEffectiveClock) {
  socket_.set_demand(busy_demand());
  EXPECT_EQ(decode_uncore_perf_status(dev_.read(0, kMsrUncorePerfStatus)),
            24u);
  UncoreRatioLimit lim;
  lim.min_ratio = 14;
  lim.max_ratio = 14;
  dev_.write(0, kMsrUncoreRatioLimit, encode_uncore_ratio_limit(lim));
  EXPECT_EQ(decode_uncore_perf_status(dev_.read(0, kMsrUncorePerfStatus)),
            14u);
}

TEST_F(RaplEngineTest, DramLimitAcceptedButInactive) {
  // The paper's platform has no DRAM capping; writes must stick in the
  // register but change nothing in enforcement.
  PowerLimit pl;
  pl.long_term_w = 10.0;
  pl.long_term_enabled = true;
  dev_.write(0, kMsrDramPowerLimit, encode_power_limit(pl, engine_.units()));
  socket_.set_demand(busy_demand());
  run(200);
  EXPECT_GT(socket_.evaluate().dram_power_w, 10.0);
}

TEST_F(RaplEngineTest, AperfMperfReadable) {
  socket_.set_demand(busy_demand());
  run(100);
  EXPECT_GT(dev_.read(0, kIa32Aperf), 0ull);
  EXPECT_GT(dev_.read(3, kIa32Mperf), 0ull);
}

}  // namespace
}  // namespace dufp::rapl
