#include "hwmodel/socket_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "msr/registers.h"
#include "workloads/profiles.h"

namespace dufp::hw {
namespace {

PhaseDemand demand(double w_cpu, double w_mem, double cpu_act,
                   double mem_act) {
  PhaseDemand d;
  d.w_cpu = w_cpu;
  d.w_mem = w_mem;
  d.w_unc = 0.0;
  d.w_fixed = 1.0 - w_cpu - w_mem;
  d.flops_rate_ref = 50e9;
  d.bytes_rate_ref = 25e9;
  d.cpu_activity = cpu_act;
  d.mem_activity = mem_act;
  return d;
}

class SocketModelTest : public ::testing::Test {
 protected:
  SocketConfig cfg_;
  SocketModel socket_{cfg_, 0};
};

TEST_F(SocketModelTest, InitialStateIsUnconstrained) {
  EXPECT_DOUBLE_EQ(socket_.core_freq_limit_mhz(), 2800.0);
  EXPECT_DOUBLE_EQ(socket_.uncore_window_min_mhz(), 1200.0);
  EXPECT_DOUBLE_EQ(socket_.uncore_window_max_mhz(), 2400.0);
}

TEST_F(SocketModelTest, QuantizesCoreFrequency) {
  EXPECT_DOUBLE_EQ(socket_.quantize_core_mhz(2749.0), 2700.0);
  EXPECT_DOUBLE_EQ(socket_.quantize_core_mhz(2751.0), 2800.0);
  EXPECT_DOUBLE_EQ(socket_.quantize_core_mhz(5000.0), 2800.0);
  EXPECT_DOUBLE_EQ(socket_.quantize_core_mhz(100.0), 1000.0);
}

TEST_F(SocketModelTest, QuantizesUncoreFrequency) {
  EXPECT_DOUBLE_EQ(socket_.quantize_uncore_mhz(1849.0), 1800.0);
  EXPECT_DOUBLE_EQ(socket_.quantize_uncore_mhz(9999.0), 2400.0);
  EXPECT_DOUBLE_EQ(socket_.quantize_uncore_mhz(0.0), 1200.0);
}

TEST_F(SocketModelTest, IdleDemandDropsUncoreToWindowMin) {
  socket_.set_demand(PhaseDemand::make_idle());
  EXPECT_DOUBLE_EQ(socket_.effective_uncore_mhz(), 1200.0);
}

TEST_F(SocketModelTest, BusyDemandPegsUncoreAtWindowMax) {
  // The conservative default Skylake UFS behaviour the paper criticizes.
  socket_.set_demand(demand(0.5, 0.4, 0.9, 0.9));
  EXPECT_DOUBLE_EQ(socket_.effective_uncore_mhz(), 2400.0);
  socket_.set_uncore_window_mhz(1200.0, 1800.0);
  EXPECT_DOUBLE_EQ(socket_.effective_uncore_mhz(), 1800.0);
}

TEST_F(SocketModelTest, PinnedUncoreWindow) {
  socket_.set_demand(demand(0.5, 0.4, 0.9, 0.9));
  socket_.set_uncore_window_mhz(1700.0, 1700.0);
  EXPECT_DOUBLE_EQ(socket_.effective_uncore_mhz(), 1700.0);
}

TEST_F(SocketModelTest, ReversedUncoreWindowNormalized) {
  socket_.set_uncore_window_mhz(2200.0, 1400.0);
  EXPECT_LE(socket_.uncore_window_min_mhz(), socket_.uncore_window_max_mhz());
}

TEST_F(SocketModelTest, CoreLimitCapsEffectiveClock) {
  socket_.set_demand(demand(0.9, 0.05, 1.0, 0.2));
  socket_.set_core_freq_limit_mhz(2100.0);
  EXPECT_DOUBLE_EQ(socket_.effective_core_mhz(), 2100.0);
  socket_.set_core_freq_limit_mhz(9999.0);
  EXPECT_DOUBLE_EQ(socket_.effective_core_mhz(), 2800.0);
}

TEST_F(SocketModelTest, EvaluateIsConsistent) {
  const auto d = demand(0.6, 0.3, 0.9, 0.8);
  socket_.set_demand(d);
  const auto inst = socket_.evaluate();
  EXPECT_DOUBLE_EQ(inst.core_mhz, 2800.0);
  EXPECT_DOUBLE_EQ(inst.uncore_mhz, 2400.0);
  EXPECT_NEAR(inst.speed, 1.0, 1e-9);
  EXPECT_NEAR(inst.flops_rate, 50e9, 1e-3);
  EXPECT_NEAR(inst.bytes_rate, 25e9, 1e-3);
  EXPECT_GT(inst.pkg_power_w, 50.0);
  EXPECT_GT(inst.dram_power_w, 0.0);
}

TEST_F(SocketModelTest, ThrottlingSlowsAndSavesPower) {
  socket_.set_demand(demand(0.9, 0.05, 1.0, 0.3));
  const auto full = socket_.evaluate();
  socket_.set_core_freq_limit_mhz(1800.0);
  const auto limited = socket_.evaluate();
  EXPECT_LT(limited.speed, full.speed);
  EXPECT_LT(limited.pkg_power_w, full.pkg_power_w);
  EXPECT_LT(limited.flops_rate, full.flops_rate);
}

TEST_F(SocketModelTest, DemandWeightsMustSumToOne) {
  PhaseDemand d = demand(0.5, 0.4, 0.9, 0.9);
  d.w_fixed = 0.5;  // now sums to 1.4
  EXPECT_THROW(socket_.set_demand(d), std::invalid_argument);
}

TEST_F(SocketModelTest, NegativeWeightsRejected) {
  PhaseDemand d = demand(0.5, 0.4, 0.9, 0.9);
  d.w_cpu = -0.1;
  d.w_fixed = 0.7;
  EXPECT_THROW(socket_.set_demand(d), std::invalid_argument);
}

TEST_F(SocketModelTest, AccumulateIntegratesGroundTruth) {
  socket_.set_demand(demand(0.6, 0.3, 0.9, 0.8));
  const auto inst = socket_.evaluate();
  socket_.accumulate(inst, 2.0);
  EXPECT_NEAR(socket_.pkg_energy_j(), inst.pkg_power_w * 2.0, 1e-9);
  EXPECT_NEAR(socket_.dram_energy_j(), inst.dram_power_w * 2.0, 1e-9);
  EXPECT_NEAR(socket_.flops_total(), inst.flops_rate * 2.0, 1.0);
  EXPECT_NEAR(socket_.bytes_total(), inst.bytes_rate * 2.0, 1.0);
}

TEST_F(SocketModelTest, AperfMperfTrackClocks) {
  socket_.set_demand(demand(0.9, 0.05, 1.0, 0.2));
  socket_.set_core_freq_limit_mhz(2100.0);
  const auto inst = socket_.evaluate();
  socket_.accumulate(inst, 1.0);
  // APERF counts actual cycles (2.1 GHz), MPERF base cycles (2.1 GHz
  // nominal on the 6130): ratio = fc / base.
  const double ratio = static_cast<double>(socket_.aperf_cycles()) /
                       static_cast<double>(socket_.mperf_cycles());
  EXPECT_NEAR(ratio, 2100.0 / cfg_.core_base_mhz, 1e-6);
}

TEST_F(SocketModelTest, PackagePowerAtMatchesEvaluate) {
  socket_.set_demand(demand(0.7, 0.2, 0.95, 0.6));
  socket_.set_core_freq_limit_mhz(2300.0);
  const auto inst = socket_.evaluate();
  EXPECT_NEAR(socket_.package_power_at(2300.0), inst.pkg_power_w, 1e-9);
}

TEST_F(SocketModelTest, CoreMhzForPowerRespectsCurrentUncore) {
  socket_.set_demand(demand(0.9, 0.05, 1.0, 0.3));
  const double f_full = socket_.core_mhz_for_power(100.0);
  socket_.set_uncore_window_mhz(1200.0, 1200.0);
  const double f_low_uncore = socket_.core_mhz_for_power(100.0);
  // Lower uncore leaves more budget for the cores.
  EXPECT_GT(f_low_uncore, f_full);
}

// The engine's stretch bounds (kSpeedBoundMargin) assume no
// operating point progresses faster than 1 / (sum of the demand weights).
// Sweep every state the actuators can reach: each RAPL P-state limit,
// each IA32_PERF_CTL request, each uncore window a 0x620 write can
// program (every min/max ratio pair through the decoder and the setter,
// reversed pairs included), under every phase demand of the ten paper
// applications and the idle demand.
TEST_F(SocketModelTest, SpeedNeverExceedsTheCeiling) {
  std::set<std::pair<double, double>> windows;
  for (std::uint64_t min_ratio = 0; min_ratio < 128; ++min_ratio) {
    for (std::uint64_t max_ratio = 0; max_ratio < 128; ++max_ratio) {
      const msr::UncoreRatioLimit lim =
          msr::decode_uncore_ratio_limit(min_ratio << 8 | max_ratio);
      socket_.set_uncore_window_mhz(msr::uncore_ratio_to_mhz(lim.min_ratio),
                                    msr::uncore_ratio_to_mhz(lim.max_ratio));
      windows.insert({socket_.uncore_window_min_mhz(),
                      socket_.uncore_window_max_mhz()});
    }
  }
  std::set<double> user_pstates;
  for (unsigned ratio = 0; ratio < 256; ++ratio) {
    socket_.set_user_pstate_limit_mhz(
        msr::decode_perf_ctl(msr::encode_perf_ctl(ratio)) * 100.0);
    user_pstates.insert(socket_.user_pstate_limit_mhz());
  }
  std::vector<PhaseDemand> demands{PhaseDemand::make_idle()};
  for (const workloads::AppId app : workloads::all_apps()) {
    for (const auto& phase : workloads::profile(app).phases()) {
      demands.push_back(phase.demand());
    }
  }
  // 13 uncore ratios give 91 ordered windows; 19 P-states.
  ASSERT_EQ(windows.size(), 91u);
  ASSERT_EQ(user_pstates.size(), 19u);

  std::int64_t points = 0;
  std::int64_t over = 0;
  double max_speed = 0.0;
  double max_ratio_to_ceiling = 0.0;
  for (const auto& [lo, hi] : windows) {
    socket_.set_uncore_window_mhz(lo, hi);
    for (const PhaseDemand& d : demands) {
      socket_.set_demand(d);
      const double ceiling = 1.0 / (d.w_cpu + d.w_mem + d.w_unc + d.w_fixed);
      for (double core = cfg_.core_min_mhz; core <= cfg_.core_max_mhz;
           core += cfg_.core_step_mhz) {
        socket_.set_core_freq_limit_mhz(core);
        for (const double user : user_pstates) {
          socket_.set_user_pstate_limit_mhz(user);
          const double speed = socket_.evaluate().speed;
          ++points;
          // Round-off only: the dilation is four terms each at least its
          // weight, summed in another order than the weights.
          if (!(speed <= ceiling * (1.0 + 1e-12))) ++over;
          max_speed = std::max(max_speed, speed);
          max_ratio_to_ceiling =
              std::max(max_ratio_to_ceiling, speed / ceiling);
        }
      }
    }
  }
  EXPECT_EQ(points, 91 * static_cast<std::int64_t>(demands.size()) * 19 * 19);
  EXPECT_EQ(over, 0) << "operating points faster than 1/(sum of weights); "
                        "largest speed/ceiling "
                     << max_ratio_to_ceiling;
  EXPECT_LT(max_speed, kSpeedBoundMargin);
  // The sweep reached the reference point, where speed meets the ceiling.
  EXPECT_GT(max_ratio_to_ceiling, 1.0 - 1e-12);
}

}  // namespace
}  // namespace dufp::hw
