#include "hwmodel/machine_model.h"

#include <gtest/gtest.h>

namespace dufp::hw {
namespace {

TEST(MachineModelTest, DefaultIsYeti2) {
  const MachineConfig cfg;
  EXPECT_EQ(cfg.sockets, 4);
  EXPECT_EQ(cfg.socket.cores, 16);
  EXPECT_EQ(cfg.name, "yeti-2");
  MachineModel m(cfg);
  EXPECT_EQ(m.socket_count(), 4);
}

TEST(MachineModelTest, SocketsHaveDistinctIds) {
  MachineModel m{MachineConfig{}};
  for (int i = 0; i < m.socket_count(); ++i) {
    EXPECT_EQ(m.socket(i).socket_id(), i);
  }
}

TEST(MachineModelTest, OutOfRangeSocketThrows) {
  MachineModel m{MachineConfig{}};
  EXPECT_THROW(m.socket(4), std::invalid_argument);
  EXPECT_THROW(m.socket(-1), std::invalid_argument);
}

TEST(MachineModelTest, ZeroSocketsRejected) {
  MachineConfig cfg;
  cfg.sockets = 0;
  EXPECT_THROW(MachineModel{cfg}, std::invalid_argument);
}

TEST(MachineModelTest, TotalsSumOverSockets) {
  MachineConfig cfg;
  cfg.sockets = 2;
  MachineModel m(cfg);

  PhaseDemand d;
  d.w_cpu = 0.8;
  d.w_mem = 0.1;
  d.w_unc = 0.0;
  d.w_fixed = 0.1;
  d.cpu_activity = 1.0;
  d.mem_activity = 0.5;
  d.flops_rate_ref = 10e9;
  d.bytes_rate_ref = 5e9;

  for (int i = 0; i < 2; ++i) {
    m.socket(i).set_demand(d);
    m.socket(i).accumulate(m.socket(i).evaluate(), 1.0);
  }
  const double per_socket = m.socket(0).evaluate().pkg_power_w;
  EXPECT_NEAR(m.total_pkg_energy_j(), 2.0 * per_socket, 1e-9);
  EXPECT_NEAR(m.total_dram_energy_j(),
              2.0 * m.socket(0).evaluate().dram_power_w, 1e-9);
}

TEST(MachineModelTest, SocketsAreIndependent) {
  MachineConfig cfg;
  cfg.sockets = 2;
  MachineModel m(cfg);
  m.socket(0).set_core_freq_limit_mhz(1500.0);
  EXPECT_DOUBLE_EQ(m.socket(0).core_freq_limit_mhz(), 1500.0);
  EXPECT_DOUBLE_EQ(m.socket(1).core_freq_limit_mhz(), 2800.0);
}

}  // namespace
}  // namespace dufp::hw
