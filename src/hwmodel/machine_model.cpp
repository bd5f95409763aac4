#include "hwmodel/machine_model.h"

#include "common/expect.h"

namespace dufp::hw {

MachineModel::MachineModel(const MachineConfig& config) : config_(config) {
  DUFP_EXPECT(config.sockets > 0);
  sockets_.reserve(static_cast<std::size_t>(config.sockets));
  for (int i = 0; i < config.sockets; ++i) {
    sockets_.push_back(std::make_unique<SocketModel>(config.socket, i));
  }
}

double MachineModel::total_pkg_energy_j() const {
  double sum = 0.0;
  for (const auto& s : sockets_) sum += s->pkg_energy_j();
  return sum;
}

double MachineModel::total_dram_energy_j() const {
  double sum = 0.0;
  for (const auto& s : sockets_) sum += s->dram_energy_j();
  return sum;
}

}  // namespace dufp::hw
