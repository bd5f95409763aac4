// A multi-socket machine (yeti-2 by default): owns the per-socket models.
#pragma once

#include <memory>
#include <vector>

#include "common/expect.h"
#include "hwmodel/socket_config.h"
#include "hwmodel/socket_model.h"

namespace dufp::hw {

class MachineModel {
 public:
  explicit MachineModel(const MachineConfig& config);

  const MachineConfig& config() const { return config_; }
  int socket_count() const { return static_cast<int>(sockets_.size()); }

  // Inline: the engine resolves a socket once or more per socket-tick.
  SocketModel& socket(int i) {
    DUFP_EXPECT(i >= 0 && i < socket_count());
    return *sockets_[static_cast<std::size_t>(i)];
  }
  const SocketModel& socket(int i) const {
    DUFP_EXPECT(i >= 0 && i < socket_count());
    return *sockets_[static_cast<std::size_t>(i)];
  }

  /// Aggregate accumulated energies.
  double total_pkg_energy_j() const;
  double total_dram_energy_j() const;

 private:
  MachineConfig config_;
  std::vector<std::unique_ptr<SocketModel>> sockets_;
};

}  // namespace dufp::hw
