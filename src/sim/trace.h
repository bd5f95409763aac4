// Per-tick tracing: how Fig. 5 (frequency traces) and the debugging
// examples observe the simulation's internals.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/csv.h"

namespace dufp::sim {

/// One socket's state at the end of a tick.  Floats keep full-run traces
/// compact (30k ticks x 4 sockets per run).
struct TickRecord {
  float core_mhz = 0.0f;
  float uncore_mhz = 0.0f;
  float pkg_power_w = 0.0f;
  float dram_power_w = 0.0f;
  float cap_long_w = 0.0f;
  float cap_short_w = 0.0f;
  float flops_grate = 0.0f;  ///< GFLOP/s
  float speed = 0.0f;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Called once per tick with one record per socket.
  virtual void on_tick(SimTime now, const std::vector<TickRecord>& sockets) = 0;
};

/// Keeps every Nth tick in memory (decimation 1 = everything).
class VectorTraceSink final : public TraceSink {
 public:
  explicit VectorTraceSink(int decimation = 1);

  void on_tick(SimTime now, const std::vector<TickRecord>& sockets) override;

  struct Entry {
    SimTime time;
    std::vector<TickRecord> sockets;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  int decimation_;
  long tick_index_ = 0;
  std::vector<Entry> entries_;
};

/// Streams records to CSV:
/// time_s,socket,core_mhz,uncore_mhz,pkg_w,dram_w,cap_long_w,cap_short_w,gflops,speed
class CsvTraceSink final : public TraceSink {
 public:
  CsvTraceSink(const std::string& path, int decimation = 1);

  void on_tick(SimTime now, const std::vector<TickRecord>& sockets) override;

 private:
  CsvWriter writer_;
  int decimation_;
  long tick_index_ = 0;
};

}  // namespace dufp::sim
