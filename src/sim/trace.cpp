#include "sim/trace.h"

#include "common/expect.h"
#include "common/table.h"

namespace dufp::sim {

VectorTraceSink::VectorTraceSink(int decimation) : decimation_(decimation) {
  DUFP_EXPECT(decimation >= 1);
}

void VectorTraceSink::on_tick(SimTime now,
                              const std::vector<TickRecord>& sockets) {
  if (tick_index_++ % decimation_ == 0) {
    entries_.push_back(Entry{now, sockets});
  }
}

CsvTraceSink::CsvTraceSink(const std::string& path, int decimation)
    : writer_(path), decimation_(decimation) {
  DUFP_EXPECT(decimation >= 1);
  writer_.write_row({"time_s", "socket", "core_mhz", "uncore_mhz", "pkg_w",
                     "dram_w", "cap_long_w", "cap_short_w", "gflops",
                     "speed"});
}

void CsvTraceSink::on_tick(SimTime now,
                           const std::vector<TickRecord>& sockets) {
  if (tick_index_++ % decimation_ != 0) return;
  for (std::size_t s = 0; s < sockets.size(); ++s) {
    const TickRecord& r = sockets[s];
    writer_.write_row(
        {fmt_double(now.seconds(), 3), std::to_string(s),
         fmt_double(r.core_mhz, 0), fmt_double(r.uncore_mhz, 0),
         fmt_double(r.pkg_power_w, 2), fmt_double(r.dram_power_w, 2),
         fmt_double(r.cap_long_w, 1), fmt_double(r.cap_short_w, 1),
         fmt_double(r.flops_grate, 2), fmt_double(r.speed, 4)});
  }
}

}  // namespace dufp::sim
