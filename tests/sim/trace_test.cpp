#include "sim/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace dufp::sim {
namespace {

std::vector<TickRecord> one_socket_record(float power) {
  TickRecord r;
  r.core_mhz = 2800.0f;
  r.uncore_mhz = 2400.0f;
  r.pkg_power_w = power;
  r.dram_power_w = 20.0f;
  r.cap_long_w = 125.0f;
  r.cap_short_w = 150.0f;
  r.flops_grate = 40.0f;
  r.speed = 1.0f;
  return {r};
}

TEST(VectorTraceSinkTest, KeepsEverythingAtDecimationOne) {
  VectorTraceSink sink(1);
  for (int i = 0; i < 10; ++i) {
    sink.on_tick(SimTime::from_millis(i), one_socket_record(100.0f + i));
  }
  EXPECT_EQ(sink.entries().size(), 10u);
}

TEST(VectorTraceSinkTest, DecimatesKeepingEveryNth) {
  VectorTraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    sink.on_tick(SimTime::from_millis(i), one_socket_record(float(i)));
  }
  ASSERT_EQ(sink.entries().size(), 3u);  // ticks 0, 4, 8
  EXPECT_EQ(sink.entries()[1].sockets[0].pkg_power_w, 4.0f);
}

TEST(VectorTraceSinkTest, InvalidDecimationRejected) {
  EXPECT_THROW(VectorTraceSink(0), std::invalid_argument);
}

TEST(CsvTraceSinkTest, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/dufp_trace_test.csv";
  {
    CsvTraceSink sink(path, 2);
    for (int i = 0; i < 4; ++i) {
      sink.on_tick(SimTime::from_millis(i), one_socket_record(float(i)));
    }
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 13), "time_s,socket");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2);  // ticks 0 and 2
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dufp::sim
