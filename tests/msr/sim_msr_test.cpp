#include "msr/sim_msr.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "msr/registers.h"

namespace dufp::msr {
namespace {

TEST(SimulatedMsrTest, StorageRegisterReadsBack) {
  SimulatedMsr dev(16);
  dev.define_register(0x610, 0xABCD);
  EXPECT_EQ(dev.read(0, 0x610), 0xABCDull);
  dev.write(3, 0x610, 0x42);
  EXPECT_EQ(dev.read(7, 0x610), 0x42ull);  // package scope: any core
}

TEST(SimulatedMsrTest, UnknownRegisterFaults) {
  SimulatedMsr dev(4);
  EXPECT_THROW(dev.read(0, 0x999), MsrError);
  EXPECT_THROW(dev.write(0, 0x999, 1), MsrError);
}

TEST(SimulatedMsrTest, BadCpuIndexFaults) {
  SimulatedMsr dev(4);
  dev.define_register(0x10, 0);
  EXPECT_THROW(dev.read(-1, 0x10), MsrError);
  EXPECT_THROW(dev.read(4, 0x10), MsrError);
  EXPECT_THROW(dev.write(4, 0x10, 1), MsrError);
}

TEST(SimulatedMsrTest, ReadOnlyRegisterRejectsWrites) {
  SimulatedMsr dev(4);
  dev.define_register(0x606, 0x000a0e03, /*writable=*/false);
  EXPECT_THROW(dev.write(0, 0x606, 0), MsrError);
  EXPECT_EQ(dev.read(0, 0x606), 0x000a0e03ull);
}

TEST(SimulatedMsrTest, DynamicRegisterComputesPerRead) {
  SimulatedMsr dev(4);
  std::uint64_t counter = 0;
  dev.define_dynamic(0x611, [&](int) { return ++counter; });
  EXPECT_EQ(dev.read(0, 0x611), 1ull);
  EXPECT_EQ(dev.read(0, 0x611), 2ull);
}

TEST(SimulatedMsrTest, DynamicRegisterSeesCpuIndex) {
  SimulatedMsr dev(4);
  dev.define_dynamic(0xE8, [](int cpu) { return std::uint64_t(cpu) * 10; });
  EXPECT_EQ(dev.read(2, 0xE8), 20ull);
  EXPECT_EQ(dev.read(3, 0xE8), 30ull);
}

TEST(SimulatedMsrTest, DynamicRegisterIsReadOnly) {
  SimulatedMsr dev(4);
  dev.define_dynamic(0x611, [](int) { return 0ull; });
  EXPECT_THROW(dev.write(0, 0x611, 5), MsrError);
}

TEST(SimulatedMsrTest, WriteObserversFireInOrder) {
  SimulatedMsr dev(4);
  dev.define_register(0x610, 0);
  std::vector<int> order;
  dev.on_write(0x610, [&](int, std::uint64_t) { order.push_back(1); });
  dev.on_write(0x610, [&](int, std::uint64_t) { order.push_back(2); });
  dev.write(0, 0x610, 7);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(dev.read(0, 0x610), 7ull);
}

TEST(SimulatedMsrTest, ObserverSeesValueAndCpu) {
  SimulatedMsr dev(8);
  dev.define_register(0x620, 0);
  int seen_cpu = -1;
  std::uint64_t seen_val = 0;
  dev.on_write(0x620, [&](int cpu, std::uint64_t v) {
    seen_cpu = cpu;
    seen_val = v;
  });
  dev.write(5, 0x620, 0x1818);
  EXPECT_EQ(seen_cpu, 5);
  EXPECT_EQ(seen_val, 0x1818ull);
}

TEST(SimulatedMsrTest, PokeDoesNotFireObservers) {
  SimulatedMsr dev(4);
  dev.define_register(0x610, 0);
  int fired = 0;
  dev.on_write(0x610, [&](int, std::uint64_t) { ++fired; });
  dev.poke(0x610, 9);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(dev.peek(0x610), 9ull);
}

TEST(SimulatedMsrTest, AccessCounters) {
  SimulatedMsr dev(4);
  dev.define_register(0x610, 0);
  dev.read(0, 0x610);
  dev.read(0, 0x610);
  dev.write(0, 0x610, 1);
  EXPECT_EQ(dev.read_count(), 2ull);
  EXPECT_EQ(dev.write_count(), 1ull);
}

TEST(MsrErrorTest, MessageContainsRegisterHex) {
  const MsrError e(0x620, "nope");
  EXPECT_NE(std::string(e.what()).find("620"), std::string::npos);
  EXPECT_EQ(e.reg(), 0x620u);
}

// ---------------------------------------------------------------------------
// Error-path diagnostics: every fault names the offending register in hex
// so a log line is actionable without a debugger.
// ---------------------------------------------------------------------------

std::string error_text(const std::function<void()>& op) {
  try {
    op();
  } catch (const MsrError& e) {
    return e.what();
  }
  return {};
}

TEST(SimulatedMsrTest, UnknownRegisterErrorNamesTheRegister) {
  SimulatedMsr dev(4);
  const auto read_msg = error_text([&] { dev.read(0, 0x1A4); });
  EXPECT_NE(read_msg.find("1a4"), std::string::npos) << read_msg;
  const auto write_msg = error_text([&] { dev.write(0, 0x1A4, 1); });
  EXPECT_NE(write_msg.find("1a4"), std::string::npos) << write_msg;
}

TEST(SimulatedMsrTest, ReadOnlyWriteErrorNamesTheRegister) {
  SimulatedMsr dev(4);
  dev.define_register(0x606, 0x000a0e03, /*writable=*/false);
  const auto msg = error_text([&] { dev.write(0, 0x606, 0); });
  EXPECT_NE(msg.find("606"), std::string::npos) << msg;
}

TEST(SimulatedMsrTest, BadCpuErrorNamesTheRegister) {
  SimulatedMsr dev(4);
  dev.define_register(0x10, 0);
  const auto msg = error_text([&] { dev.read(99, 0x10); });
  EXPECT_NE(msg.find("10"), std::string::npos) << msg;
}

TEST(SimulatedMsrTest, WriteGuardVetoLeavesStateUntouched) {
  SimulatedMsr dev(4);
  dev.define_register(0x610, 0x1234);
  int observer_fired = 0;
  dev.on_write(0x610, [&](int, std::uint64_t) { ++observer_fired; });
  dev.set_write_guard(0x610, [](int, std::uint64_t v) {
    if (v == 0xBAD) throw MsrError(0x610, "guard veto");
  });
  // Vetoed store: value unchanged, observers not fired, counter unmoved.
  EXPECT_THROW(dev.write(0, 0x610, 0xBAD), MsrError);
  EXPECT_EQ(dev.peek(0x610), 0x1234ull);
  EXPECT_EQ(observer_fired, 0);
  EXPECT_EQ(dev.write_count(), 0ull);
  // A permitted store still goes through normally.
  dev.write(0, 0x610, 0x42);
  EXPECT_EQ(dev.peek(0x610), 0x42ull);
  EXPECT_EQ(observer_fired, 1);
  EXPECT_EQ(dev.write_count(), 1ull);
}

}  // namespace
}  // namespace dufp::msr
