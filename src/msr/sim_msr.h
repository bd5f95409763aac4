// Simulated per-socket MSR backend.
//
// Registers fall in three classes:
//   * plain storage   — value written is the value read back;
//   * dynamic reads   — a handler computes the value on demand (energy
//                       counters, APERF/MPERF, uncore perf status);
//   * observed writes — a handler is notified after the store (power
//                       limit, uncore ratio limit), which is how the RAPL
//                       engine and the socket model learn about actuation.
//
// Unknown registers fault with MsrError, like a real rdmsr/wrmsr #GP.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "msr/device.h"

namespace dufp::msr {

class SimulatedMsr final : public MsrDevice {
 public:
  using ReadHandler = std::function<std::uint64_t(int cpu)>;
  using WriteHandler = std::function<void(int cpu, std::uint64_t value)>;

  explicit SimulatedMsr(int core_count);

  // -- MsrDevice ------------------------------------------------------------
  std::uint64_t read(int cpu, std::uint32_t reg) const override;
  void write(int cpu, std::uint32_t reg, std::uint64_t value) override;
  int core_count() const override { return core_count_; }

  // -- simulation wiring ------------------------------------------------------

  /// Declares a package-scoped storage register with an initial value.
  void define_register(std::uint32_t reg, std::uint64_t initial,
                       bool writable = true);

  /// Declares a register whose reads are computed by `fn` (per cpu).
  void define_dynamic(std::uint32_t reg, ReadHandler fn);

  /// Attaches a post-write observer to a storage register (must already be
  /// defined).  Multiple observers compose in registration order.
  void on_write(std::uint32_t reg, WriteHandler fn);

  /// Attaches a pre-write guard (must already be defined): called with the
  /// candidate value *before* the store, and may veto the write by
  /// throwing MsrError — the register keeps its old value and no
  /// observers fire.  This is how the RAPL engine models the power-limit
  /// lock bit (writes to a locked 0x610 fault like wrmsr #GP).
  void set_write_guard(std::uint32_t reg, WriteHandler fn);

  /// Direct (non-faulting) access for the simulation side.
  std::uint64_t peek(std::uint32_t reg) const;
  void poke(std::uint32_t reg, std::uint64_t value);

  /// Count of wrmsr operations, for overhead accounting and tests.
  std::uint64_t write_count() const { return write_count_; }
  std::uint64_t read_count() const { return read_count_; }

 private:
  struct Register {
    std::uint64_t value = 0;
    bool writable = true;
    ReadHandler read_handler;                 // optional
    WriteHandler write_guard;                 // optional, may veto by throwing
    std::vector<WriteHandler> write_handlers;  // optional
  };

  const Register& find(std::uint32_t reg) const;
  Register& find(std::uint32_t reg);

  int core_count_;
  std::map<std::uint32_t, Register> regs_;
  mutable std::uint64_t read_count_ = 0;
  std::uint64_t write_count_ = 0;
};

}  // namespace dufp::msr
