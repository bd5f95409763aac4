#include "msr/sim_msr.h"

#include <cstdio>

#include "common/expect.h"

namespace dufp::msr {

std::string MsrError::to_hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%x", v);
  return buf;
}

SimulatedMsr::SimulatedMsr(int core_count) : core_count_(core_count) {
  DUFP_EXPECT(core_count > 0);
}

const SimulatedMsr::Register& SimulatedMsr::find(std::uint32_t reg) const {
  const auto it = regs_.find(reg);
  if (it == regs_.end()) throw MsrError(reg, "not implemented");
  return it->second;
}

SimulatedMsr::Register& SimulatedMsr::find(std::uint32_t reg) {
  const auto it = regs_.find(reg);
  if (it == regs_.end()) throw MsrError(reg, "not implemented");
  return it->second;
}

std::uint64_t SimulatedMsr::read(int cpu, std::uint32_t reg) const {
  if (cpu < 0 || cpu >= core_count_) throw MsrError(reg, "bad cpu index");
  ++read_count_;
  const Register& r = find(reg);
  if (r.read_handler) return r.read_handler(cpu);
  return r.value;
}

void SimulatedMsr::write(int cpu, std::uint32_t reg, std::uint64_t value) {
  if (cpu < 0 || cpu >= core_count_) throw MsrError(reg, "bad cpu index");
  Register& r = find(reg);
  if (!r.writable) throw MsrError(reg, "write to read-only register");
  if (r.write_guard) r.write_guard(cpu, value);  // may veto by throwing
  ++write_count_;
  r.value = value;
  for (const auto& h : r.write_handlers) h(cpu, value);
}

void SimulatedMsr::define_register(std::uint32_t reg, std::uint64_t initial,
                                   bool writable) {
  Register r;
  r.value = initial;
  r.writable = writable;
  regs_[reg] = std::move(r);
}

void SimulatedMsr::define_dynamic(std::uint32_t reg, ReadHandler fn) {
  DUFP_EXPECT(fn != nullptr);
  Register r;
  r.writable = false;
  r.read_handler = std::move(fn);
  regs_[reg] = std::move(r);
}

void SimulatedMsr::on_write(std::uint32_t reg, WriteHandler fn) {
  DUFP_EXPECT(fn != nullptr);
  find(reg).write_handlers.push_back(std::move(fn));
}

void SimulatedMsr::set_write_guard(std::uint32_t reg, WriteHandler fn) {
  DUFP_EXPECT(fn != nullptr);
  find(reg).write_guard = std::move(fn);
}

std::uint64_t SimulatedMsr::peek(std::uint32_t reg) const {
  return find(reg).value;
}

void SimulatedMsr::poke(std::uint32_t reg, std::uint64_t value) {
  find(reg).value = value;
}

}  // namespace dufp::msr
