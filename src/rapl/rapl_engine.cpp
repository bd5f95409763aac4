#include "rapl/rapl_engine.h"

#include <cstdint>

namespace dufp::rapl {

using namespace dufp::msr;

RaplEngine::RaplEngine(hw::SocketModel& socket, msr::SimulatedMsr& msr,
                       const GovernorParams& params)
    : socket_(socket), msr_(msr), governor_(socket, params) {
  install_registers();
}

void RaplEngine::install_registers() {
  const auto& cfg = socket_.config();

  msr_.define_register(kMsrRaplPowerUnit, encode_rapl_units(units_),
                       /*writable=*/false);

  // Package power limit: storage register; writes re-program the governor.
  PowerLimit def;
  def.long_term_w = cfg.long_term_default_w;
  def.long_term_window_s = cfg.long_term_window_s;
  def.long_term_enabled = true;
  def.long_term_clamped = true;
  def.short_term_w = cfg.short_term_default_w;
  def.short_term_window_s = cfg.short_term_window_s;
  def.short_term_enabled = true;
  def.short_term_clamped = true;
  msr_.define_register(kMsrPkgPowerLimit, encode_power_limit(def, units_));
  // Lock-bit semantics: once a programmed limit has bit 63 set, further
  // writes fault until reset — the BIOS-locked-PL failure mode real
  // controllers must survive.
  msr_.set_write_guard(kMsrPkgPowerLimit, [this](int, std::uint64_t) {
    if (decode_power_limit(msr_.peek(kMsrPkgPowerLimit), units_).locked) {
      throw MsrError(kMsrPkgPowerLimit,
                     "power-limit register locked (PL lock bit set)");
    }
  });
  msr_.on_write(kMsrPkgPowerLimit, [this](int, std::uint64_t raw) {
    governor_.set_limit(decode_power_limit(raw, units_));
  });

  PowerInfo info;
  info.tdp_w = cfg.tdp_w;
  info.min_power_w = 60.0;
  info.max_power_w = 2.0 * cfg.tdp_w;
  msr_.define_register(kMsrPkgPowerInfo, encode_power_info(info, units_),
                       /*writable=*/false);

  // Energy status counters: computed from the socket's ground-truth
  // accumulators, truncated to 32 bits (they wrap like hardware).
  msr_.define_dynamic(kMsrPkgEnergyStatus, [this](int) {
    return joules_to_energy_units(socket_.pkg_energy_j(), units_) &
           0xFFFFFFFFULL;
  });
  msr_.define_dynamic(kMsrDramEnergyStatus, [this](int) {
    return joules_to_energy_units(socket_.dram_energy_j(), units_) &
           0xFFFFFFFFULL;
  });

  // DRAM power limit: accepted but not enforced — the paper's platform
  // does not support memory capping, and neither do we (Sec. II-B).
  msr_.define_register(kMsrDramPowerLimit, 0);

  // Uncore ratio window.
  UncoreRatioLimit ur;
  ur.min_ratio = uncore_mhz_to_ratio(cfg.uncore_min_mhz);
  ur.max_ratio = uncore_mhz_to_ratio(cfg.uncore_max_mhz);
  msr_.define_register(kMsrUncoreRatioLimit, encode_uncore_ratio_limit(ur));
  msr_.on_write(kMsrUncoreRatioLimit, [this](int, std::uint64_t raw) {
    const auto lim = decode_uncore_ratio_limit(raw);
    socket_.set_uncore_window_mhz(uncore_ratio_to_mhz(lim.min_ratio),
                                  uncore_ratio_to_mhz(lim.max_ratio));
  });

  msr_.define_dynamic(kMsrUncorePerfStatus, [this](int) {
    return encode_uncore_perf_status(
        uncore_mhz_to_ratio(socket_.effective_uncore_mhz()));
  });

  // APERF/MPERF (all cores share the model's package clock).
  msr_.define_dynamic(kIa32Aperf, [this](int) { return socket_.aperf_cycles(); });
  msr_.define_dynamic(kIa32Mperf, [this](int) { return socket_.mperf_cycles(); });

  // IA32_PERF_CTL: explicit P-state requests (the DUFP-F extension path).
  msr_.define_register(
      kIa32PerfCtl,
      encode_perf_ctl(static_cast<unsigned>(cfg.core_max_mhz / 100.0 + 0.5)));
  msr_.on_write(kIa32PerfCtl, [this](int, std::uint64_t raw) {
    socket_.set_user_pstate_limit_mhz(decode_perf_ctl(raw) * 100.0);
  });
}

}  // namespace dufp::rapl
