// Seeded, deterministic fault injection for the hardware substrate.
//
// A FaultPlan is the single source of fault decisions for one socket's
// hardware-facing interfaces: the decorator backends (FaultyMsrDevice,
// FaultyCounterSource) ask it "does fault class X fire on this operation?"
// and it answers from an explicitly seeded Rng stream plus per-class burst
// state.  Everything is deterministic: the same FaultOptions seed against
// the same operation sequence injects the identical fault pattern, so
// figures and health counters reproduce bit-exactly under fault storms.
//
// Fault classes model the failure modes real DUFP deployments hit on the
// /dev/cpu/*/msr + powercap + PAPI paths: transient EIO on rdmsr/wrmsr,
// msr-safe EPERM denials (persistent while the allowlist is wrong, hence
// the long default burst), bit-flipped reads, stale multiplexed perf
// samples, dropped samples, and the 32-bit RAPL energy wraparound (forced
// early via FaultyCounterSource so a 60 s run exercises it).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "telemetry/telemetry.h"

namespace dufp::faults {

enum class FaultClass : int {
  read_eio = 0,     ///< transient MsrError on read
  write_eio,        ///< transient MsrError on write
  write_eperm,      ///< msr-safe style write denial (long bursts)
  bit_flip,         ///< read returns the true value with one bit flipped
  stale_sample,     ///< counter read returns the previous value
  dropped_sample,   ///< counter read fails outright
  count_            ///< sentinel
};

inline constexpr int kFaultClassCount = static_cast<int>(FaultClass::count_);

std::string_view fault_class_name(FaultClass c);

/// One fault class: `rate` is the per-operation trigger probability; once
/// triggered the fault stays active for `burst` consecutive operations of
/// that class (burst 1 = independent single-shot faults).
struct FaultClassParams {
  double rate = 0.0;
  int burst = 1;
};

/// Injection counts per class, for health reporting and determinism tests.
/// A value snapshot assembled by FaultPlan::stats() from counter-backed
/// instruments (shared with the telemetry registry when one is attached).
struct FaultStats {
  std::array<std::uint64_t, kFaultClassCount> injected{};

  std::uint64_t count(FaultClass c) const {
    return injected[static_cast<std::size_t>(c)];
  }
  std::uint64_t total() const;
};

struct FaultOptions {
  /// Master switch: when false the harness does not install the decorator
  /// backends at all.  When true with all rates zero the decorators are
  /// installed but pass every operation through untouched and draw no
  /// random numbers — bit-identical to the no-injection baseline (a
  /// tier-1 guarantee).
  bool enabled = false;

  /// Seed of the fault decision stream (DUFP_FAULT_SEED).  Independent of
  /// the run seed; the harness mixes in run seed and socket index so
  /// repetitions and sockets see different-but-reproducible storms.
  std::uint64_t seed = 0;

  FaultClassParams read_eio{};
  FaultClassParams write_eio{};
  FaultClassParams write_eperm{0.0, 400};  // msr-safe denials persist
  FaultClassParams bit_flip{};
  FaultClassParams stale_sample{};
  FaultClassParams dropped_sample{};

  /// Register whose writes always fault while injection is armed (models
  /// a locked register, e.g. kMsrPkgPowerLimit with the PL lock bit set
  /// by firmware).  0 = none.
  std::uint32_t locked_register = 0;

  /// Offsets the energy counters so the 32-bit RAPL wrap occurs after
  /// `energy_wrap_lead_j` joules instead of ~262 kJ, forcing the
  /// wraparound path to execute within any realistic run.
  bool force_energy_wrap = false;
  double energy_wrap_lead_j = 2.0;

  /// The storm preset used by benches and the fault-matrix tests: every
  /// transient class at `rate`, rarer hard failures, forced energy wrap.
  static FaultOptions storm(double rate, std::uint64_t seed);

  const FaultClassParams& params(FaultClass c) const;

  /// Every problem found (empty = valid): rates outside [0, 1], bursts
  /// < 1, non-positive wrap lead.
  std::vector<std::string> validate() const;
};

class FaultPlan {
 public:
  /// `rng` is the decision stream; derive it from FaultOptions::seed (the
  /// caller may mix in run seed / socket index via Rng::fork).
  FaultPlan(const FaultOptions& options, Rng rng);

  /// Decides whether fault class `c` fires on the current operation.
  /// Draws from the Rng only when the class rate is non-zero, so a
  /// zero-rate plan perturbs nothing.
  bool fire(FaultClass c);

  /// Bit position for a bit-flip fault (deterministic draw, 0..63).
  unsigned flip_bit();

  /// Attach the socket's telemetry view (nullptr = null sink, the
  /// default): registers per-class injection counters and records a
  /// fault_injected event per firing.  Telemetry never draws from the
  /// decision stream, so the injection pattern is unchanged.
  void set_telemetry(telemetry::SocketTelemetry* telem);

  const FaultOptions& options() const { return options_; }
  FaultStats stats() const;

 private:
  /// Counts one firing and records the flight-recorder event.
  void injected(FaultClass c);

  FaultOptions options_;
  Rng rng_;
  std::array<int, kFaultClassCount> burst_remaining_{};
  std::array<telemetry::Counter, kFaultClassCount> injected_;
  telemetry::SocketTelemetry* telem_ = nullptr;  ///< nullable
};

}  // namespace dufp::faults
