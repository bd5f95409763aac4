#include "faults/fault_plan.h"

#include <numeric>

#include "common/expect.h"

namespace dufp::faults {

std::string_view fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::read_eio: return "read_eio";
    case FaultClass::write_eio: return "write_eio";
    case FaultClass::write_eperm: return "write_eperm";
    case FaultClass::bit_flip: return "bit_flip";
    case FaultClass::stale_sample: return "stale_sample";
    case FaultClass::dropped_sample: return "dropped_sample";
    case FaultClass::count_: break;
  }
  return "unknown";
}

std::uint64_t FaultStats::total() const {
  return std::accumulate(injected.begin(), injected.end(), std::uint64_t{0});
}

FaultOptions FaultOptions::storm(double rate, std::uint64_t seed) {
  FaultOptions o;
  o.enabled = true;
  o.seed = seed;
  o.read_eio = {rate, 2};
  o.write_eio = {rate, 2};
  o.write_eperm = {rate / 10.0, 200};  // rare but long denial outages
  o.bit_flip = {rate / 4.0, 1};
  o.stale_sample = {rate, 1};
  o.dropped_sample = {rate / 4.0, 1};
  o.force_energy_wrap = true;
  return o;
}

const FaultClassParams& FaultOptions::params(FaultClass c) const {
  switch (c) {
    case FaultClass::read_eio: return read_eio;
    case FaultClass::write_eio: return write_eio;
    case FaultClass::write_eperm: return write_eperm;
    case FaultClass::bit_flip: return bit_flip;
    case FaultClass::stale_sample: return stale_sample;
    case FaultClass::dropped_sample: return dropped_sample;
    case FaultClass::count_: break;
  }
  DUFP_ASSERT(false && "bad FaultClass");
  return read_eio;  // unreachable
}

std::vector<std::string> FaultOptions::validate() const {
  std::vector<std::string> problems;
  for (int i = 0; i < kFaultClassCount; ++i) {
    const auto c = static_cast<FaultClass>(i);
    const auto& p = params(c);
    const std::string name(fault_class_name(c));
    if (!(p.rate >= 0.0 && p.rate <= 1.0)) {
      problems.push_back(name + ".rate must be in [0, 1], got " +
                         std::to_string(p.rate));
    }
    if (p.burst < 1) {
      problems.push_back(name + ".burst must be >= 1, got " +
                         std::to_string(p.burst));
    }
  }
  if (force_energy_wrap && !(energy_wrap_lead_j > 0.0)) {
    problems.push_back("energy_wrap_lead_j must be > 0 when forcing wrap, got " +
                       std::to_string(energy_wrap_lead_j));
  }
  return problems;
}

FaultPlan::FaultPlan(const FaultOptions& options, Rng rng)
    : options_(options), rng_(rng) {
  DUFP_EXPECT(options.validate().empty());
}

void FaultPlan::set_telemetry(telemetry::SocketTelemetry* telem) {
  telem_ = telem;
  if (telem_ == nullptr) return;
  auto& reg = telem_->registry();
  for (int i = 0; i < kFaultClassCount; ++i) {
    const auto c = static_cast<FaultClass>(i);
    reg.attach("dufp_faults_injected_total", "Faults injected, per class",
               {{"socket", std::to_string(telem_->socket())},
                {"class", std::string(fault_class_name(c))}},
               injected_[static_cast<std::size_t>(i)]);
  }
}

FaultStats FaultPlan::stats() const {
  FaultStats s;
  for (std::size_t i = 0; i < injected_.size(); ++i) {
    s.injected[i] = injected_[i].value();
  }
  return s;
}

void FaultPlan::injected(FaultClass c) {
  injected_[static_cast<std::size_t>(c)].inc();
  if (telem_ != nullptr) {
    // The decorators never see the sim clock; record_now() uses the run
    // clock the harness attached.
    telem_->record_now(telemetry::EventKind::fault_injected,
                       static_cast<std::uint16_t>(c));
  }
}

bool FaultPlan::fire(FaultClass c) {
  const auto idx = static_cast<std::size_t>(c);
  auto& remaining = burst_remaining_[idx];
  if (remaining > 0) {
    --remaining;
    injected(c);
    return true;
  }
  const auto& p = options_.params(c);
  // Zero-rate classes must not perturb the Rng stream: with all rates at
  // zero the plan draws nothing, which is what makes enabled-but-quiet
  // injection bit-identical to the no-injection baseline.
  if (p.rate <= 0.0) return false;
  if (rng_.next_double() >= p.rate) return false;
  remaining = p.burst - 1;
  injected(c);
  return true;
}

unsigned FaultPlan::flip_bit() {
  return static_cast<unsigned>(rng_.next_u64() & 63u);
}

}  // namespace dufp::faults
