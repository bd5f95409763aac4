#include "telemetry/telemetry.h"

#include <stdexcept>
#include <utility>

#include "common/expect.h"

namespace dufp::telemetry {

std::vector<std::string> TelemetryConfig::validate() const {
  std::vector<std::string> problems;
  if (flight_capacity < 2) {
    problems.push_back("flight_capacity must be >= 2");
  }
  if (flight_capacity > (1u << 20)) {
    problems.push_back("flight_capacity must be <= 2^20");
  }
  if (max_dumps < 1) {
    problems.push_back("max_dumps must be >= 1");
  }
  return problems;
}

MetricsRegistry& SocketTelemetry::registry() { return owner_->registry(); }

void SocketTelemetry::record_now(EventKind kind, std::uint16_t code, double a,
                                 double b) {
  record(kind, owner_->now(), code, a, b);
}

void SocketTelemetry::fail_open(SimTime t) {
  record(EventKind::fail_open, t);
  owner_->add_dump(socket_, t, recorder_.snapshot());
}

Telemetry::Telemetry(const TelemetryConfig& config, int sockets)
    : config_(config) {
  const auto problems = config.validate();
  if (!problems.empty()) {
    std::string msg = "TelemetryConfig:";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      msg += (i == 0 ? " " : "; ") + problems[i];
    }
    throw std::invalid_argument(msg);
  }
  DUFP_EXPECT(sockets >= 1);
  for (int i = 0; i < sockets; ++i) {
    // new rather than make_unique: the constructor is private to Telemetry.
    sockets_.emplace_back(new SocketTelemetry(this, i, config.flight_capacity));
  }
  registry_.attach("dufp_flight_dumps_total",
                   "Watchdog fail-open dumps captured", {}, dumps_taken_);
  registry_.attach("dufp_flight_dumps_suppressed_total",
                   "Dumps dropped because max_dumps was reached", {},
                   dumps_suppressed_);
}

SocketTelemetry& Telemetry::socket(int i) {
  DUFP_EXPECT(i >= 0 && i < socket_count());
  return *sockets_[static_cast<std::size_t>(i)];
}

void Telemetry::set_clock(std::function<SimTime()> now_fn) {
  now_fn_ = std::move(now_fn);
}

SimTime Telemetry::now() const {
  return now_fn_ ? now_fn_() : SimTime::zero();
}

void Telemetry::add_dump(int socket, SimTime at, std::vector<Event> events) {
  std::lock_guard<std::mutex> lock(dump_mu_);
  if (dumps_.size() >= config_.max_dumps) {
    dumps_suppressed_.inc();
    return;
  }
  dumps_taken_.inc();
  FlightDump d;
  d.socket = socket;
  d.at_us = at.micros();
  d.events = std::move(events);
  dumps_.push_back(std::move(d));
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot snap;
  snap.metrics = registry_.collect();
  if (!config_.snapshot_flight) return snap;
  snap.events.reserve(sockets_.size());
  for (const auto& s : sockets_) {
    snap.events.push_back(s->recorder().snapshot());
  }
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    snap.dumps = dumps_;
  }
  return snap;
}

}  // namespace dufp::telemetry
