// The per-run telemetry plane: one MetricsRegistry plus one flight
// recorder per socket, handed to the control-plane components as nullable
// SocketTelemetry views.
//
// Disabled is the default and the null sink: the harness passes nullptr,
// components skip event recording entirely, and their instruments stay
// stand-alone (counted but never exported) — all pre-existing outputs are
// bit-identical, the same discipline the faults subsystem established.
// Telemetry draws no random numbers and never changes a decision; runs
// are bit-identical with it on or off.
//
// A run's Telemetry object is confined to the worker thread executing the
// run (runs are the parallel unit of the experiment engine), matching the
// flight recorder's SPSC contract.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "telemetry/events.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace dufp::telemetry {

struct TelemetryConfig {
  /// Master switch: when false the harness passes null views around and
  /// nothing below this header is constructed.
  bool enabled = false;

  /// Flight-recorder events retained per socket (rounded up to a power
  /// of two).  256 events cover roughly the last 50-100 control
  /// intervals of an active agent.
  std::size_t flight_capacity = 256;

  /// Watchdog fail-open dumps retained per run; later dumps are counted
  /// but dropped (a flapping socket must not hoard memory).
  std::size_t max_dumps = 8;

  /// Whether snapshot() carries the flight data (ring contents and
  /// dumps).  When false the recorders and dumps still run, so every
  /// metric (dufp_flight_dumps_total included) is unchanged, but the
  /// snapshot holds metrics only.  A grid plan asks for flight data for
  /// job 0 alone, the one job whose events an output exports.
  bool snapshot_flight = true;

  /// Every problem found (empty = valid).
  std::vector<std::string> validate() const;
};

/// Everything a run's telemetry produced, as plain values: metric samples,
/// each socket's final ring contents, and the fail-open dumps.  This is
/// what RunResult carries and what the exporters consume.
struct TelemetrySnapshot {
  std::vector<MetricSample> metrics;
  std::vector<std::vector<Event>> events;  ///< [socket], oldest -> newest
  std::vector<FlightDump> dumps;
};

class Telemetry;

/// One socket's view: where that socket's components record events and
/// register instruments.  Obtained from Telemetry::socket(); components
/// hold it as a nullable pointer (nullptr = telemetry disabled).
class SocketTelemetry {
 public:
  SocketTelemetry(const SocketTelemetry&) = delete;
  SocketTelemetry& operator=(const SocketTelemetry&) = delete;

  int socket() const { return socket_; }
  MetricsRegistry& registry();

  /// Record with an explicit sim-clock stamp (components that are handed
  /// the interval time use this).
  void record(EventKind kind, SimTime t, std::uint16_t code = 0,
              double a = 0.0, double b = 0.0) {
    Event e;
    e.t_us = t.micros();
    e.kind = kind;
    e.socket = static_cast<std::uint16_t>(socket_);
    e.code = code;
    e.a = a;
    e.b = b;
    recorder_.record(e);
  }

  /// Record stamped with the run clock the harness attached (zero when
  /// none was).  For components that never see the interval time, e.g.
  /// the fault decorators.
  void record_now(EventKind kind, std::uint16_t code = 0, double a = 0.0,
                  double b = 0.0);

  /// The watchdog fail-open hook: records the event, then captures the
  /// socket's recent history as a bounded dump.
  void fail_open(SimTime t);

  const FlightRecorder& recorder() const { return recorder_; }

 private:
  friend class Telemetry;
  SocketTelemetry(Telemetry* owner, int socket, std::size_t capacity)
      : owner_(owner), socket_(socket), recorder_(capacity) {}

  Telemetry* owner_;
  int socket_;
  FlightRecorder recorder_;
};

/// One per run.  Owns the registry, the per-socket recorders and the
/// dump list.
class Telemetry {
 public:
  /// Throws std::invalid_argument on an invalid config (the harness
  /// validates first; direct users get the same contract).
  Telemetry(const TelemetryConfig& config, int sockets);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  int socket_count() const { return static_cast<int>(sockets_.size()); }
  SocketTelemetry& socket(int i);
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// Attach the run clock used by record_now() (e.g. the simulation's).
  /// The callable must outlive this object.
  void set_clock(std::function<SimTime()> now_fn);
  SimTime now() const;

  const std::vector<FlightDump>& dumps() const { return dumps_; }
  std::uint64_t dumps_suppressed() const { return dumps_suppressed_.value(); }

  /// Collects everything into plain values (metrics sorted, rings copied
  /// oldest -> newest; metrics only unless config.snapshot_flight).  Call
  /// after the run has finished or from the producer thread.
  TelemetrySnapshot snapshot() const;

 private:
  friend class SocketTelemetry;
  void add_dump(int socket, SimTime at, std::vector<Event> events);

  TelemetryConfig config_;
  MetricsRegistry registry_;
  std::vector<std::unique_ptr<SocketTelemetry>> sockets_;  ///< stable addresses
  std::function<SimTime()> now_fn_;

  mutable std::mutex dump_mu_;
  std::vector<FlightDump> dumps_;
  Counter dumps_taken_;
  Counter dumps_suppressed_;
};

}  // namespace dufp::telemetry
