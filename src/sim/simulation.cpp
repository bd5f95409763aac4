#include "sim/simulation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "common/expect.h"
#include "common/units.h"

namespace dufp::sim {

namespace {

using hw::kSpeedBoundMargin;

/// Below this gap the leap planner's fixed-point verification plus the
/// gather/scatter costs about as much as just stepping the ticks.
constexpr std::int64_t kMinLeapTicks = 4;

/// Below this horizon the calm-stretch gather/scatter costs about as much
/// as stepping the ticks exactly.
constexpr std::int64_t kMinFastTicks = 4;

/// Lane budget of a finished socket: it idles at a fixed demand, so no
/// entry bounds its lane ticks.
constexpr std::int64_t kUnboundedBudget =
    std::numeric_limits<std::int64_t>::max();

/// Builds a trace row.  Shared by the exact stepper and the leap fast
/// path so both construct rows from identical expressions — part of the
/// byte-identity argument, not a convenience.
void fill_tick_record(const hw::SocketInstant& inst, double pkg_avg_w,
                      const msr::PowerLimit& lim, TickRecord& record) {
  record.core_mhz = static_cast<float>(inst.core_mhz);
  record.uncore_mhz = static_cast<float>(inst.uncore_mhz);
  record.pkg_power_w = static_cast<float>(pkg_avg_w);
  record.dram_power_w = static_cast<float>(inst.dram_power_w);
  record.cap_long_w = static_cast<float>(lim.long_term_w);
  record.cap_short_w = static_cast<float>(lim.short_term_w);
  record.flops_grate = static_cast<float>(flops_to_gflops(inst.flops_rate));
  record.speed = static_cast<float>(inst.speed);
}

}  // namespace

Simulation::Simulation(const hw::MachineConfig& machine,
                       const workloads::WorkloadProfile& app,
                       const SimulationOptions& options)
    : Simulation(machine,
                 std::vector<const workloads::WorkloadProfile*>(
                     static_cast<std::size_t>(machine.sockets), &app),
                 options) {}

Simulation::Simulation(
    const hw::MachineConfig& machine,
    const std::vector<const workloads::WorkloadProfile*>& apps,
    const SimulationOptions& options)
    : options_(options), root_rng_(options.seed), machine_(machine) {
  DUFP_EXPECT(options.tick.micros() > 0);
  DUFP_EXPECT(options.max_seconds > 0.0);
  DUFP_EXPECT(static_cast<int>(apps.size()) == machine_.socket_count());

  rapl::GovernorParams gov = options_.governor;
  gov.tick_s = options_.tick.seconds();

  const int n = machine_.socket_count();
  msrs_.reserve(static_cast<std::size_t>(n));
  rapls_.reserve(static_cast<std::size_t>(n));
  workloads_.reserve(static_cast<std::size_t>(n));
  phase_totals_.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    const auto* app = apps[static_cast<std::size_t>(s)];
    DUFP_EXPECT(app != nullptr);
    msrs_.push_back(std::make_unique<msr::SimulatedMsr>(
        machine_.config().socket.cores));
    rapls_.push_back(std::make_unique<rapl::RaplEngine>(machine_.socket(s),
                                                        *msrs_.back(), gov));
    // Each socket's share of the application gets its own jitter stream.
    workloads_.push_back(std::make_unique<workloads::WorkloadInstance>(
        *app, root_rng_.fork(0x1000 + static_cast<std::uint64_t>(s)),
        options_.workload_jitter_sigma));
    phase_totals_.emplace_back(app->phases().size());
  }
  tick_records_.resize(static_cast<std::size_t>(n));
  // Leap lanes are sized once here so the steady-state paths (exact tick
  // and leap alike) stay allocation-free.
  leap_acc_.resize(static_cast<std::size_t>(n) * kLeapLanes, 0.0);
  leap_inc_.resize(static_cast<std::size_t>(n) * kLeapLanes, 0.0);
  lane_budget_.resize(static_cast<std::size_t>(n), 0);
  flip_bits_.resize(static_cast<std::size_t>(kStretchChunk) / 64, 0);
  flip_log_.resize(static_cast<std::size_t>(kStretchChunk));
}

const std::vector<PhaseTotals>& Simulation::phase_totals(int i) const {
  DUFP_EXPECT(i >= 0 && i < static_cast<int>(phase_totals_.size()));
  return phase_totals_[static_cast<std::size_t>(i)];
}

Simulation::~Simulation() = default;

int Simulation::socket_count() const { return machine_.socket_count(); }

hw::SocketModel& Simulation::socket(int i) { return machine_.socket(i); }

msr::SimulatedMsr& Simulation::msr(int i) {
  DUFP_EXPECT(i >= 0 && i < socket_count());
  return *msrs_[static_cast<std::size_t>(i)];
}

rapl::RaplEngine& Simulation::rapl(int i) {
  DUFP_EXPECT(i >= 0 && i < socket_count());
  return *rapls_[static_cast<std::size_t>(i)];
}

workloads::WorkloadInstance& Simulation::workload(int i) {
  DUFP_EXPECT(i >= 0 && i < socket_count());
  return *workloads_[static_cast<std::size_t>(i)];
}

Rng Simulation::fork_rng(std::uint64_t tag) { return root_rng_.fork(tag); }

void Simulation::schedule_periodic(SimDuration interval, PeriodicFn fn) {
  DUFP_EXPECT(interval.micros() > 0);
  DUFP_EXPECT(interval.micros() % options_.tick.micros() == 0);
  DUFP_EXPECT(fn != nullptr);
  // First firing: the next multiple of `interval` strictly after now
  // (identical to the historical `t % interval == 0` check, but O(1) per
  // tick instead of a modulo per periodic per tick).
  const std::int64_t next =
      (clock_.now().micros() / interval.micros() + 1) * interval.micros();
  periodics_.push_back(Periodic{interval, next, std::move(fn)});
}

void Simulation::add_phase_listener(PhaseListener fn) {
  DUFP_EXPECT(fn != nullptr);
  phase_listeners_.push_back(std::move(fn));
}

bool Simulation::finished() const {
  for (const auto& w : workloads_) {
    if (!w->finished()) return false;
  }
  return true;
}

void Simulation::fire_phase_transitions(int socket, std::size_t before_idx) {
  if (phase_listeners_.empty()) return;
  auto& w = *workloads_[static_cast<std::size_t>(socket)];
  // Phase names are unique within a profile, so index equality is name
  // equality: this is the pre-interning comparison without the string
  // copies.
  const std::size_t after_idx = w.finished() ? kNoPhase : w.current_phase_idx();
  if (before_idx == after_idx) return;
  for (const auto& l : phase_listeners_) {
    if (before_idx != kNoPhase) l(socket, before_idx, /*entered=*/false);
    if (after_idx != kNoPhase) l(socket, after_idx, /*entered=*/true);
  }
}

void Simulation::announce_initial_phases() {
  // Announce the initial phases so listeners see a consistent enter/exit
  // stream from the very first tick.
  for (int s = 0; s < socket_count(); ++s) {
    auto& w = *workloads_[static_cast<std::size_t>(s)];
    if (!w.finished()) {
      for (const auto& l : phase_listeners_) {
        l(s, w.current_phase_idx(), /*entered=*/true);
      }
    }
  }
}

void Simulation::integrate_socket_tick(int s, double tick_s) {
  const auto si = static_cast<std::size_t>(s);

  // 1. Firmware power-capping decision for this tick.
  rapls_[si]->tick();

  // 2. Integrate the tick, splitting at phase boundaries.
  auto& w = *workloads_[si];
  auto& sock = machine_.socket(s);
  double remaining = tick_s;
  double pkg_energy = 0.0;
  hw::SocketInstant last_instant{};
  std::int64_t segments = 0;
  // Bounded iteration: each segment either exhausts the tick or crosses
  // one sequence entry, and sequences are finite.
  while (remaining > 1e-12) {
    ++segments;
    const bool was_finished = w.finished();
    const std::size_t phase_before =
        was_finished ? kNoPhase : w.current_phase_idx();
    sock.set_demand(w.current_demand());
    const hw::SocketInstant inst = sock.evaluate();
    last_instant = inst;

    double seg = remaining;
    if (!was_finished && inst.speed > 0.0) {
      const double to_phase_end = w.remaining_in_phase() / inst.speed;
      seg = std::min(seg, to_phase_end);
    }
    // Guard against a zero-length segment from numerical round-off.
    seg = std::max(seg, 1e-9);
    seg = std::min(seg, remaining);

    sock.accumulate(inst, seg);
    pkg_energy += inst.pkg_power_w * seg;
    if (!was_finished) {
      PhaseTotals& pt = phase_totals_[si][phase_before];
      pt.wall_seconds += seg;
      pt.pkg_energy_j += inst.pkg_power_w * seg;
      pt.dram_energy_j += inst.dram_power_w * seg;
      w.advance(inst.speed * seg);
      fire_phase_transitions(s, phase_before);
    }
    remaining -= seg;
  }
  // A tick split into k segments crossed k-1 entry boundaries.
  batch_stats_.events_fired += segments - 1;

  // Trace rows exist for sinks alone; with none attached the record is
  // never read, so skip building it (floats only — no accumulator state).
  if (trace_ != nullptr) {
    fill_tick_record(last_instant, pkg_energy / tick_s,
                     rapls_[si]->governor().limit(), tick_records_[si]);
  }

  // 3. Feed the firmware's running-average window with the tick's
  //    time-averaged power (phase splits included).
  rapls_[si]->record(
      hw::SocketInstant{.core_mhz = 0, .uncore_mhz = 0, .speed = 0,
                        .flops_rate = 0, .bytes_rate = 0,
                        .pkg_power_w = pkg_energy / tick_s,
                        .dram_power_w = 0},
      tick_s);
}

void Simulation::finish_tick() {
  // Advance the clock, then fire any periodic callbacks whose deadline is
  // the new time (controllers observe a completed interval).
  const SimTime t = clock_.advance(options_.tick);
  const std::int64_t t_us = t.micros();
  for (auto& p : periodics_) {
    if (t_us == p.next_due_us) {
      p.fn(t);
      p.next_due_us += p.interval.micros();
      ++batch_stats_.events_fired;
    }
  }

  if (trace_ != nullptr) trace_->on_tick(t, tick_records_);

  if (t.seconds() > options_.max_seconds) {
    throw std::runtime_error(
        "Simulation exceeded max_seconds — controller stalled progress?");
  }
}

bool Simulation::step() {
  if (!started_) {
    started_ = true;
    announce_initial_phases();
  }
  ++batch_stats_.stepped_ticks;
  const double tick_s = options_.tick.seconds();
  for (int s = 0; s < socket_count(); ++s) {
    integrate_socket_tick(s, tick_s);
  }
  finish_tick();
  return !finished();
}

std::int64_t Simulation::event_bound_ticks() const {
  const std::int64_t tick_us = options_.tick.micros();
  const std::int64_t now_us = clock_.now().micros();

  // Periodic deadlines sit on the tick grid (schedule_periodic requires
  // interval % tick == 0 and deadlines are multiples of the interval), so
  // the exact integer divide is the tick count to the deadline; stopping
  // one tick short leaves the firing to the exact stepper.
  std::int64_t gap = std::numeric_limits<std::int64_t>::max() / 2;
  for (const auto& p : periodics_) {
    gap = std::min(gap, (p.next_due_us - now_us) / tick_us - 1);
  }
  if (gap <= 0) return 0;

  // The watchdog compares t.seconds() > max_seconds after every tick; no
  // fast-path tick may cross it (the exact stepper owns the throw).
  const double limit_us = options_.max_seconds * 1e6;
  if (static_cast<double>(now_us) +
          static_cast<double>(gap) * static_cast<double>(tick_us) >
      limit_us) {
    std::int64_t g = static_cast<std::int64_t>(
        (limit_us - static_cast<double>(now_us)) /
        static_cast<double>(tick_us));
    while (g > 0 &&
           SimTime{now_us + g * tick_us}.seconds() > options_.max_seconds) {
      --g;
    }
    gap = std::min(gap, g);
  }
  return std::max<std::int64_t>(gap, 0);
}

std::int64_t Simulation::compute_leap_gap() const {
  if (!options_.time_leap || !started_) return 0;
  const int n = socket_count();

  // O(1) pre-gate: a full leap needs both governor windows uniform on
  // every socket.  Under an active cap that is rare (window contents
  // drift), so this check keeps the planner's cost negligible on runs
  // where the fixed point never forms — those are served by the tier-2
  // calm-tick stretch instead.
  for (int s = 0; s < n; ++s) {
    if (!rapls_[static_cast<std::size_t>(s)]->governor().windows_uniform()) {
      return 0;
    }
  }

  std::int64_t gap = event_bound_ticks();
  if (gap < kMinLeapTicks) return 0;
  const double tick_s = options_.tick.seconds();

  // Per-socket fixed-point verification + next-entry-boundary bound.
  bool any_unfinished = false;
  for (int s = 0; s < n; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const auto& w = *workloads_[si];
    const auto& sock = machine_.socket(s);

    // The stepped tick would re-apply the current demand first; if that
    // write would change anything (entry crossed into a different phase
    // on the previous tick), the socket is not at a fixed point.
    if (!(w.current_demand() == sock.demand())) return 0;
    const hw::SocketInstant inst = sock.evaluate();

    // The power the stepped tick would record: pkg_energy accumulates
    // p * tick_s over the (single) segment and is divided back by tick_s.
    // Same expression here so the window fixed-point check sees the exact
    // bits record_power() would be fed.
    const double recorded_w = (inst.pkg_power_w * tick_s) / tick_s;
    if (!rapls_[si]->governor().steady_state(recorded_w)) return 0;

    if (!w.finished()) {
      any_unfinished = true;
      if (!(inst.speed > 0.0)) return 0;
      // Strictly-inside-the-entry bound: after G leapt ticks the entry's
      // consumed time grows by G per-tick additions of c; the margin
      // absorbs both the accumulated rounding of that sum and the
      // remaining/speed division in the stepper's segment split, so every
      // leapt tick stays a single full segment and the boundary tick is
      // handled exactly.
      const double c = inst.speed * tick_s;
      const double safe =
          std::floor((w.remaining_in_phase() - c) / (c * kSpeedBoundMargin)) -
          1.0;
      if (!(safe >= static_cast<double>(kMinLeapTicks))) return 0;
      gap = std::min(gap, static_cast<std::int64_t>(safe));
    }
  }
  // All workloads finished: the final tick(s) belong to the stepper, and
  // run() has already returned anyway.
  if (!any_unfinished) return 0;
  return gap >= kMinLeapTicks ? gap : 0;
}

void Simulation::gather_socket_lanes(int s) {
  // One slab of kLeapLanes accumulator lanes per socket.  Lane order
  // matches SocketModel::accumulate / the phase-totals block /
  // WorkloadInstance::advance in the stepped path; each lane's per-tick
  // increment (gather_socket_increments) is the exact value the stepper
  // would add each tick, so a flat add loop over the lanes replays the
  // identical FP operations — only the control loop around them
  // (governor decision, demand rewrite, segment split, periodic
  // compares) is skipped.
  const auto si = static_cast<std::size_t>(s);
  const auto& w = *workloads_[si];
  double* acc = leap_acc_.data() + si * kLeapLanes;

  const auto a = machine_.socket(s).accumulators();
  acc[0] = a.pkg_energy_j;
  acc[1] = a.dram_energy_j;
  acc[2] = a.flops_total;
  acc[3] = a.bytes_total;
  acc[4] = a.aperf_cycles;
  acc[5] = a.mperf_cycles;
  if (!w.finished()) {
    const PhaseTotals& pt = phase_totals_[si][w.current_phase_idx()];
    acc[6] = pt.wall_seconds;
    acc[7] = pt.pkg_energy_j;
    acc[8] = pt.dram_energy_j;
    acc[9] = w.consumed_total();
    acc[10] = w.consumed_in_current();
  } else {
    for (std::size_t j = 6; j < kLeapLanes; ++j) acc[j] = 0.0;
  }
}

double Simulation::gather_socket_increments(int s,
                                            const hw::SocketInstant& inst) {
  const auto si = static_cast<std::size_t>(s);
  const double tick_s = options_.tick.seconds();
  double* inc = leap_inc_.data() + si * kLeapLanes;

  inc[0] = inst.pkg_power_w * tick_s;
  inc[1] = inst.dram_power_w * tick_s;
  inc[2] = inst.flops_rate * tick_s;
  inc[3] = inst.bytes_rate * tick_s;
  inc[4] = inst.core_mhz * 1e6 * tick_s;
  inc[5] = machine_.socket(s).config().core_base_mhz * 1e6 * tick_s;
  if (!workloads_[si]->finished()) {
    inc[6] = tick_s;
    inc[7] = inst.pkg_power_w * tick_s;
    inc[8] = inst.dram_power_w * tick_s;
    const double c = inst.speed * tick_s;
    inc[9] = c;
    inc[10] = c;
  } else {
    for (std::size_t j = 6; j < kLeapLanes; ++j) inc[j] = 0.0;
  }

  // Cache the trace row: it is constant while the socket stays at this
  // instant (single-segment ticks at a fixed instant produce the same
  // record every tick), and both fast paths re-gather whenever the
  // instant can change and before a socket's first lane tick after a
  // boundary tick.  Skipped when no sink is attached — the row is only
  // ever read by trace_->on_tick.
  if (trace_ != nullptr) {
    fill_tick_record(inst, (inst.pkg_power_w * tick_s) / tick_s,
                     rapls_[si]->governor().limit(), tick_records_[si]);
  }
  // The exact value the stepped path would feed record_power(): energy of
  // the tick's single segment divided back by the tick length.  With the
  // increments it is the governor's entry for the applied P-state, so
  // calm_run can later flip into this state in its kernel.  The entry is
  // kept per socket state, which also covers the finished flag the
  // increments depend on: a finishing workload's next tick is a boundary
  // tick that applies the idle demand, before any lane tick.
  const double recorded_w = (inst.pkg_power_w * tick_s) / tick_s;
  rapls_[si]->governor().fill_flip_entry(
      recorded_w,
      std::span<const double, rapl::FirmwareGovernor::kFlipLanes>(
          inc, kLeapLanes));
  return recorded_w;
}

void Simulation::scatter_socket_lanes(int s) {
  const auto si = static_cast<std::size_t>(s);
  auto& w = *workloads_[si];
  auto& sock = machine_.socket(s);
  const double* acc = leap_acc_.data() + si * kLeapLanes;
  sock.restore_accumulators({acc[0], acc[1], acc[2], acc[3], acc[4], acc[5]});
  if (!w.finished()) {
    PhaseTotals& pt = phase_totals_[si][w.current_phase_idx()];
    pt.wall_seconds = acc[6];
    pt.pkg_energy_j = acc[7];
    pt.dram_energy_j = acc[8];
    w.restore_progress(acc[10], acc[9]);
  }
}

void Simulation::execute_leap(std::int64_t gap) {
  // Gather.  Every control-loop operation skipped inside the gap
  // (governor decision, window pushes, demand rewrite) is a verified
  // no-op at the fixed point compute_leap_gap established.
  const int n = socket_count();
  for (int s = 0; s < n; ++s) {
    gather_socket_lanes(s);
    gather_socket_increments(s, machine_.socket(s).evaluate());
  }

  // Per-chain FP addition order is preserved (each lane is an
  // independent accumulator chain), so results are bit-identical to the
  // same number of stepped ticks; across lanes the loop vectorizes.
  double* __restrict acc = leap_acc_.data();
  const double* __restrict inc = leap_inc_.data();
  const std::size_t m = leap_acc_.size();
  if (trace_ == nullptr) {
    for (std::int64_t k = 0; k < gap; ++k) {
      for (std::size_t j = 0; j < m; ++j) acc[j] += inc[j];
    }
    clock_.advance(SimDuration{gap * options_.tick.micros()});
  } else {
    // A sink observes every tick, so the clock advances tick-wise and the
    // (constant) rows are emitted per tick, exactly as finish_tick would;
    // periodics and the watchdog are bound-excluded.
    for (std::int64_t k = 0; k < gap; ++k) {
      for (std::size_t j = 0; j < m; ++j) acc[j] += inc[j];
      const SimTime t = clock_.advance(options_.tick);
      trace_->on_tick(t, tick_records_);
    }
  }

  // Scatter the advanced accumulators back.
  for (int s = 0; s < n; ++s) scatter_socket_lanes(s);

  ++batch_stats_.leaps;
  batch_stats_.leapt_ticks += gap;
  batch_stats_.max_leap = std::max(batch_stats_.max_leap, gap);
}

std::int64_t Simulation::run_end_bound_ticks() const {
  // Every tick advances a workload by at most tick_s * kSpeedBoundMargin
  // nominal seconds (the speed ceiling, split segments included), so a
  // socket with R nominal seconds left is unfinished for at least this
  // many more ticks; the -1 absorbs the rounding of the suffix sums.  The
  // largest such bound over the unfinished sockets keeps one of them
  // running through the horizon.
  const double tick_s = options_.tick.seconds();
  std::int64_t bound = 0;
  for (const auto& w : workloads_) {
    if (w->finished()) continue;
    const double ticks =
        std::floor(w->remaining_nominal_seconds() /
                   (tick_s * kSpeedBoundMargin)) -
        1.0;
    if (ticks > static_cast<double>(bound)) {
      bound = static_cast<std::int64_t>(ticks);
    }
  }
  return bound;
}

std::int64_t Simulation::lane_budget(int s, double consumed_in_current) const {
  const auto& w = *workloads_[static_cast<std::size_t>(s)];
  // The stepped tick re-applies the current demand first.  When an entry
  // ended exactly on the previous tick's end the socket still holds the
  // old demand, and only an exact tick applies the new one.  This test
  // comes before the finished shortcut: a workload that has just finished
  // still holds its last phase's demand until an exact tick idles it.
  if (!(w.current_demand() == machine_.socket(s).demand())) return 0;
  if (w.finished()) return kUnboundedBudget;
  // Strictly inside the entry at the global speed ceiling (kSpeedBoundMargin)
  // rather than the current speed, so the bound survives flips that
  // change the speed: every budgeted tick is one full segment at the
  // applied demand, which is what lets flip ticks run in the lanes.
  const double safe =
      std::floor((w.entry_seconds() - consumed_in_current) /
                 (options_.tick.seconds() * kSpeedBoundMargin)) -
      1.0;
  return safe >= 1.0 ? static_cast<std::int64_t>(safe) : 0;
}

bool Simulation::fast_stretch() {
  if (!options_.time_leap || !started_) return false;
  // Three things bound the horizon: the periodics, the watchdog and the
  // run end.  Entry boundaries do not; each socket crosses its own inside
  // the stretch (stretch_socket), so one socket's boundary never stops
  // the others.
  const std::int64_t horizon =
      std::min(event_bound_ticks(), run_end_bound_ticks());
  if (horizon < kMinFastTicks) return false;
  const int n = socket_count();

  // Each socket's increments are gathered at its first lane tick, when
  // its budget is first computed.
  for (int s = 0; s < n; ++s) {
    gather_socket_lanes(s);
    lane_budget_[static_cast<std::size_t>(s)] = 0;
  }

  // A contiguous run of all-calm ticks counts as one leap in the stats,
  // carried across chunk boundaries; a tick where any socket's control
  // decision moved the limit or any socket took a boundary tick is an
  // exact (stepped) tick even though the other sockets took the fast
  // path.
  std::int64_t open_run = 0;  // all-calm ticks since the last stepped one
  const auto close_run = [&] {
    if (open_run > 0) {
      ++batch_stats_.leaps;
      batch_stats_.max_leap = std::max(batch_stats_.max_leap, open_run);
      open_run = 0;
    }
  };

  // A sink reads every socket's row at every tick, so a traced run
  // advances all sockets one tick at a time, through the same loop.  A
  // phase listener fires inside a boundary tick and may write MSRs whose
  // faults are stamped with the run clock, so a run with listeners ends
  // each chunk before the first tick on which some socket's budget is 0
  // and runs that tick as a chunk of its own: every crossing then sees
  // its own tick's time and the stepper's socket order.
  const std::int64_t chunk = trace_ != nullptr ? 1 : kStretchChunk;
  for (std::int64_t done = 0; done < horizon;) {
    std::int64_t len = std::min(chunk, horizon - done);
    if (!phase_listeners_.empty()) {
      for (int s = 0; s < n && len > 1; ++s) {
        const auto si = static_cast<std::size_t>(s);
        // Lane 10 is the entry progress, consumed_in_current.
        const std::int64_t budget =
            lane_budget_[si] > 0
                ? lane_budget_[si]
                : lane_budget(s, leap_acc_[si * kLeapLanes + 10]);
        len = std::min(len, std::max<std::int64_t>(budget, 1));
      }
    }
    for (int s = 0; s < n; ++s) stretch_socket(s, len);

    // Rebuild the tick-major statistics from the chunk's flip bitmap,
    // clearing it for the next chunk.
    std::int64_t next = 0;  // first chunk tick not yet classified
    std::int64_t stepped = 0;
    const auto words = static_cast<std::size_t>((len + 63) / 64);
    for (std::size_t wi = 0; wi < words; ++wi) {
      for (std::uint64_t bits = flip_bits_[wi]; bits != 0; bits &= bits - 1) {
        const std::int64_t k =
            static_cast<std::int64_t>(wi * 64) + std::countr_zero(bits);
        open_run += k - next;
        close_run();
        ++stepped;
        next = k + 1;
      }
      flip_bits_[wi] = 0;
    }
    open_run += len - next;
    batch_stats_.stepped_ticks += stepped;
    batch_stats_.leapt_ticks += len - stepped;

    // The clock advances exactly as finish_tick would; periodics and the
    // watchdog cannot fire inside the horizon.
    if (trace_ != nullptr) {
      trace_->on_tick(clock_.advance(options_.tick), tick_records_);
    } else {
      clock_.advance(SimDuration{len * options_.tick.micros()});
    }
    done += len;
  }
  close_run();

  for (int s = 0; s < n; ++s) scatter_socket_lanes(s);
  return true;
}

void Simulation::stretch_socket(int s, std::int64_t len) {
  const auto si = static_cast<std::size_t>(s);
  const double tick_s = options_.tick.seconds();
  rapl::FirmwareGovernor& gov = rapls_[si]->governor();
  double* acc_lanes = leap_acc_.data() + si * kLeapLanes;
  double* inc_lanes = leap_inc_.data() + si * kLeapLanes;
  std::array<double, kLeapLanes> acc;
  std::array<double, kLeapLanes> inc;
  std::copy_n(acc_lanes, kLeapLanes, acc.begin());
  std::copy_n(inc_lanes, kLeapLanes, inc.begin());
  std::int64_t& budget = lane_budget_[si];
  const auto mark_stepped = [this](std::int64_t k) {
    flip_bits_[static_cast<std::size_t>(k) / 64] |= std::uint64_t{1}
                                                    << (k % 64);
  };
  // What remains of `n` stepped ticks at one operating point once the
  // governor has run them: the lane additions, in the stepper's order per
  // lane.  Unrolled so that -O2 builds keep the lanes in registers as
  // well, not only -O3 ones.
  const auto add_ticks = [&acc, &inc](std::size_t n) {
    for (std::size_t t = 0; t < n; ++t) {
#pragma GCC unroll 11
      for (std::size_t j = 0; j < kLeapLanes; ++j) acc[j] += inc[j];
    }
  };
  // A flip calm_run took moved the operating point away from the one
  // leap_inc_ and the trace row were gathered at.
  bool moved = false;

  for (std::int64_t k = 0; k < len;) {
    if (budget == 0) {
      // The stretch starts, the budget ran out or a boundary tick just
      // ran: look at the entry again, from the lanes' progress (lane 10,
      // consumed_in_current).  Lane ticks follow at the current instant,
      // so their increments, recorded power and trace row are gathered
      // here; until then the row stays the boundary tick's.
      budget = lane_budget(s, acc[10]);
      if (budget > 0) {
        gather_socket_increments(s, machine_.socket(s).evaluate());
        std::copy_n(inc_lanes, kLeapLanes, inc.begin());
        moved = false;
      }
    }
    if (budget == 0) {
      // Boundary tick k: the entry may end inside it, or the demand must
      // be re-applied.  It is the stepper's own tick for this socket —
      // segment split, entry advance, phase listeners, trace row — with
      // the lanes written back around it; the other sockets never leave
      // their lanes.
      mark_stepped(k);
      ++batch_stats_.boundary_ticks;
      std::copy_n(acc.begin(), kLeapLanes, acc_lanes);
      scatter_socket_lanes(s);
      integrate_socket_tick(s, tick_s);
      gather_socket_lanes(s);
      std::copy_n(acc_lanes, kLeapLanes, acc.begin());
      moved = false;
      ++k;
      continue;
    }

    // Lane ticks k..end-1.  Each pass is one calm_run — calm ticks and the
    // flips it takes — and the flip tick that ends it, if any.
    const std::int64_t end = k + std::min(budget, len - k);
    budget -= end - k;
    while (k < end) {
      const rapl::FirmwareGovernor::CalmRun run =
          gov.calm_run(static_cast<std::size_t>(end - k), flip_log_);
      // Replay the lanes segment by segment: each logged flip tick runs
      // at its new P-state, whose increments the governor holds.
      std::size_t t = 0;
      for (std::size_t f = 0; f < run.flips; ++f) {
        const rapl::FirmwareGovernor::Flip flip = flip_log_[f];
        add_ticks(flip.tick - t);
        std::copy_n(gov.flip_lanes(flip.pstate), kLeapLanes, inc.begin());
        add_ticks(1);
        mark_stepped(k + flip.tick);
        t = flip.tick + 1;
      }
      add_ticks(run.ticks - t);
      batch_stats_.flip_ticks += static_cast<std::int64_t>(run.flips);
      moved = moved || run.flips > 0;
      k += static_cast<std::int64_t>(run.ticks);
      if (k == end) break;

      // Flip tick k, which the kernel could not take: the new P-state's
      // entry is not filled under this socket state.
      // integrate_socket_tick would apply the decision, re-apply the
      // unchanged demand (a no-op), evaluate, add one single-segment tick
      // of each lane and record the power; the lanes do exactly that at
      // the new instant, and the gather fills the entry.
      mark_stepped(k);
      ++batch_stats_.flip_ticks;
      ++batch_stats_.flip_fills;
      rapls_[si]->tick();
      const double recorded_w =
          gather_socket_increments(s, machine_.socket(s).evaluate());
      std::copy_n(inc_lanes, kLeapLanes, inc.begin());
      add_ticks(1);
      gov.record_power(recorded_w, tick_s);
      moved = false;
      ++k;
    }
  }
  std::copy_n(acc.begin(), kLeapLanes, acc_lanes);
  if (moved) {
    // The next chunk starts from the increments of the P-state the kernel
    // left, and a sink reads that state's row at this chunk's end.
    std::copy_n(inc.begin(), kLeapLanes, inc_lanes);
    if (trace_ != nullptr) {
      gather_socket_increments(s, machine_.socket(s).evaluate());
    }
  }
}

bool Simulation::advance_once() {
  const std::int64_t gap = compute_leap_gap();
  if (gap > 0) {
    execute_leap(gap);
    return true;  // a leap never finishes a workload
  }
  if (fast_stretch()) return true;  // a stretch never finishes a workload
  return step();
}

RunSummary Simulation::run() {
  while (advance_once()) {
  }
  return summarize();
}

RunSummary Simulation::summarize() const {
  RunSummary sum;
  sum.exec_seconds = clock_.now().seconds();
  sum.pkg_energy_j = machine_.total_pkg_energy_j();
  sum.dram_energy_j = machine_.total_dram_energy_j();
  sum.avg_pkg_power_w =
      sum.exec_seconds > 0.0 ? sum.pkg_energy_j / sum.exec_seconds : 0.0;
  sum.avg_dram_power_w =
      sum.exec_seconds > 0.0 ? sum.dram_energy_j / sum.exec_seconds : 0.0;
  double flop = 0.0;
  double bytes = 0.0;
  for (int s = 0; s < socket_count(); ++s) {
    flop += machine_.socket(s).flops_total();
    bytes += machine_.socket(s).bytes_total();
  }
  sum.total_gflop = flop * 1e-9;
  sum.total_gbytes = bytes * 1e-9;
  return sum;
}

}  // namespace dufp::sim
