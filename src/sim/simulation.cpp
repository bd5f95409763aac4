#include "sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/expect.h"
#include "common/units.h"

namespace dufp::sim {

namespace {

/// Safety factor on the workload progress-rate bound.  The perf model
/// guarantees speed <= 1/(sum of weights) and profile validation allows
/// the weights to sum to 1 +/- 1e-6, so actual speed can exceed 1.0 by up
/// to ~1e-6; 1.001 gives three orders of magnitude of slack.
constexpr double kSpeedBoundMargin = 1.001;

/// Below this gap the leap planner's fixed-point verification plus the
/// gather/scatter costs about as much as just stepping the ticks.
constexpr std::int64_t kMinLeapTicks = 4;

/// Below this horizon the calm-stretch entry checks and gather/scatter
/// cost about as much as stepping the ticks exactly.
constexpr std::int64_t kMinFastTicks = 4;

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
  stretch_v_.resize(static_cast<std::size_t>(n), 0.0);
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

void Simulation::gather_socket_lanes(int s, const hw::SocketInstant& inst) {
  // One slab of kLeapLanes accumulator lanes per socket.  Lane order
  // matches SocketModel::accumulate / the phase-totals block /
  // WorkloadInstance::advance in the stepped path; each lane's per-tick
  // increment is the exact value the stepper would add each tick, so a
  // flat add loop over the lanes replays the identical FP operations —
  // only the control loop around them (governor decision, demand rewrite,
  // segment split, periodic compares) is skipped.
  const auto si = static_cast<std::size_t>(s);
  const double tick_s = options_.tick.seconds();
  auto& w = *workloads_[si];
  auto& sock = machine_.socket(s);
  double* acc = leap_acc_.data() + si * kLeapLanes;
  double* inc = leap_inc_.data() + si * kLeapLanes;

  const auto a = sock.accumulators();
  acc[0] = a.pkg_energy_j;
  inc[0] = inst.pkg_power_w * tick_s;
  acc[1] = a.dram_energy_j;
  inc[1] = inst.dram_power_w * tick_s;
  acc[2] = a.flops_total;
  inc[2] = inst.flops_rate * tick_s;
  acc[3] = a.bytes_total;
  inc[3] = inst.bytes_rate * tick_s;
  acc[4] = a.aperf_cycles;
  inc[4] = inst.core_mhz * 1e6 * tick_s;
  acc[5] = a.mperf_cycles;
  inc[5] = sock.config().core_base_mhz * 1e6 * tick_s;

  if (!w.finished()) {
    const PhaseTotals& pt = phase_totals_[si][w.current_phase_idx()];
    acc[6] = pt.wall_seconds;
    inc[6] = tick_s;
    acc[7] = pt.pkg_energy_j;
    inc[7] = inst.pkg_power_w * tick_s;
    acc[8] = pt.dram_energy_j;
    inc[8] = inst.dram_power_w * tick_s;
    const double c = inst.speed * tick_s;
    acc[9] = w.consumed_total();
    inc[9] = c;
    acc[10] = w.consumed_in_current();
    inc[10] = c;
  } else {
    for (std::size_t j = 6; j < kLeapLanes; ++j) {
      acc[j] = 0.0;
      inc[j] = 0.0;
    }
  }

  // Cache the trace row: it is constant while the socket stays at this
  // instant (single-segment ticks at a fixed instant produce the same
  // record every tick), and both fast paths re-gather whenever the
  // instant can change.  Skipped when no sink is attached — the row is
  // only ever read by trace_->on_tick.
  if (trace_ != nullptr) {
    fill_tick_record(inst, (inst.pkg_power_w * tick_s) / tick_s,
                     rapls_[si]->governor().limit(), tick_records_[si]);
  }
  // The exact value the stepped path would feed record_power(): energy of
  // the tick's single segment divided back by the tick length.
  stretch_v_[si] = (inst.pkg_power_w * tick_s) / tick_s;
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
    gather_socket_lanes(s, machine_.socket(s).evaluate());
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

bool Simulation::fast_stretch() {
  if (!options_.time_leap || !started_) return false;
  std::int64_t horizon = event_bound_ticks();
  if (horizon < kMinFastTicks) return false;
  const int n = socket_count();
  const double tick_s = options_.tick.seconds();

  // Entry checks.  Unlike the full leap, the stretch tolerates drifting
  // governor windows and mid-stretch limit moves, so the only per-socket
  // preconditions are the ones every calm tick relies on: the demand the
  // stepper would re-apply is already applied (no entry crossed on the
  // previous tick), and no sequence-entry boundary can land inside the
  // stretch.  The boundary bound uses the *global* speed ceiling (speed
  // <= 1/(weight sum), see kSpeedBoundMargin) rather than the current
  // speed, so it survives limit flips that change the speed mid-stretch.
  bool any_unfinished = false;
  for (int s = 0; s < n; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const auto& w = *workloads_[si];
    if (!(w.current_demand() == machine_.socket(s).demand())) return false;
    if (!w.finished()) {
      any_unfinished = true;
      const double safe =
          std::floor(w.remaining_in_phase() / (tick_s * kSpeedBoundMargin)) -
          1.0;
      if (!(safe >= static_cast<double>(kMinFastTicks))) return false;
      horizon = std::min(horizon, static_cast<std::int64_t>(safe));
    }
  }
  // All workloads finished: the final tick(s) belong to the stepper.
  if (!any_unfinished || horizon < kMinFastTicks) return false;

  for (int s = 0; s < n; ++s) {
    gather_socket_lanes(s, machine_.socket(s).evaluate());
  }

  // A contiguous run of all-calm ticks counts as one leap in the stats;
  // a tick where any socket's control decision moved the limit is an
  // exact (stepped) tick even though the calm sockets took the fast path.
  std::int64_t calm_run = 0;
  const auto close_run = [&] {
    if (calm_run > 0) {
      ++batch_stats_.leaps;
      batch_stats_.max_leap = std::max(batch_stats_.max_leap, calm_run);
      calm_run = 0;
    }
  };

  for (std::int64_t k = 0; k < horizon; ++k) {
    bool all_calm = true;
    for (int s = 0; s < n; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (rapls_[si]->governor().fast_calm_tick(stretch_v_[si])) {
        // Calm tick: the governor kept its limit (verified via the plan
        // band) and pushed the tick's power into its windows; what
        // remains of the stepped tick is the accumulator additions.
        double* __restrict acc = leap_acc_.data() + si * kLeapLanes;
        const double* __restrict inc = leap_inc_.data() + si * kLeapLanes;
        for (std::size_t j = 0; j < kLeapLanes; ++j) acc[j] += inc[j];
      } else {
        // Flip tick: the decision would move the limit.  Hand the socket
        // to the exact stepper for this tick (which applies the new
        // limit, splits segments if ever needed, fills the trace row),
        // then re-gather lanes at the new instant.
        all_calm = false;
        scatter_socket_lanes(s);
        integrate_socket_tick(s, tick_s);
        gather_socket_lanes(s, machine_.socket(s).evaluate());
      }
    }
    if (all_calm) {
      ++batch_stats_.leapt_ticks;
      ++calm_run;
    } else {
      close_run();
      ++batch_stats_.stepped_ticks;
    }
    // Clock and trace advance tick-wise exactly as finish_tick would;
    // periodics and the watchdog cannot fire inside the horizon.
    const SimTime t = clock_.advance(options_.tick);
    if (trace_ != nullptr) trace_->on_tick(t, tick_records_);
  }
  close_run();

  for (int s = 0; s < n; ++s) scatter_socket_lanes(s);
  return true;
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
