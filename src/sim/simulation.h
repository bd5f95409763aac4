// The discrete-time engine: advances the machine in 1 ms ticks, coupling
// per-socket workload demand, the RAPL firmware governor, the socket
// power/performance models, and any attached controllers (scheduled as
// periodic callbacks, like the paper's 200 ms DUFP loop).
//
// Within a tick the engine integrates exactly across phase boundaries:
// when a workload phase ends mid-tick, the tick is split into segments so
// energy / flops / bytes accounting never smears one phase's rates into
// the next.
//
// Hot-path design (see DESIGN.md § Hot path & scaling): the steady-state
// tick performs no heap allocation — phase transitions are keyed by
// interned phase *indices* rather than name strings, per-tick scratch
// lives in members sized at construction, and periodic scheduling is a
// next-deadline countdown instead of a modulo scan.  The engine is
// single-threaded: concurrency lives one level up, where independent
// runs share a ThreadPool (harness::ExperimentPlan) or forked shard
// processes.
//
// Event leaping (SimulationOptions::time_leap, see DESIGN.md §7b) runs
// in two tiers.  Tier 1 — the full leap: when every socket sits at a
// verified bitwise fixed point (governor windows uniform and sum-stable,
// control decision reproducing itself, demand mid-phase), run() leaps
// simulated time up to the next event — the minimum over the next
// periodic deadline, each socket's next sequence-entry boundary, the
// max_seconds watchdog — executing only the irreducible per-tick
// floating-point accumulations over flat structure-of-arrays lanes.
// Tier 2 — the calm-tick stretch: under an active power cap the governor
// windows drift (old samples evict) even while the applied frequency
// limit holds, so the fixed point rarely exists; the engine then runs
// the stretch socket-major, in chunks of up to kStretchChunk ticks.  Per
// socket, FirmwareGovernor::calm_run executes calm ticks with the window
// state in registers (window sum updates and the cell membership test
// standing in for the P-state search), the 11 accumulator lanes advance
// in locals, and a flip tick — one whose control decision moves the
// limit — runs in the lanes as tick(), evaluate(), fresh increments, one
// addition and record_power().  A per-tick flip bitmap rebuilds the
// tick-major statistics afterwards.  A trace sink needs every socket's
// row at every tick, so a traced run takes 1-tick chunks through the
// same loop.  Both tiers perform the exact FP operations the stepped
// engine performs and skip only work that is provably unobservable, so
// every output stays byte-identical; event-dense stretches fall back to
// exact stepping automatically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "hwmodel/machine_model.h"
#include "msr/sim_msr.h"
#include "rapl/rapl_engine.h"
#include "sim/trace.h"
#include "workloads/workload.h"

namespace dufp::sim {

struct SimulationOptions {
  SimDuration tick = SimTime::from_millis(1);

  /// Per-run seed: drives workload jitter and (through fork_rng) any
  /// measurement noise attached by agents.
  std::uint64_t seed = 42;

  /// Relative sigma of per-phase duration jitter (run-to-run variation).
  double workload_jitter_sigma = 0.008;

  rapl::GovernorParams governor;

  /// Hard stop: abort (throw) if the run exceeds this wall time — guards
  /// against a controller bug stalling progress forever.
  double max_seconds = 3600.0;

  /// Event-leaping fast path (on by default): run() skips the control
  /// loop across provably event-free, fixed-point stretches and executes
  /// only the per-tick accumulator additions.  Byte-identical to stepping
  /// for every observable output — the knob exists for A/B identity tests
  /// and perf diagnosis, not because the results differ.
  bool time_leap = true;
};

/// How the engine spent its ticks.  Cheap enough to keep always-on; the
/// throughput benches and the leaping regression tests read it so
/// hot-path behaviour is observable, not inferred.  Invariant:
/// leapt_ticks + stepped_ticks equals the total ticks simulated.
struct BatchStats {
  /// Always 0.  It counted the ticks of the socket-parallel engine, which
  /// is gone; it stays because the perf ledger (perfbench/ledger.cpp)
  /// still reconciles leapt + stepped + batched against the run's ticks.
  std::int64_t batched_ticks = 0;

  std::int64_t leaps = 0;          ///< event leaps executed
  std::int64_t leapt_ticks = 0;    ///< ticks covered by those leaps
  std::int64_t stepped_ticks = 0;  ///< ticks through the exact stepper
  std::int64_t max_leap = 0;       ///< largest single leap, in ticks
  /// Events the exact path handled: periodic-callback firings plus tick
  /// segment splits (sequence-entry boundaries landing inside a tick).
  std::int64_t events_fired = 0;
  /// Socket-ticks a calm stretch advanced as flips (the governor moved
  /// the limit), counted per socket.  A stretch tick with any flip is
  /// one stepped tick; this counts the sockets that flipped on it.
  std::int64_t flip_ticks = 0;
};

/// Wall time and energy attributed to one phase of the workload on one
/// socket (exact: tick integration splits at phase boundaries).
struct PhaseTotals {
  double wall_seconds = 0.0;
  double pkg_energy_j = 0.0;
  double dram_energy_j = 0.0;
};

/// Whole-run results at machine scope (what the paper measures per run).
struct RunSummary {
  double exec_seconds = 0.0;      ///< wall time until the last socket finished
  double pkg_energy_j = 0.0;      ///< all sockets
  double dram_energy_j = 0.0;
  double avg_pkg_power_w = 0.0;   ///< pkg_energy / exec time
  double avg_dram_power_w = 0.0;
  double total_gflop = 0.0;
  double total_gbytes = 0.0;

  double total_energy_j() const { return pkg_energy_j + dram_energy_j; }
};

class Simulation {
 public:
  /// Sentinel phase index meaning "no phase" (workload finished).
  static constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);

  /// Most ticks one socket runs before fast_stretch moves to the next
  /// socket; sizes the flip bitmap (one bit per tick, 512 B).  Runs with
  /// a trace sink take 1-tick chunks.
  static constexpr std::int64_t kStretchChunk = 4096;

  /// Symmetric machine: every socket runs its share of the same
  /// application (the paper's OpenMP setup).
  Simulation(const hw::MachineConfig& machine,
             const workloads::WorkloadProfile& app,
             const SimulationOptions& options = {});

  /// Asymmetric machine: one profile per socket (size must equal the
  /// socket count; profiles must outlive the simulation).  Used by the
  /// machine-level budget-distribution studies.
  Simulation(const hw::MachineConfig& machine,
             const std::vector<const workloads::WorkloadProfile*>& apps,
             const SimulationOptions& options = {});
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // -- wiring ---------------------------------------------------------------
  int socket_count() const;
  hw::SocketModel& socket(int i);
  msr::SimulatedMsr& msr(int i);
  rapl::RaplEngine& rapl(int i);
  workloads::WorkloadInstance& workload(int i);

  /// Current simulated time.
  SimTime now() const { return clock_.now(); }

  /// Independent RNG stream derived from the run seed.
  Rng fork_rng(std::uint64_t tag);

  /// Registers a callback fired every `interval` of simulated time (after
  /// physics for the tick ending on the boundary).  Controllers attach
  /// through this.
  using PeriodicFn = std::function<void(SimTime)>;
  void schedule_periodic(SimDuration interval, PeriodicFn fn);

  /// Notified when socket `s` enters (`entered`=true) or leaves a phase.
  /// `phase_idx` indexes workload(s).profile().phases(); resolve to a name
  /// with workload(s).profile().phase_name(phase_idx) when needed.  Used
  /// by the partial-capping experiments (Fig. 1b/1c).
  using PhaseListener =
      std::function<void(int socket, std::size_t phase_idx, bool entered)>;
  void add_phase_listener(PhaseListener fn);

  /// Non-owning; pass nullptr to detach.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  /// Per-phase accounting for socket `i`, indexed like
  /// workload(i).profile().phases().
  const std::vector<PhaseTotals>& phase_totals(int i) const;

  // -- execution -------------------------------------------------------------

  /// Advances one exact tick.  Returns false once every socket's
  /// workload has finished (the final tick is still fully processed).
  bool step();

  /// Runs to completion (advance_once() until false) and summarizes.
  RunSummary run();

  /// One iteration of the run() loop: a full event leap, a calm-tick
  /// stretch, or one exact tick — whichever the engine state selects.
  /// Returns false once every workload has finished (the final tick fully
  /// processed).  Calling advance_once() until false and then
  /// summarize() reproduces run() byte-for-byte; the perf ledger runs
  /// simulations this way to time each engine path.
  bool advance_once();

  /// The RunSummary of the current state (what run() returns at the
  /// end).  Pure reads; callable any time, meaningful once finished().
  RunSummary summarize() const;

  bool finished() const;

  /// How the engine spent its ticks so far (the leap/step split).
  const BatchStats& batch_stats() const { return batch_stats_; }

  /// Number of ticks the engine could leap right now (0 when any socket
  /// is off its fixed point, an event is imminent, or time_leap is off).
  /// Diagnostic mirror of the internal next-event computation — the
  /// microbench times it against a plain tick, and tests use it to
  /// observe steadiness directly.
  std::int64_t leap_horizon() const { return compute_leap_gap(); }

 private:
  struct Periodic {
    SimDuration interval;
    std::int64_t next_due_us;  ///< absolute deadline of the next firing
    PeriodicFn fn;
  };

  void announce_initial_phases();
  void fire_phase_transitions(int socket, std::size_t before_idx);
  /// Physics + accounting for one socket on one tick; fills the socket's
  /// trace row when a sink is attached.  `tick_s` is the tick length in
  /// seconds.
  void integrate_socket_tick(int s, double tick_s);
  /// Clock advance + periodic / trace / watchdog handling after the
  /// sockets of an exact tick are integrated.
  void finish_tick();
  /// Ticks until the next engine-external event: min over periodic
  /// deadlines (minus the firing tick, which the exact stepper owns) and
  /// the max_seconds watchdog.  Never negative.
  std::int64_t event_bound_ticks() const;
  /// Event-leap planner: verifies every socket sits at a bitwise fixed
  /// point and min-reduces the per-socket / global event bounds (next
  /// periodic deadline, next sequence-entry boundary, max_seconds) over
  /// flat arrays.  Returns the leapable tick count, or 0 when stepping is
  /// required (off fixed point, event within kMinLeapTicks, leap off).
  std::int64_t compute_leap_gap() const;
  /// Tier-2 fast path: runs up to the event horizon, socket-major in
  /// chunks of at most kStretchChunk ticks (1 tick with a trace sink, so
  /// every row sees all sockets).  Per socket and chunk, stretch_socket
  /// alternates FirmwareGovernor::calm_run with in-lane flip ticks and
  /// marks each flip in flip_bits_; the chunk's bitmap then rebuilds the
  /// tick-major statistics (a tick is leapt when no socket flipped on
  /// it, and consecutive leapt ticks are one leap, carried across chunk
  /// boundaries).  Returns false without advancing anything when the
  /// preconditions fail (event imminent, demand residue, leap off).
  bool fast_stretch();
  /// One socket's share of a stretch chunk: `len` ticks with the lanes
  /// in locals.  A flip tick stays in the lanes — tick(), evaluate(),
  /// gather_socket_increments, one addition, record_power() — which is
  /// exactly integrate_socket_tick because the stretch's entry checks
  /// guarantee a single-segment tick at unchanged demand.
  void stretch_socket(int s, std::int64_t len);
  /// Loads socket `s`'s accumulator lanes from the socket model, phase
  /// totals and workload progress into leap_acc_, then its increments
  /// (gather_socket_increments).  Shared by both leap tiers, once per
  /// leap or stretch: a stretch's flip ticks refresh only the
  /// increments, because the accumulators stay in stretch_socket's
  /// locals for the whole chunk.
  void gather_socket_lanes(int s, const hw::SocketInstant& inst);
  /// The increment half of gather_socket_lanes: socket `s`'s per-tick
  /// lane increments at `inst` into leap_inc_, plus the cached trace row
  /// and the recorded tick power (stretch_v_).  Called again whenever
  /// the socket's instant can have changed (a flip tick).
  void gather_socket_increments(int s, const hw::SocketInstant& inst);
  /// Writes socket `s`'s advanced lanes back into the socket model,
  /// phase totals and workload progress.
  void scatter_socket_lanes(int s);
  /// Executes a planned leap: gathers the per-socket accumulators into
  /// structure-of-arrays lanes, applies the exact per-tick additions for
  /// `gap` ticks in one vectorizable loop, scatters the results back and
  /// advances the clock (emitting the constant trace rows when a sink is
  /// attached).  Pre-sized members only — allocation-free.
  void execute_leap(std::int64_t gap);

  SimulationOptions options_;
  Rng root_rng_;
  hw::MachineModel machine_;
  SimClock clock_;

  std::vector<std::unique_ptr<msr::SimulatedMsr>> msrs_;
  std::vector<std::unique_ptr<rapl::RaplEngine>> rapls_;
  std::vector<std::unique_ptr<workloads::WorkloadInstance>> workloads_;

  std::vector<Periodic> periodics_;
  std::vector<PhaseListener> phase_listeners_;
  TraceSink* trace_ = nullptr;

  std::vector<TickRecord> tick_records_;  // scratch, reused per tick
  std::vector<std::vector<PhaseTotals>> phase_totals_;  // [socket][phase]
  BatchStats batch_stats_;

  /// Structure-of-arrays leap lanes, sized at construction
  /// (kLeapLanes doubles per socket, socket-major).  `acc` holds the
  /// gathered accumulator values, `inc` the per-tick increment of each
  /// lane; the leap loop is then a single flat `acc[j] += inc[j]` pass
  /// per tick over all sockets — vectorizable, allocation-free, and
  /// executing exactly the additions the stepped engine would.
  static constexpr std::size_t kLeapLanes = 11;
  std::vector<double> leap_acc_;
  std::vector<double> leap_inc_;
  /// Per-socket recorded tick power during a calm stretch — the exact
  /// value the stepped path would feed record_power().
  std::vector<double> stretch_v_;
  /// Flip bitmap of the current stretch chunk: bit k set when some
  /// socket flipped on the chunk's tick k.  kStretchChunk bits, all
  /// clear between chunks.
  std::vector<std::uint64_t> flip_bits_;
  bool started_ = false;
};

}  // namespace dufp::sim
