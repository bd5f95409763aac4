// Entry boundaries inside the calm stretch (DESIGN.md §7b): a socket
// whose sequence entry ends takes a boundary tick through the exact
// per-socket path while the other sockets stay in their lanes, so only
// the periodics, the watchdog and the run end bound a stretch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "harness/runner.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "workloads/profiles.h"

namespace dufp::sim {
namespace {

// A DUFP run of a phase-structured application crosses hundreds of
// entries per socket.  None of them may stop the machine: the engine
// takes a lone exact tick only where a controller fires or at the very
// end of the run (the last few ticks before the final one).  A stretch
// that stops the machine at every entry boundary takes thousands of such
// ticks here (LU ~4,700, MG ~4,600), so the ceiling tells the two apart.
TEST(BoundaryTickTest, EntryBoundariesDoNotStopTheMachine) {
  for (const workloads::AppId app :
       {workloads::AppId::lu, workloads::AppId::mg}) {
    harness::RunConfig cfg;
    cfg.profile = &workloads::profile(app);
    cfg.machine.sockets = 4;
    cfg.policy_name = "DUFP";
    cfg.tolerated_slowdown = 0.10;
    cfg.seed = 1;
    harness::PreparedRun run = harness::prepare_run(cfg);
    Simulation& s = run.simulation();

    const std::int64_t tick_us = cfg.sim.tick.micros();
    const std::int64_t interval_us = cfg.policy.interval.micros();
    std::int64_t lone_ticks = 0;
    for (bool more = true; more;) {
      const std::int64_t before = s.now().micros();
      more = s.advance_once();
      const std::int64_t after = s.now().micros();
      if (after - before == tick_us && after % interval_us != 0) {
        ++lone_ticks;
      }
    }
    EXPECT_LE(lone_ticks, 16)
        << workloads::app_name(app)
        << ": entry boundaries stopped the whole machine";
    EXPECT_GT(s.batch_stats().boundary_ticks, 0)
        << workloads::app_name(app) << ": no socket took a boundary tick";
  }
}

// ---------------------------------------------------------------------------
// The run end and the demand residue.
//
// A 15.625 ms tick is 2^-6 s, and phases whose weights are dyadic and sum
// to exactly 1 run at speed exactly 1.0 uncapped, so every progress sum
// is exact and an entry of k ticks' nominal length ends exactly on a tick
// boundary.  The stepper then finishes the tick still holding the old
// phase's demand and re-applies the new one on the next tick: a demand
// residue.  Socket 0 crosses two entries that way mid-run and then
// finishes that way while socket 1 keeps running, so the stretch must
// carry socket 0 through an exact tick that idles it.

constexpr std::int64_t kDyadicTickUs = 15625;

workloads::PhaseSpec dyadic_phase(const char* name, double seconds,
                                  double gflops, double oi) {
  workloads::PhaseSpec p;
  p.name = name;
  p.nominal_seconds = seconds;
  p.gflops_ref = gflops;
  p.oi = oi;
  p.w_cpu = 0.5;
  p.w_mem = 0.25;
  p.w_unc = 0.125;
  p.w_fixed = 0.125;
  p.cpu_activity = 0.5;
  p.mem_activity = 0.3;
  return p;
}

/// Socket 0: entries of 8, 6 and 8 ticks; the run's end for it is tick 22.
workloads::WorkloadProfile tick_aligned_profile() {
  workloads::WorkloadProfile w("tick-aligned", "entries end on tick edges");
  w.add_phase(dyadic_phase("lo", 8 * 0.015625, 10.0, 2.0));
  w.add_phase(dyadic_phase("hi", 6 * 0.015625, 30.0, 4.0));
  w.then("lo").then("hi").then("lo");
  return w;
}

/// Socket 1: about 1.5 s of alternating entries that end mid-tick.
workloads::WorkloadProfile long_profile() {
  workloads::WorkloadProfile w("long", "outlives the tick-aligned socket");
  w.add_phase(dyadic_phase("c", 0.1, 20.0, 1.0));
  w.add_phase(dyadic_phase("d", 0.15, 40.0, 8.0));
  w.loop(6, {"c", "d"});
  return w;
}

std::string summary_bytes(Simulation& s, const RunSummary& sum) {
  std::string out = strf(
      "exec=%.17g pkg=%.17g dram=%.17g gflop=%.17g gbytes=%.17g\n",
      sum.exec_seconds, sum.pkg_energy_j, sum.dram_energy_j, sum.total_gflop,
      sum.total_gbytes);
  for (int i = 0; i < s.socket_count(); ++i) {
    for (const PhaseTotals& t : s.phase_totals(i)) {
      out += strf("socket=%d wall=%.17g pkg=%.17g dram=%.17g\n", i,
                  t.wall_seconds, t.pkg_energy_j, t.dram_energy_j);
    }
  }
  return out;
}

std::string trace_bytes(const VectorTraceSink& sink) {
  std::string out;
  for (const auto& e : sink.entries()) {
    out += strf("t=%lld", static_cast<long long>(e.time.micros()));
    for (const TickRecord& r : e.sockets) {
      out += strf(" [%a %a %a %a %a %a %a %a]", r.core_mhz, r.uncore_mhz,
                  r.pkg_power_w, r.dram_power_w, r.cap_long_w, r.cap_short_w,
                  r.flops_grate, r.speed);
    }
    out += "\n";
  }
  return out;
}

struct Outcome {
  std::string bytes;
  BatchStats stats;
  int mid_run_residues = 0;  ///< residues of socket 0 while unfinished
  int finish_residues = 0;   ///< residues of socket 0 once finished
};

/// One run of the two-socket machine; with `traced` the bytes include
/// every trace row.  A leap-off run is stepped here tick by tick so the
/// residues socket 0 leaves between ticks can be counted.
Outcome run_two_sockets(bool leap, bool traced) {
  const workloads::WorkloadProfile aligned = tick_aligned_profile();
  const workloads::WorkloadProfile longer = long_profile();
  hw::MachineConfig m;
  m.sockets = 2;
  SimulationOptions o;
  o.tick = SimTime{kDyadicTickUs};
  o.workload_jitter_sigma = 0.0;
  o.seed = 5;
  o.time_leap = leap;
  Simulation s(m, std::vector<const workloads::WorkloadProfile*>{&aligned,
                                                                 &longer},
               o);
  VectorTraceSink sink;
  if (traced) s.set_trace_sink(&sink);

  Outcome out;
  if (leap) {
    while (s.advance_once()) {
    }
  } else {
    while (s.step()) {
      if (!(s.workload(0).current_demand() == s.socket(0).demand())) {
        ++(s.workload(0).finished() ? out.finish_residues
                                    : out.mid_run_residues);
      }
    }
  }
  out.bytes = summary_bytes(s, s.summarize());
  if (traced) out.bytes += trace_bytes(sink);
  out.stats = s.batch_stats();
  return out;
}

TEST(BoundaryTickTest, RunEndAndDemandResidueBytesIdentical) {
  for (const bool traced : {false, true}) {
    const Outcome off = run_two_sockets(/*leap=*/false, traced);
    const Outcome on = run_two_sockets(/*leap=*/true, traced);

    // The cases really happened: socket 0 crossed its two mid-run entries
    // and its end exactly on tick edges, ending its last tick still
    // holding its last phase's demand.
    EXPECT_EQ(off.mid_run_residues, 2);
    EXPECT_EQ(off.finish_residues, 1);
    // ... and the stretch met them with socket 1 still running.
    EXPECT_GT(on.stats.leapt_ticks, 22);
    EXPECT_GT(on.stats.boundary_ticks, 0);

    EXPECT_EQ(on.stats.leapt_ticks + on.stats.stepped_ticks,
              off.stats.stepped_ticks);
    EXPECT_EQ(on.bytes, off.bytes)
        << "a tick-aligned entry end changed the bytes (traced=" << traced
        << ")";
  }
}

}  // namespace
}  // namespace dufp::sim
