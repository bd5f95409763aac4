// Allocation guard for the simulation hot path: the steady-state tick
// must perform ZERO heap allocations.  This is enforced, not aspired to —
// this binary replaces the global allocation functions with counting
// versions and asserts the count does not move across hundreds of
// step() calls that include phase transitions, listener firings, RAPL
// governor work, and periodic callbacks.
//
// The replacement is binary-local (which is why this test lives in its
// own executable, see tests/CMakeLists.txt) and forwards to malloc/free,
// so it composes with UBSan and TSan, which intercept at the malloc
// layer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "golden_util.h"
#include "powercap/zone.h"
#include "sim/simulation.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, std::align_val_t) {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace dufp::perf_test {
namespace {

TEST(AllocGuardTest, SteadyStateTickIsAllocationFree) {
  const auto profile = golden_profile();
  const harness::RunConfig cfg = golden_config(profile);
  sim::SimulationOptions opts = cfg.sim;
  opts.seed = cfg.seed;
  sim::Simulation s(cfg.machine, profile, opts);

  // Attach the hot-path consumers a real run wires up: a phase listener
  // (index-keyed, so it costs no strings) and a controller-style periodic
  // at the paper's interval.  Both bodies are allocation-free, like the
  // engine demands of its own tick.
  std::uint64_t transitions = 0;
  s.add_phase_listener([&](int, std::size_t phase_idx, bool entered) {
    transitions += phase_idx + (entered ? 1 : 0);
  });
  std::uint64_t intervals = 0;
  s.schedule_periodic(SimTime::from_millis(200),
                      [&](SimTime) { ++intervals; });

  // Warm-up: first tick announces phases, governor windows fill, lazy
  // library state (locale, gtest internals) settles.
  for (int i = 0; i < 50; ++i) s.step();

  // Measured window: 500 ticks = two full phase boundaries and two
  // periodic firings on the golden profile.
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 500; ++i) s.step();
  const std::uint64_t delta =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(delta, 0u)
      << "the steady-state simulation tick allocated " << delta
      << " times in 500 ticks — the hot path regressed";
  // The instrumented callbacks really ran inside the measured window.
  EXPECT_GT(transitions, 0u);
  EXPECT_GE(intervals, 2u);
}

TEST(AllocGuardTest, LeapAndStretchPathsAreAllocationFree) {
  // Same guard over the event-leaping engine: run() dispatches between
  // its two paths, the calm-tick stretch (fast_stretch) and the exact
  // stepper, and neither may touch the heap — the SoA lanes, the flip
  // bitmap and the governor's cell-edge ways are all sized at
  // construction.  An 85 W cap on every socket makes the
  // governors move their limits inside stretches, so the in-lane flip
  // ticks run under the guard too, and so do cold cell-edge builds: the
  // config's threshold table is built when the governor interns it, never
  // on the in-run path.  With no phase listener attached, the sockets
  // cross their entries as boundary ticks inside full stretch chunks.
  const auto profile = golden_profile();
  const harness::RunConfig cfg = golden_config(profile);
  sim::SimulationOptions opts = cfg.sim;
  opts.seed = cfg.seed;
  ASSERT_TRUE(opts.time_leap);
  sim::Simulation s(cfg.machine, profile, opts);
  for (int i = 0; i < s.socket_count(); ++i) {
    powercap::PackageZone zone(s.msr(i));
    zone.set_power_limit_w(powercap::ConstraintId::long_term, 85.0);
    zone.set_power_limit_w(powercap::ConstraintId::short_term, 85.0);
  }
  std::uint64_t intervals = 0;
  s.schedule_periodic(SimTime::from_millis(200),
                      [&](SimTime) { ++intervals; });

  // Warm-up as above, then let run() finish the workload through the
  // fast paths with the counter armed.  Every socket state a governor
  // meets for the first time after warm-up is a cold edge build.
  for (int i = 0; i < 50; ++i) s.step();
  const auto cold_builds = [&] {
    std::uint64_t n = 0;
    for (int i = 0; i < s.socket_count(); ++i) {
      n += s.rapl(i).governor().cell_stats().cold_builds;
    }
    return n;
  };
  const std::uint64_t builds_before = cold_builds();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  s.run();
  const std::uint64_t delta =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(delta, 0u)
      << "the leaping engine allocated " << delta
      << " times after warm-up — a fast path regressed";
  EXPECT_GT(cold_builds() - builds_before, 0u)
      << "the guard never saw a cold cell-edge build";
  const sim::BatchStats bs = s.batch_stats();
  EXPECT_GT(bs.leapt_ticks, 0) << "the guard never saw a fast-path tick";
  EXPECT_GT(bs.leaps, 0);
  EXPECT_GT(bs.flip_ticks, 0) << "the guard never saw a flip in a stretch";
  EXPECT_GT(bs.boundary_ticks, 0)
      << "the guard never saw a boundary tick in a stretch";
  EXPECT_GT(intervals, 0u);
}

TEST(AllocGuardTest, CountingHooksAreLive) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto* p = new int(7);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  delete p;
  EXPECT_GT(after, before) << "operator new replacement is not in effect; "
                              "the zero-allocation assertion above is void";
}

}  // namespace
}  // namespace dufp::perf_test
