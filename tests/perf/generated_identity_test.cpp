// Generated-configuration differential test of the event-leaping engine
// (DESIGN.md §7b).  A seeded generator draws run configurations across
// every dimension the fast paths branch on, and each one must produce
// the same bytes with `time_leap` on as with it off:
//
//  * workload: the ten paper applications, or a synthetic phase graph
//    (workloads::generate_workload) whose entries last a few ticks;
//  * tick: 1, 2 or 5 ms; sockets: 1 to 16;
//  * controller: every registered policy or the uncontrolled baseline,
//    at a drawn tolerance;
//  * actuation: none, a static cap, a phase cap, or both, with or
//    without a fault storm;
//  * telemetry on or off; workload jitter 0 or > 0.
//
// Compared: the %.17g summary with the per-phase totals, agent and
// health counters, and the telemetry exports when telemetry is on.  The
// leap-on run must also classify exactly the ticks the leap-off run
// stepped.  A mismatch prints the whole drawn config.
//
// Tier-1 runs a fixed budget of draws.  The DISABLED_ twin runs a larger
// budget; tools/ci.sh enables it with --gtest_also_run_disabled_tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/policy_registry.h"
#include "golden_util.h"
#include "workloads/generator.h"
#include "workloads/profiles.h"

namespace dufp::perf_test {
namespace {

/// One drawn configuration.  `synthetic` owns a generated profile (null
/// when the config runs a paper application); `text` spells out every
/// drawn field.
struct DrawnConfig {
  std::unique_ptr<workloads::WorkloadProfile> synthetic;
  harness::RunConfig cfg;
  std::string text;
};

std::size_t draw_index(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_u64() % n);
}

template <typename T>
T pick(Rng& rng, const std::vector<T>& options) {
  return options[draw_index(rng, options.size())];
}

/// Draw `index` of the stream seeded `seed`; every draw forks its own
/// stream, so a config is reproducible from (seed, index) alone.  A
/// phase-cap storm forces a phase cap, a fault storm and telemetry: the
/// listener's MSR writes then inject faults stamped with the run clock.
DrawnConfig draw_config(std::uint64_t seed, std::uint64_t index,
                        bool phase_cap_storm) {
  Rng rng = Rng(seed).fork(index);
  DrawnConfig d;
  harness::RunConfig& cfg = d.cfg;
  d.text = strf("draw %llu of seed %llu\n",
                static_cast<unsigned long long>(index),
                static_cast<unsigned long long>(seed));

  if (rng.next_double() < 0.5) {
    const workloads::AppId app = pick(rng, workloads::all_apps());
    cfg.profile = &workloads::profile(app);
    d.text += "workload: paper app " + workloads::app_name(app) + "\n";
  } else {
    workloads::GeneratorSpec spec;
    spec.phase_count = 2 + static_cast<int>(draw_index(rng, 4));
    spec.sequence_length = 10 + static_cast<int>(draw_index(rng, 51));
    spec.min_phase_seconds = pick(rng, std::vector<double>{0.002, 0.005, 0.02});
    spec.max_phase_seconds = pick(rng, std::vector<double>{0.03, 0.12, 0.4});
    spec.memory_bound_fraction = rng.uniform(0.0, 1.0);
    Rng gen = rng.fork(0x6e6);
    d.synthetic = std::make_unique<workloads::WorkloadProfile>(
        workloads::generate_workload(spec, gen));
    cfg.profile = d.synthetic.get();
    d.text += strf(
        "workload: generate_workload(phases=%d, sequence=%d, "
        "entry=[%.17g, %.17g] s, memory_bound=%.17g), generator rng "
        "Rng(%llu).fork(%llu).fork(0x6e6)\n",
        spec.phase_count, spec.sequence_length, spec.min_phase_seconds,
        spec.max_phase_seconds, spec.memory_bound_fraction,
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(index));
  }

  cfg.machine.sockets = 1 + static_cast<int>(draw_index(rng, 16));
  cfg.sim.tick = SimTime::from_millis(pick(rng, std::vector<int>{1, 2, 5}));
  cfg.sim.workload_jitter_sigma =
      pick(rng, std::vector<double>{0.0, 0.0, 0.008, 0.03});
  cfg.seed = rng.next_u64() % 1000;

  std::vector<std::string> policies =
      core::PolicyRegistry::instance().names();
  policies.push_back("");  // the uncontrolled baseline
  cfg.policy_name = pick(rng, policies);
  cfg.tolerated_slowdown = pick(rng, std::vector<double>{0.02, 0.05, 0.1, 0.2});

  const int caps = phase_cap_storm ? 2 + static_cast<int>(draw_index(rng, 2))
                                   : static_cast<int>(draw_index(rng, 4));
  if (caps == 1 || caps == 3) cfg.static_cap_w = rng.uniform(65.0, 115.0);
  if (caps >= 2) {
    const auto& phases = cfg.profile->phases();
    cfg.phase_cap = harness::PhaseCapSpec{
        phases[draw_index(rng, phases.size())].name, rng.uniform(55.0, 100.0)};
  }
  if (phase_cap_storm || rng.next_double() < 0.35) {
    cfg.faults = faults::FaultOptions::storm(
        pick(rng, std::vector<double>{0.005, 0.015, 0.04}), rng.next_u64() % 100);
  }
  cfg.telemetry.enabled = phase_cap_storm || rng.next_double() < 0.5;

  d.text += strf(
      "sockets=%d tick=%lld us jitter=%.17g seed=%llu\n"
      "policy=\"%s\" tolerance=%.17g\n",
      cfg.machine.sockets, static_cast<long long>(cfg.sim.tick.micros()),
      cfg.sim.workload_jitter_sigma, static_cast<unsigned long long>(cfg.seed),
      cfg.policy_name.c_str(), cfg.tolerated_slowdown);
  d.text += cfg.static_cap_w.has_value()
                ? strf("static_cap_w=%.17g\n", *cfg.static_cap_w)
                : std::string("static_cap_w=none\n");
  d.text += cfg.phase_cap.has_value()
                ? strf("phase_cap=\"%s\" at %.17g W\n",
                       cfg.phase_cap->phase.c_str(), cfg.phase_cap->cap_w)
                : std::string("phase_cap=none\n");
  d.text += cfg.faults.enabled
                ? strf("faults=storm(%.17g, %llu)\n", cfg.faults.read_eio.rate,
                       static_cast<unsigned long long>(cfg.faults.seed))
                : std::string("faults=none\n");
  d.text += strf("telemetry=%s\n", cfg.telemetry.enabled ? "on" : "off");
  return d;
}

/// Where two byte strings first differ, with a little context.
std::string first_difference(const std::string& on, const std::string& off) {
  std::size_t i = 0;
  while (i < on.size() && i < off.size() && on[i] == off[i]) ++i;
  const std::size_t from = i > 80 ? i - 80 : 0;
  return strf("first difference at byte %zu of %zu / %zu\n  leap on:  ...%s\n"
              "  leap off: ...%s\n",
              i, on.size(), off.size(), on.substr(from, 160).c_str(),
              off.substr(from, 160).c_str());
}

/// Runs one drawn config leap-on and leap-off and compares them.
void expect_identical(const DrawnConfig& d) {
  harness::RunConfig cfg = d.cfg;
  cfg.sim.time_leap = true;
  const harness::RunResult on = harness::run_once(cfg);
  cfg.sim.time_leap = false;
  const harness::RunResult off = harness::run_once(cfg);

  EXPECT_EQ(off.batch_stats.leapt_ticks, 0) << d.text;
  EXPECT_EQ(on.batch_stats.leapt_ticks + on.batch_stats.stepped_ticks,
            off.batch_stats.stepped_ticks)
      << "the leap-on run classified a different tick count\n"
      << d.text;
  const std::string on_bytes = result_bytes(on);
  const std::string off_bytes = result_bytes(off);
  EXPECT_TRUE(on_bytes == off_bytes)
      << "event leaping changed the bytes of a generated config\n"
      << first_difference(on_bytes, off_bytes) << d.text;
}

/// `count` draws of stream `seed`, starting at draw `first`.
void run_draws(std::uint64_t seed, std::uint64_t first, std::uint64_t count,
               bool phase_cap_storm) {
  for (std::uint64_t i = first; i < first + count; ++i) {
    expect_identical(draw_config(seed, i, phase_cap_storm));
    if (::testing::Test::HasFailure()) return;  // one printed config is enough
  }
}

constexpr std::uint64_t kDrawSeed = 0x1ea9;
constexpr std::uint64_t kStormSeed = 0x570a;
constexpr std::uint64_t kTier1Draws = 60;
constexpr std::uint64_t kTier1Storms = 12;

TEST(GeneratedLeapIdentityTest, DrawnConfigsBytesIdentical) {
  run_draws(kDrawSeed, 0, kTier1Draws, /*phase_cap_storm=*/false);
}

TEST(GeneratedLeapIdentityTest, PhaseCapStormsBytesIdentical) {
  run_draws(kStormSeed, 0, kTier1Storms, /*phase_cap_storm=*/true);
}

// The larger budget: the draws after the tier-1 ones, about ten times as
// many.
TEST(GeneratedLeapIdentityTest, DISABLED_LargerBudgetBytesIdentical) {
  run_draws(kDrawSeed, kTier1Draws, 10 * kTier1Draws,
            /*phase_cap_storm=*/false);
  run_draws(kStormSeed, kTier1Storms, 10 * kTier1Storms,
            /*phase_cap_storm=*/true);
}

}  // namespace
}  // namespace dufp::perf_test
