// Unit tests for the process-wide shared cell-edge cache: interning,
// bit-pattern keying, first-writer-wins inserts, the enable gate,
// clear() semantics, and the per-config threshold tables.  The cache is a
// process singleton, so every test clears it first and restores the
// enable state it found — the suite must not leak warmth into (or absorb
// warmth from) neighbouring tests.
#include "rapl/cell_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "hwmodel/power_model.h"
#include "hwmodel/socket_config.h"

namespace dufp::rapl {
namespace {

class SharedCellCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = cache().enabled();
    cache().set_enabled(true);
    cache().clear();
  }
  void TearDown() override {
    cache().clear();
    cache().set_enabled(was_enabled_);
  }
  static SharedCellCache& cache() { return SharedCellCache::instance(); }

  bool was_enabled_ = false;
};

hw::PhaseDemand demand(double w_cpu = 0.5) {
  hw::PhaseDemand d;
  d.w_cpu = w_cpu;
  d.w_mem = 0.3;
  d.w_unc = 0.1;
  d.w_fixed = 1.0 - w_cpu - 0.3 - 0.1;
  d.flops_rate_ref = 30.0;
  d.bytes_rate_ref = 20.0;
  d.cpu_activity = 0.8;
  d.mem_activity = 0.6;
  d.idle = false;
  return d;
}

TEST_F(SharedCellCacheTest, InternIsStableAndDeduplicates) {
  const hw::SocketConfig a;
  const std::uint32_t id1 = cache().intern_config(a);
  const std::uint32_t id2 = cache().intern_config(a);
  EXPECT_EQ(id1, id2) << "identical configs must intern to one id";

  hw::SocketConfig b;
  b.power.static_w += 1.0;
  EXPECT_NE(cache().intern_config(b), id1)
      << "a power-model change must split the cache";

  // model_name is deliberately not part of the identity.
  hw::SocketConfig renamed;
  renamed.model_name = "same part, new sticker";
  EXPECT_EQ(cache().intern_config(renamed), id1);
}

TEST_F(SharedCellCacheTest, LookupMissThenInsertThenHit) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  const auto key =
      SharedCellCache::make_key(id, /*idx=*/3, 1200.0, 2400.0, demand());

  double edge = 0.0;
  EXPECT_FALSE(cache().lookup(key, &edge));
  cache().insert(key, 87.5);
  ASSERT_TRUE(cache().lookup(key, &edge));
  EXPECT_EQ(edge, 87.5);

  const auto s = cache().stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
}

TEST_F(SharedCellCacheTest, FirstWriterWins) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  const auto key =
      SharedCellCache::make_key(id, /*idx=*/1, 1200.0, 2400.0, demand());
  cache().insert(key, 50.0);
  cache().insert(key, 99.0);  // a racing build computed the same bits anyway
  double edge = 0.0;
  ASSERT_TRUE(cache().lookup(key, &edge));
  EXPECT_EQ(edge, 50.0);
  EXPECT_EQ(cache().stats().inserts, 1u);
}

TEST_F(SharedCellCacheTest, KeysAreBitPatternSensitive) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  // Any differing input word — the P-state index, the window, a demand
  // field, the idle flag — must produce a distinct key.
  const auto base =
      SharedCellCache::make_key(id, 2, 1200.0, 2400.0, demand(0.5));
  EXPECT_NE(base, SharedCellCache::make_key(id, 3, 1200.0, 2400.0,
                                            demand(0.5)));
  EXPECT_NE(base, SharedCellCache::make_key(id, 2, 1300.0, 2400.0,
                                            demand(0.5)));
  EXPECT_NE(base, SharedCellCache::make_key(id, 2, 1200.0, 2400.0,
                                            demand(0.6)));
  hw::PhaseDemand idle = demand(0.5);
  idle.idle = true;
  EXPECT_NE(base, SharedCellCache::make_key(id, 2, 1200.0, 2400.0, idle));
  // -0.0 and +0.0 compare equal as doubles but are different bit
  // patterns: the cache must treat them as distinct (conservative — a
  // duplicate build, never a wrong edge).
  EXPECT_NE(SharedCellCache::make_key(id, 2, 0.0, 2400.0, demand(0.5)),
            SharedCellCache::make_key(id, 2, -0.0, 2400.0, demand(0.5)));
}

TEST_F(SharedCellCacheTest, DisabledCacheServesNothing) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  const auto key =
      SharedCellCache::make_key(id, 4, 1200.0, 2400.0, demand());
  cache().set_enabled(false);
  cache().insert(key, 42.0);
  double edge = 0.0;
  EXPECT_FALSE(cache().lookup(key, &edge));
  cache().set_enabled(true);
  EXPECT_FALSE(cache().lookup(key, &edge))
      << "a disabled-era insert must have been dropped";
}

TEST_F(SharedCellCacheTest, ClearDropsEdgesButKeepsConfigIds) {
  const std::uint32_t id = cache().intern_config(hw::SocketConfig{});
  const double* thresholds = cache().scale_thresholds(id);
  const auto key =
      SharedCellCache::make_key(id, 5, 1200.0, 2400.0, demand());
  cache().insert(key, 13.0);
  cache().clear();
  double edge = 0.0;
  EXPECT_FALSE(cache().lookup(key, &edge));
  EXPECT_EQ(cache().stats().entries, 0u);
  // Interned ids survive a clear — governors hold them for the process
  // lifetime, and recycling one would alias configs under stale keys.
  EXPECT_EQ(cache().intern_config(hw::SocketConfig{}), id);
  // So do their threshold tables, which the enable gate does not touch.
  cache().set_enabled(false);
  EXPECT_EQ(cache().scale_thresholds(id), thresholds);
}

TEST_F(SharedCellCacheTest, ScaleThresholdsPinEachStatesFlip) {
  // Entry idx is the exact target scale where the floored inverse first
  // reaches state idx: it does at the threshold and not one ULP below.
  const hw::SocketConfig cfg;
  const hw::PowerModel model(cfg.power, cfg.cores, cfg.f_ref_mhz(),
                             cfg.fu_ref_mhz());
  const double* t = cache().scale_thresholds(cache().intern_config(cfg));
  const auto state_at = [&](double ts) {
    return floor_to_pstate_mhz(cfg, model.core_mhz_for_scale(ts));
  };
  EXPECT_EQ(t[0], -std::numeric_limits<double>::infinity());
  for (std::size_t idx = 1; idx < pstate_count(cfg); ++idx) {
    ASSERT_GT(t[idx], t[idx - 1]) << idx;
    ASSERT_LE(t[idx], 1.0) << idx;
    EXPECT_EQ(state_at(t[idx]), pstate_mhz(cfg, idx)) << idx;
    EXPECT_EQ(state_at(std::nextafter(t[idx], 0.0)), pstate_mhz(cfg, idx - 1))
        << idx;
  }
}

}  // namespace
}  // namespace dufp::rapl
