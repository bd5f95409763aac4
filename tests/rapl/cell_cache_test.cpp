// Unit tests for the per-config threshold tables: interning and the
// pinned flips.
#include "rapl/cell_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "hwmodel/power_model.h"
#include "hwmodel/socket_config.h"

namespace dufp::rapl {
namespace {

SharedCellCache& cache() { return SharedCellCache::instance(); }

TEST(SharedCellCacheTest, InternIsStableAndDeduplicates) {
  const hw::SocketConfig a;
  const double* t1 = cache().scale_thresholds(a);
  const double* t2 = cache().scale_thresholds(a);
  EXPECT_EQ(t1, t2) << "identical configs must share one table";

  hw::SocketConfig b;
  b.power.static_w += 1.0;
  EXPECT_NE(cache().scale_thresholds(b), t1)
      << "a power-model change must get its own table";

  // model_name is deliberately not part of the identity.
  hw::SocketConfig renamed;
  renamed.model_name = "same part, new sticker";
  EXPECT_EQ(cache().scale_thresholds(renamed), t1);
}

TEST(SharedCellCacheTest, ScaleThresholdsPinEachStatesFlip) {
  // Entry idx is the exact target scale where the floored inverse first
  // reaches state idx: it does at the threshold and not one ULP below.
  const hw::SocketConfig cfg;
  const hw::PowerModel model(cfg.power, cfg.cores, cfg.f_ref_mhz(),
                             cfg.fu_ref_mhz());
  const double* t = cache().scale_thresholds(cfg);
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
