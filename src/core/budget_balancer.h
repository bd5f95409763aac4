// Machine-level power budget distribution across sockets — the
// GEOPM/DAPS family of the paper's related work (Sec. VI: "power budget
// allocation strategies across nodes ... complementary to DUFP").
//
// Given a machine-wide budget below the sum of the per-socket defaults,
// the balancer periodically redistributes it: each socket's share follows
// its *frequency depression* (how far its measured clock sits below the
// all-core maximum — read from APERF/MPERF), so throttled sockets receive
// budget that under-consuming sockets are not using.  Per-socket caps are
// written through the same powercap zones DUFP uses, which makes the
// balancer composable with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "msr/device.h"
#include "powercap/zone.h"

namespace dufp::core {

struct BalancerConfig {
  /// Total budget across all sockets.  The default 0 is a sentinel:
  /// "derive from the machine", i.e. max_cap_w x socket-count — the
  /// uncapped machine — so a config built for any socket count starts
  /// valid instead of inheriting a 4-socket magic number.
  double machine_budget_w = 0.0;
  double min_cap_w = 65.0;   ///< per-socket floor
  double max_cap_w = 125.0;  ///< per-socket ceiling (hw default)
  /// Exponential smoothing of the allocation (0 = frozen, 1 = jumpy).
  double smoothing = 0.5;
  /// Extra weight floor so an idle socket keeps a live allocation.
  double base_weight = 0.1;

  /// `machine_budget_w` with the sentinel resolved for `sockets`.
  double resolved_budget_w(std::size_t sockets) const;

  /// Every problem found for a machine of `sockets` sockets (empty =
  /// valid), house aggregated-error style: min/max caps ordered, budget
  /// >= sockets x min_cap_w, smoothing in (0, 1], base_weight >= 0.
  std::vector<std::string> validate(std::size_t sockets) const;
};

class BudgetBalancer {
 public:
  /// `zones` and `msrs` are index-aligned per socket (non-owning; must
  /// outlive the balancer).  `core_max_mhz` / `core_base_mhz` describe
  /// the machine (frequency depression is measured against the former).
  BudgetBalancer(const BalancerConfig& config,
                 std::vector<powercap::PackageZone*> zones,
                 std::vector<const msr::MsrDevice*> msrs,
                 double core_max_mhz, double core_base_mhz);

  /// One balancing interval: measure per-socket clocks, recompute the
  /// split, program the caps.  The first call only establishes counter
  /// baselines.
  void on_interval();

  /// Current allocation (watts per socket).
  const std::vector<double>& allocation_w() const { return allocation_; }

  /// Rebudgets the machine mid-run (fleet-level reallocation moves the
  /// node budget between balancing intervals).  Existing allocations are
  /// kept and drift toward the new split under the usual smoothing.
  /// Throws std::invalid_argument when the new budget is below
  /// sockets x min_cap_w.
  void set_machine_budget_w(double budget_w);

  double machine_budget_w() const { return config_.machine_budget_w; }

  /// Balancing intervals that redistributed the budget.
  std::uint64_t intervals() const { return intervals_; }

 private:
  BalancerConfig config_;
  std::vector<powercap::PackageZone*> zones_;
  std::vector<const msr::MsrDevice*> msrs_;
  double core_max_mhz_;
  double core_base_mhz_;

  bool have_baseline_ = false;
  std::vector<std::uint64_t> last_aperf_;
  std::vector<std::uint64_t> last_mperf_;
  std::vector<double> allocation_;
  std::uint64_t intervals_ = 0;
};

}  // namespace dufp::core
