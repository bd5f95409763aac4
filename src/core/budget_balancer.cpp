#include "core/budget_balancer.h"

#include <algorithm>
#include <stdexcept>

#include "common/string_util.h"
#include "msr/registers.h"

namespace dufp::core {

double BalancerConfig::resolved_budget_w(std::size_t sockets) const {
  if (machine_budget_w > 0.0) return machine_budget_w;
  return max_cap_w * static_cast<double>(sockets);
}

std::vector<std::string> BalancerConfig::validate(std::size_t sockets) const {
  std::vector<std::string> problems;
  if (sockets < 1) problems.push_back("socket count must be >= 1");
  if (machine_budget_w < 0.0) {
    problems.push_back("machine_budget_w must be >= 0 (0 = derive)");
  }
  if (!(min_cap_w > 0.0)) {
    problems.push_back("min_cap_w must be positive");
  }
  if (min_cap_w > max_cap_w) {
    problems.push_back(strf("min_cap_w (%g) must be <= max_cap_w (%g)",
                            min_cap_w, max_cap_w));
  }
  const double floor = min_cap_w * static_cast<double>(sockets);
  if (sockets >= 1 && machine_budget_w > 0.0 && min_cap_w > 0.0 &&
      resolved_budget_w(sockets) < floor) {
    problems.push_back(
        strf("machine_budget_w (%g) must cover %zu sockets' floors "
             "(>= %g W)",
             machine_budget_w, sockets, floor));
  }
  if (!(smoothing > 0.0 && smoothing <= 1.0)) {
    problems.push_back("smoothing must be in (0, 1]");
  }
  if (base_weight < 0.0) {
    problems.push_back("base_weight must be >= 0");
  }
  return problems;
}

namespace {

[[noreturn]] void throw_config(const std::vector<std::string>& problems) {
  std::string msg = "BalancerConfig:";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    msg += (i == 0 ? " " : "; ") + problems[i];
  }
  throw std::invalid_argument(msg);
}

}  // namespace

BudgetBalancer::BudgetBalancer(const BalancerConfig& config,
                               std::vector<powercap::PackageZone*> zones,
                               std::vector<const msr::MsrDevice*> msrs,
                               double core_max_mhz, double core_base_mhz)
    : config_(config),
      zones_(std::move(zones)),
      msrs_(std::move(msrs)),
      core_max_mhz_(core_max_mhz),
      core_base_mhz_(core_base_mhz) {
  auto problems = config.validate(zones_.size());
  if (zones_.empty()) problems.push_back("zones must be non-empty");
  if (zones_.size() != msrs_.size()) {
    problems.push_back("zones and msrs must be index-aligned (same size)");
  }
  if (!(core_max_mhz > 0.0) || !(core_base_mhz > 0.0)) {
    problems.push_back("core_max_mhz and core_base_mhz must be positive");
  }
  if (!problems.empty()) throw_config(problems);
  config_.machine_budget_w = config.resolved_budget_w(zones_.size());

  const double equal =
      std::min(config_.max_cap_w,
               config_.machine_budget_w / static_cast<double>(zones_.size()));
  allocation_.assign(zones_.size(), equal);
  last_aperf_.assign(zones_.size(), 0);
  last_mperf_.assign(zones_.size(), 0);
}

void BudgetBalancer::set_machine_budget_w(double budget_w) {
  const double floor =
      config_.min_cap_w * static_cast<double>(zones_.size());
  if (budget_w < floor) {
    throw std::invalid_argument(
        strf("BudgetBalancer: new budget %g W is below the %zu sockets' "
             "floors (%g W)",
             budget_w, zones_.size(), floor));
  }
  config_.machine_budget_w = budget_w;
}

void BudgetBalancer::on_interval() {
  const std::size_t n = zones_.size();

  std::vector<double> freq_mhz(n, core_max_mhz_);
  for (std::size_t i = 0; i < n; ++i) {
    const auto aperf = msrs_[i]->read(0, msr::kIa32Aperf);
    const auto mperf = msrs_[i]->read(0, msr::kIa32Mperf);
    if (have_baseline_ && mperf > last_mperf_[i]) {
      const double da = static_cast<double>(aperf - last_aperf_[i]);
      const double dm = static_cast<double>(mperf - last_mperf_[i]);
      freq_mhz[i] = core_base_mhz_ * da / dm;
    }
    last_aperf_[i] = aperf;
    last_mperf_[i] = mperf;
  }
  if (!have_baseline_) {
    have_baseline_ = true;
    return;
  }
  ++intervals_;

  // Weight each socket by its frequency depression; the budget above the
  // per-socket floors is split proportionally.
  double weight_sum = 0.0;
  std::vector<double> weight(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double depression =
        std::max(0.0, (core_max_mhz_ - freq_mhz[i]) / core_max_mhz_);
    weight[i] = depression + config_.base_weight;
    weight_sum += weight[i];
  }

  const double spare =
      config_.machine_budget_w -
      config_.min_cap_w * static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    double target = config_.min_cap_w + spare * weight[i] / weight_sum;
    target = std::clamp(target, config_.min_cap_w, config_.max_cap_w);
    allocation_[i] = allocation_[i] * (1.0 - config_.smoothing) +
                     target * config_.smoothing;
    zones_[i]->set_power_limit_w(powercap::ConstraintId::long_term,
                                 allocation_[i]);
    zones_[i]->set_power_limit_w(powercap::ConstraintId::short_term,
                                 allocation_[i]);
  }
}

}  // namespace dufp::core
