#include "fleet/node_run.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/expect.h"
#include "common/string_util.h"
#include "core/budget_balancer.h"
#include "faults/fault_plan.h"
#include "harness/control_plane.h"
#include "harness/plan.h"
#include "msr/device.h"
#include "sim/simulation.h"
#include "workloads/profiles.h"

namespace dufp::fleet {

namespace {

using json::Value;

Value hex(double v) { return Value::make_string(json::double_to_hex(v)); }
double unhex(const Value& v) { return json::hex_to_double(v.as_string()); }

/// The time-weighted mean of an app's phase sequence: one PhaseSpec that
/// consumes the same FLOPs, bytes and actuator sensitivity per second as
/// the whole application does on average.  The epoch phases are scaled
/// copies of this.
workloads::PhaseSpec mean_phase(const workloads::WorkloadProfile& app) {
  workloads::PhaseSpec mean;
  mean.gflops_ref = 0.0;
  mean.oi = 0.0;
  mean.w_cpu = mean.w_mem = mean.w_unc = mean.w_fixed = 0.0;
  mean.cpu_activity = mean.mem_activity = 0.0;
  double total = 0.0;
  double bytes_rate = 0.0;
  for (const std::size_t idx : app.sequence()) {
    const workloads::PhaseSpec& p = app.phase(idx);
    const double w = p.nominal_seconds;
    total += w;
    mean.gflops_ref += w * p.gflops_ref;
    bytes_rate += w * p.bytes_rate_ref_gbps();
    mean.w_cpu += w * p.w_cpu;
    mean.w_mem += w * p.w_mem;
    mean.w_unc += w * p.w_unc;
    mean.w_fixed += w * p.w_fixed;
    mean.cpu_activity += w * p.cpu_activity;
    mean.mem_activity += w * p.mem_activity;
  }
  mean.gflops_ref /= total;
  bytes_rate /= total;
  // Mean OI is the ratio of the mean rates, not the mean of ratios —
  // that keeps total FLOPs and total bytes both faithful.
  mean.oi = mean.gflops_ref / bytes_rate;
  mean.w_cpu /= total;
  mean.w_mem /= total;
  mean.w_unc /= total;
  mean.w_fixed /= total;
  mean.cpu_activity /= total;
  mean.mem_activity /= total;
  // The convex combination sums to 1 only up to rounding; PhaseSpec
  // validates at 1e-6, so renormalize exactly.
  const double wsum = mean.w_cpu + mean.w_mem + mean.w_unc + mean.w_fixed;
  mean.w_cpu /= wsum;
  mean.w_mem /= wsum;
  mean.w_unc /= wsum;
  mean.w_fixed /= wsum;
  return mean;
}

/// One phase per epoch, each the mean phase scaled by that epoch's
/// traffic intensity: demand (FLOP rate) swings over [0.2x, 1.0x] and
/// the activity factors over [0.5x, 1.0x], so an idle epoch draws
/// noticeably less power but never models a fully powered-off node.
workloads::WorkloadProfile node_profile(const FleetSpec& spec,
                                        std::size_t node,
                                        const AllocationPlan& plan) {
  const workloads::WorkloadProfile& app = workloads::profile(spec.app);
  const workloads::PhaseSpec mean = mean_phase(app);
  workloads::WorkloadProfile out(
      strf("%s-fleet", app.name().c_str()),
      strf("%s scaled by fleet traffic, one phase per epoch",
           app.name().c_str()));
  for (int e = 0; e < spec.epochs; ++e) {
    const double intensity =
        plan.node_intensity[static_cast<std::size_t>(e)][node];
    workloads::PhaseSpec p = mean;
    p.name = strf("e%d", e);
    p.nominal_seconds = spec.epoch_seconds;
    p.gflops_ref = mean.gflops_ref * (0.2 + 0.8 * intensity);
    const double act = 0.5 + 0.5 * intensity;
    p.cpu_activity = mean.cpu_activity * act;
    p.mem_activity = mean.mem_activity * act;
    out.add_phase(p);
    out.then(p.name);
  }
  return out;
}

}  // namespace

json::Value encode_node_result(const FleetNodeResult& result) {
  Value o = Value::make_object();
  Value epochs = Value::make_array();
  for (const EpochRecord& e : result.epochs) {
    Value rec = Value::make_object();
    rec.add("alloc_w", hex(e.alloc_w));
    rec.add("demand_w", hex(e.demand_w));
    rec.add("intensity", hex(e.intensity));
    rec.add("wall_seconds", hex(e.wall_seconds));
    rec.add("pkg_energy_j", hex(e.pkg_energy_j));
    rec.add("dram_energy_j", hex(e.dram_energy_j));
    epochs.push_back(std::move(rec));
  }
  o.add("epochs", std::move(epochs));
  o.add("exec_seconds", hex(result.exec_seconds));
  o.add("pkg_energy_j", hex(result.pkg_energy_j));
  o.add("dram_energy_j", hex(result.dram_energy_j));
  o.add("avg_speed", hex(result.avg_speed));
  o.add("faults_injected", Value::make_u64(result.faults_injected));
  o.add("degradations", Value::make_u64(result.degradations));
  return o;
}

FleetNodeResult decode_node_result(const json::Value& v) {
  FleetNodeResult result;
  for (const Value& rec : v.at("epochs").as_array()) {
    EpochRecord e;
    e.alloc_w = unhex(rec.at("alloc_w"));
    e.demand_w = unhex(rec.at("demand_w"));
    e.intensity = unhex(rec.at("intensity"));
    e.wall_seconds = unhex(rec.at("wall_seconds"));
    e.pkg_energy_j = unhex(rec.at("pkg_energy_j"));
    e.dram_energy_j = unhex(rec.at("dram_energy_j"));
    result.epochs.push_back(e);
  }
  result.exec_seconds = unhex(v.at("exec_seconds"));
  result.pkg_energy_j = unhex(v.at("pkg_energy_j"));
  result.dram_energy_j = unhex(v.at("dram_energy_j"));
  result.avg_speed = unhex(v.at("avg_speed"));
  result.faults_injected = v.at("faults_injected").as_u64();
  result.degradations = v.at("degradations").as_u64();
  return result;
}

/// Everything a prepared node run owns.  Heap-held behind the pimpl so
/// every address captured during wiring (profile, balancer, zones, the
/// budget schedule) stays stable for the simulation's lifetime.
struct PreparedFleetNode::Impl {
  workloads::WorkloadProfile profile{"fleet-node-placeholder", ""};
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<harness::ControlPlane> plane;
  std::unique_ptr<core::BudgetBalancer> balancer;

  /// Per-epoch node budgets, already floored — the epoch clock reads
  /// these, so the AllocationPlan itself need not outlive prepare.
  std::vector<double> budgets;

  /// Result skeleton with the plan columns (alloc/demand/intensity)
  /// copied in at prepare time; finish() fills the simulated fields.
  FleetNodeResult result;
  int epochs = 0;
  bool finished = false;
};

PreparedFleetNode::PreparedFleetNode(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
PreparedFleetNode::PreparedFleetNode(PreparedFleetNode&&) noexcept = default;
PreparedFleetNode& PreparedFleetNode::operator=(PreparedFleetNode&&) noexcept =
    default;
PreparedFleetNode::~PreparedFleetNode() = default;

sim::Simulation& PreparedFleetNode::simulation() { return *impl_->sim; }

FleetNodeResult run_fleet_node(const FleetSpec& spec, std::size_t node,
                               const AllocationPlan& plan, bool time_leap) {
  PreparedFleetNode prepared = prepare_fleet_node(spec, node, plan, time_leap);
  prepared.simulation().run();
  return prepared.finish();
}

PreparedFleetNode prepare_fleet_node(const FleetSpec& spec, std::size_t node,
                                     const AllocationPlan& plan,
                                     bool time_leap) {
  {
    const auto problems = spec.validate();
    if (!problems.empty()) {
      std::string msg = "run_fleet_node: invalid spec:";
      for (std::size_t i = 0; i < problems.size(); ++i) {
        msg += (i == 0 ? " " : "; ") + problems[i];
      }
      throw std::invalid_argument(msg);
    }
  }
  if (node >= spec.topology.node_count()) {
    throw std::invalid_argument(
        strf("run_fleet_node: node %zu out of range (fleet has %zu nodes)",
             node, spec.topology.node_count()));
  }

  const int sockets = spec.topology.sockets_per_node;
  const double node_floor =
      spec.min_cap_w * static_cast<double>(sockets);

  hw::MachineConfig machine;
  machine.sockets = sockets;

  auto impl = std::make_unique<PreparedFleetNode::Impl>();
  impl->epochs = spec.epochs;
  impl->profile = node_profile(spec, node, plan);
  const workloads::WorkloadProfile& profile = impl->profile;

  sim::SimulationOptions sim_opts;
  sim_opts.seed = harness::job_seed(spec.seed, static_cast<int>(node));
  // Phases must map 1:1 onto epochs for the per-epoch accounting below,
  // so the per-entry duration jitter is off; run-to-run variation enters
  // through the traffic model and sampler noise instead.
  sim_opts.workload_jitter_sigma = 0.0;
  sim_opts.max_seconds = std::max(
      60.0, static_cast<double>(spec.epochs) * spec.epoch_seconds * 100.0);
  sim_opts.time_leap = time_leap;

  impl->sim = std::make_unique<sim::Simulation>(machine, profile, sim_opts);
  sim::Simulation& s = *impl->sim;
  const int n = s.socket_count();

  // The same per-socket wiring as harness::prepare_run, telemetry off.
  faults::FaultOptions fault_opts;
  if (spec.fault_rate > 0.0) {
    fault_opts = faults::FaultOptions::storm(spec.fault_rate, spec.fault_seed);
  }
  impl->plane = std::make_unique<harness::ControlPlane>(s, fault_opts,
                                                        sim_opts.seed, nullptr);
  harness::ControlPlane& plane = *impl->plane;

  // The node-level balancer splits the node budget among its sockets.
  // It reads the *clean* MSRs: its APERF/MPERF sampling models an
  // out-of-band management path (a BMC), and a faulted read escaping a
  // periodic callback would abort the run.
  // The budget schedule, already floored: the epoch clock reads this
  // copy, so neither the plan nor the spec must outlive prepare.  The
  // max() guards the balancer's floor check against the contract's 1e-9
  // bound slack.
  impl->budgets.reserve(static_cast<std::size_t>(spec.epochs));
  for (int e = 0; e < spec.epochs; ++e) {
    impl->budgets.push_back(
        std::max(plan.node_w[static_cast<std::size_t>(e)][node], node_floor));
  }

  core::BalancerConfig bal_cfg;
  bal_cfg.min_cap_w = spec.min_cap_w;
  bal_cfg.max_cap_w = spec.max_cap_w;
  bal_cfg.machine_budget_w = impl->budgets[0];
  std::vector<powercap::PackageZone*> bal_zones;
  std::vector<const msr::MsrDevice*> bal_msrs;
  for (int i = 0; i < n; ++i) {
    bal_zones.push_back(&plane.zone(i));
    bal_msrs.push_back(&s.msr(i));
  }
  impl->balancer = std::make_unique<core::BudgetBalancer>(
      bal_cfg, std::move(bal_zones), std::move(bal_msrs),
      machine.socket.core_max_mhz, machine.socket.core_base_mhz);
  core::BudgetBalancer* balancer = impl->balancer.get();
  // Best effort under fault injection (same stance as run_once's
  // phase-cap listener): the balancer's cap writes go through the faulty
  // zones, and a faulted rebalance tick is skipped — the sockets keep
  // their previous caps until the next tick — rather than crashing the
  // node.
  s.schedule_periodic(SimTime::from_millis(200), [balancer](SimTime now) {
    try {
      balancer->on_interval(now);
    } catch (const msr::MsrError&) {
    }
  });

  // The epoch clock: at each boundary, move the node's cap to the next
  // entry of the schedule.  Once the schedule is exhausted (the node
  // overran its nominal wall time under throttling) the last budget
  // holds.
  {
    auto epoch = std::make_shared<int>(0);
    const std::vector<double>* budgets = &impl->budgets;
    s.schedule_periodic(SimTime::from_seconds(spec.epoch_seconds),
                        [epoch, budgets, balancer](SimTime) {
                          ++*epoch;
                          if (static_cast<std::size_t>(*epoch) <
                              budgets->size()) {
                            balancer->set_machine_budget_w(
                                (*budgets)[static_cast<std::size_t>(*epoch)]);
                          }
                        });
  }

  // Per-socket agents under the fleet's policy.
  core::PolicyConfig policy;
  policy.tolerated_slowdown = spec.tolerated_slowdown;
  policy.min_cap_w = spec.min_cap_w;
  plane.start(spec.policy, policy, /*sampler_noise_sigma=*/0.001);

  // The plan columns the result reports verbatim, copied now so finish()
  // needs nothing beyond the Impl.
  impl->result.epochs.resize(static_cast<std::size_t>(spec.epochs));
  for (int e = 0; e < spec.epochs; ++e) {
    const auto ei = static_cast<std::size_t>(e);
    EpochRecord& rec = impl->result.epochs[ei];
    rec.alloc_w = plan.node_w[ei][node];
    rec.demand_w = plan.node_demand_w[ei][node];
    rec.intensity = plan.node_intensity[ei][node];
  }

  return PreparedFleetNode(std::move(impl));
}

FleetNodeResult PreparedFleetNode::finish() {
  Impl& impl = *impl_;
  DUFP_EXPECT(!impl.finished);
  impl.finished = true;
  sim::Simulation& s = *impl.sim;
  DUFP_EXPECT(s.finished());
  const sim::RunSummary summary = s.summarize();

  FleetNodeResult result = std::move(impl.result);
  const int n = s.socket_count();
  const auto epochs = static_cast<std::size_t>(impl.epochs);
  for (int i = 0; i < n; ++i) {
    const auto& totals = s.phase_totals(i);
    for (std::size_t ei = 0; ei < epochs; ++ei) {
      EpochRecord& rec = result.epochs[ei];
      // Sockets run the epoch in parallel; the epoch is as slow as its
      // slowest socket.
      rec.wall_seconds = std::max(rec.wall_seconds, totals[ei].wall_seconds);
      rec.pkg_energy_j += totals[ei].pkg_energy_j;
      rec.dram_energy_j += totals[ei].dram_energy_j;
    }
  }
  result.exec_seconds = summary.exec_seconds;
  result.pkg_energy_j = summary.pkg_energy_j;
  result.dram_energy_j = summary.dram_energy_j;
  result.avg_speed = summary.exec_seconds > 0.0
                         ? impl.profile.nominal_total_seconds() /
                               summary.exec_seconds
                         : 0.0;
  for (const auto& agent : impl.plane->agents()) {
    result.degradations += agent->stats().health.degradations;
  }
  for (const auto& p : impl.plane->fault_plans()) {
    result.faults_injected += p->stats().total();
  }
  return result;
}

std::vector<FleetNodeResult> run_fleet_nodes(
    const FleetSpec& spec, const std::vector<std::size_t>& nodes,
    const AllocationPlan& plan, bool time_leap) {
  std::vector<FleetNodeResult> results;
  results.reserve(nodes.size());
  for (const std::size_t node : nodes) {
    results.push_back(run_fleet_node(spec, node, plan, time_leap));
  }
  return results;
}

}  // namespace dufp::fleet
