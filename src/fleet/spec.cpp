#include "fleet/spec.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/string_util.h"
#include "core/policy_registry.h"
#include "fleet/allocator.h"
#include "fleet/traffic.h"
#include "harness/wire.h"

namespace dufp::fleet {

namespace {

using json::Value;

Value raw_double(double v) { return Value::make_raw_number(strf("%.17g", v)); }

}  // namespace

double FleetSpec::resolved_budget_w() const {
  if (global_budget_w > 0.0) return global_budget_w;
  return max_cap_w * static_cast<double>(topology.socket_count());
}

json::Value FleetSpec::to_json() const {
  Value o = Value::make_object();
  o.add("format", Value::make_string(kFleetSpecFormat));
  o.add("version", Value::make_i64(harness::kShardDocumentVersion));
  o.add("name", Value::make_string(name));
  o.add("racks", Value::make_i64(topology.racks));
  o.add("nodes_per_rack", Value::make_i64(topology.nodes_per_rack));
  o.add("sockets_per_node", Value::make_i64(topology.sockets_per_node));
  o.add("allocator", Value::make_string(allocator));
  o.add("global_budget_w", raw_double(global_budget_w));
  o.add("epochs", Value::make_i64(epochs));
  o.add("epoch_seconds", raw_double(epoch_seconds));
  o.add("traffic", Value::make_string(traffic_profile));
  o.add("traffic_seed", Value::make_u64(traffic_seed));
  o.add("seed", Value::make_u64(seed));
  o.add("app", Value::make_string(workloads::app_name(app)));
  o.add("policy", Value::make_string(policy));
  o.add("tolerance", raw_double(tolerated_slowdown));
  o.add("min_cap_w", raw_double(min_cap_w));
  o.add("max_cap_w", raw_double(max_cap_w));
  o.add("fault_rate", raw_double(fault_rate));
  o.add("fault_seed", Value::make_u64(fault_seed));
  return o;
}

std::string FleetSpec::canonical_text() const { return to_json().dump(); }

std::uint64_t FleetSpec::fingerprint() const {
  return json::fnv1a(canonical_text());
}

FleetSpec FleetSpec::from_json(const json::Value& v) {
  if (v.at("format").as_string() != kFleetSpecFormat) {
    throw harness::ShardFormatError(
        "FleetSpec: not a " + std::string(kFleetSpecFormat) + " document");
  }
  if (v.at("version").as_i64() != harness::kShardDocumentVersion) {
    throw harness::ShardFormatError(
        strf("FleetSpec: unsupported version %lld (this build speaks %d)",
             static_cast<long long>(v.at("version").as_i64()),
             harness::kShardDocumentVersion));
  }
  FleetSpec spec;
  spec.name = v.at("name").as_string();
  spec.topology.racks = static_cast<int>(v.at("racks").as_i64());
  spec.topology.nodes_per_rack =
      static_cast<int>(v.at("nodes_per_rack").as_i64());
  spec.topology.sockets_per_node =
      static_cast<int>(v.at("sockets_per_node").as_i64());
  spec.allocator = v.at("allocator").as_string();
  spec.global_budget_w = v.at("global_budget_w").as_double();
  spec.epochs = static_cast<int>(v.at("epochs").as_i64());
  spec.epoch_seconds = v.at("epoch_seconds").as_double();
  spec.traffic_profile = v.at("traffic").as_string();
  spec.traffic_seed = v.at("traffic_seed").as_u64();
  spec.seed = v.at("seed").as_u64();
  spec.app = workloads::app_by_name(v.at("app").as_string());
  spec.policy = v.at("policy").as_string();
  spec.tolerated_slowdown = v.at("tolerance").as_double();
  spec.min_cap_w = v.at("min_cap_w").as_double();
  spec.max_cap_w = v.at("max_cap_w").as_double();
  spec.fault_rate = v.at("fault_rate").as_double();
  spec.fault_seed = v.at("fault_seed").as_u64();

  const auto problems = spec.validate();
  if (!problems.empty()) {
    std::string msg = "FleetSpec: invalid spec:";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      msg += (i == 0 ? " " : "; ") + problems[i];
    }
    throw harness::ShardFormatError(msg);
  }
  // Canonicalize alias/case spellings so CSV labels, telemetry labels
  // and re-serialized specs all use the registry names.
  spec.allocator = FleetAllocatorRegistry::instance().at(spec.allocator).name;
  spec.policy = core::PolicyRegistry::instance().at(spec.policy).name;
  return spec;
}

FleetSpec FleetSpec::parse(std::string_view text) {
  return from_json(json::parse(text));
}

FleetSpec FleetSpec::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("FleetSpec: cannot open " + path);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

FleetSpec FleetSpec::reference() {
  FleetSpec spec;
  spec.name = "fleet-reference";
  spec.topology = {2, 2, 4};
  spec.allocator = "proportional";
  spec.epochs = 4;
  spec.epoch_seconds = 1.0;
  // ~78% of the uncapped fleet: tight enough that the allocator's choices
  // matter, comfortably above the 16-socket floor.
  spec.global_budget_w = 1560.0;
  return spec;
}

std::vector<std::string> FleetSpec::validate() const {
  std::vector<std::string> problems;
  if (name.empty()) problems.push_back("name is empty");
  for (const auto& p : topology.validate()) problems.push_back(p);
  if (allocator.empty()) {
    problems.push_back("allocator is empty");
  } else if (!FleetAllocatorRegistry::instance().contains(allocator)) {
    problems.push_back(
        "unknown allocator \"" + allocator + "\" (known: " +
        FleetAllocatorRegistry::instance().known_names() + ")");
  }
  if (!TrafficModel::is_known(traffic_profile)) {
    problems.push_back("unknown traffic profile \"" + traffic_profile +
                       "\" (known: " + TrafficModel::known_profiles() + ")");
  }
  if (policy.empty()) {
    problems.push_back("policy is empty");
  } else if (!core::PolicyRegistry::instance().contains(policy)) {
    problems.push_back("unknown policy \"" + policy + "\" (known: " +
                       core::PolicyRegistry::instance().known_names() + ")");
  }
  if (epochs < 1) problems.push_back("epochs must be >= 1");
  if (!(epoch_seconds > 0.0)) {
    problems.push_back("epoch_seconds must be positive");
  }
  if (tolerated_slowdown < 0.0 || tolerated_slowdown > 1.0) {
    problems.push_back("tolerance must be in [0, 1]");
  }
  if (!(min_cap_w > 0.0)) problems.push_back("min_cap_w must be positive");
  if (min_cap_w > max_cap_w) {
    problems.push_back(strf("min_cap_w (%g) must be <= max_cap_w (%g)",
                            min_cap_w, max_cap_w));
  }
  if (global_budget_w < 0.0) {
    problems.push_back("global_budget_w must be >= 0 (0 = derive)");
  }
  const double floor =
      min_cap_w * static_cast<double>(topology.socket_count());
  if (global_budget_w > 0.0 && min_cap_w > 0.0 &&
      topology.validate().empty() && global_budget_w < floor) {
    problems.push_back(
        strf("global_budget_w (%g) must cover the fleet's %zu socket "
             "floors (>= %g W)",
             global_budget_w, topology.socket_count(), floor));
  }
  if (fault_rate < 0.0 || fault_rate > 1.0) {
    problems.push_back("fault_rate must be in [0, 1]");
  }
  return problems;
}

}  // namespace dufp::fleet
