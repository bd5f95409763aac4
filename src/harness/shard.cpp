#include "harness/shard.h"

#include <algorithm>
#include <stdexcept>

#include "common/string_util.h"
#include "core/policy_registry.h"
#include "telemetry/export.h"
#include "workloads/profiles.h"

namespace dufp::harness {

namespace {

using json::Value;

Value raw_double(double v) { return Value::make_raw_number(strf("%.17g", v)); }

}  // namespace

// -- GridSpec ----------------------------------------------------------------

json::Value GridSpec::to_json() const {
  Value o = Value::make_object();
  o.add("format", Value::make_string(kGridSpecFormat));
  o.add("version", Value::make_i64(kShardDocumentVersion));
  o.add("name", Value::make_string(name));
  Value app_arr = Value::make_array();
  for (const auto app : apps) {
    app_arr.push_back(Value::make_string(workloads::app_name(app)));
  }
  o.add("apps", std::move(app_arr));
  // Key "modes" (not "policies"): the wire name predates the registry and
  // is pinned by the fingerprint of every existing spec.
  Value mode_arr = Value::make_array();
  for (const auto& policy : policies) {
    mode_arr.push_back(Value::make_string(policy));
  }
  o.add("modes", std::move(mode_arr));
  Value tol_arr = Value::make_array();
  for (const double tol : tolerances) tol_arr.push_back(raw_double(tol));
  o.add("tolerances", std::move(tol_arr));
  o.add("repetitions", Value::make_i64(repetitions));
  o.add("seed", Value::make_u64(seed));
  o.add("sockets", Value::make_i64(sockets));
  o.add("fault_rate", raw_double(fault_rate));
  o.add("fault_seed", Value::make_u64(fault_seed));
  o.add("telemetry", Value::make_bool(telemetry));
  return o;
}

std::string GridSpec::canonical_text() const { return to_json().dump(); }

std::uint64_t GridSpec::fingerprint() const {
  return json::fnv1a(canonical_text());
}

GridSpec GridSpec::from_json(const json::Value& v) {
  check_document(v, GridSpec{}.to_json(), "GridSpec");
  GridSpec spec;
  spec.name = v.at("name").as_string();
  try {
    for (const Value& app : v.at("apps").as_array()) {
      spec.apps.push_back(workloads::app_by_name(app.as_string()));
    }
  } catch (const std::invalid_argument& e) {
    throw ShardFormatError(std::string("GridSpec: ") + e.what());
  }
  for (const Value& mode : v.at("modes").as_array()) {
    spec.policies.push_back(mode.as_string());
  }
  for (const Value& tol : v.at("tolerances").as_array()) {
    spec.tolerances.push_back(tol.as_double());
  }
  spec.repetitions = static_cast<int>(v.at("repetitions").as_i64());
  spec.seed = v.at("seed").as_u64();
  spec.sockets = static_cast<int>(v.at("sockets").as_i64());
  spec.fault_rate = v.at("fault_rate").as_double();
  spec.fault_seed = v.at("fault_seed").as_u64();
  spec.telemetry = v.at("telemetry").as_bool();

  const auto problems = spec.validate();
  if (!problems.empty()) {
    std::string msg = "GridSpec: invalid spec:";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      msg += (i == 0 ? " " : "; ") + problems[i];
    }
    throw ShardFormatError(msg);
  }
  // Canonicalize alias/case spellings so CSV labels, telemetry labels and
  // re-serialized specs all use the registry name.
  for (auto& policy : spec.policies) {
    policy = core::PolicyRegistry::instance().at(policy).name;
  }
  return spec;
}

GridSpec GridSpec::reference() {
  GridSpec spec;
  spec.name = "reference";
  spec.apps = {workloads::AppId::cg, workloads::AppId::ep};
  spec.policies = {"DUF", "DUFP"};
  spec.tolerances = {0.05, 0.10};
  spec.repetitions = 3;
  spec.seed = 1;
  spec.sockets = 4;
  return spec;
}

std::vector<std::string> GridSpec::validate() const {
  std::vector<std::string> problems;
  if (name.empty()) problems.push_back("name is empty");
  if (apps.empty()) problems.push_back("apps is empty");
  if (policies.empty()) problems.push_back("modes is empty");
  // Every entry must resolve in the registry, exactly once: unknown and
  // duplicate names are each reported individually so one pass over the
  // error message fixes the whole list.
  const auto& registry = core::PolicyRegistry::instance();
  std::vector<std::string> seen;
  for (const auto& policy : policies) {
    const std::string key = to_lower(trim(policy));
    if (key == "default" || key == "none") {
      problems.push_back(
          "modes must not contain 'default' (the baseline is implicit)");
      continue;
    }
    const auto* entry = registry.find(policy);
    if (entry == nullptr) {
      problems.push_back("modes contains unknown policy \"" + policy +
                         "\" (known: " + registry.known_names() + ")");
      continue;
    }
    if (std::find(seen.begin(), seen.end(), entry->name) != seen.end()) {
      problems.push_back("modes contains duplicate policy \"" + policy +
                         "\"");
      continue;
    }
    seen.push_back(entry->name);
  }
  if (tolerances.empty()) problems.push_back("tolerances is empty");
  if (repetitions < 1) problems.push_back("repetitions must be >= 1");
  if (sockets < 1) problems.push_back("sockets must be >= 1");
  if (fault_rate < 0.0 || fault_rate > 1.0) {
    problems.push_back("fault_rate must be in [0, 1]");
  }
  return problems;
}

WireIdentity GridSpec::wire_identity() const {
  WireIdentity id;
  id.format = kShardResultFormat;
  id.spec_name = name;
  id.fingerprint_hex = fingerprint_hex(fingerprint());
  id.job_count = build_plan(*this).plan.job_count();
  return id;
}

// -- plan building -----------------------------------------------------------

GridPlan build_plan(const GridSpec& spec) {
  GridPlan gp;
  gp.index.reserve(spec.apps.size());
  for (workloads::AppId app : spec.apps) {
    // Deliberately NOT default_run_config: that reads the environment
    // (DUFP_SOCKETS / DUFP_FAULT_RATE / ...), and a spec-driven plan must
    // be identical in every process regardless of its environment.
    const auto& prof = workloads::profile(app);
    RunConfig base;
    base.profile = &prof;
    base.machine.sockets = spec.sockets;
    if (spec.fault_rate > 0.0) {
      base.faults =
          faults::FaultOptions::storm(spec.fault_rate, spec.fault_seed);
    }
    base.telemetry.enabled = spec.telemetry;
    base.seed = spec.seed;

    AppGridCells ac;
    ac.app = app;
    ac.baseline = gp.plan.add_cell(base, spec.repetitions,
                                   workloads::app_name(app) + ": baseline");
    for (const std::string& policy : spec.policies) {
      for (double tol : spec.tolerances) {
        RunConfig cfg = base;
        cfg.policy_name = policy;
        cfg.tolerated_slowdown = tol;
        ac.cells.push_back(gp.plan.add_cell(
            cfg, spec.repetitions,
            workloads::app_name(app) + ": " + policy + " @ " +
                std::to_string(static_cast<int>(tol * 100 + 0.5)) + "%"));
      }
    }
    gp.index.push_back(std::move(ac));
  }
  return gp;
}

// -- finalize ----------------------------------------------------------------

std::string evaluation_csv(const std::vector<Evaluation>& evals,
                           const std::vector<std::string>& policies,
                           const std::vector<double>& tolerances) {
  std::string csv =
      "app,mode,tolerance_pct,runs,exec_s_mean,exec_s_min,exec_s_max,"
      "avg_pkg_w_mean,avg_dram_w_mean,pkg_energy_j_mean,dram_energy_j_mean,"
      "total_energy_j_mean,slowdown_pct,pkg_power_savings_pct,"
      "dram_power_savings_pct,energy_change_pct,actuation_retries,"
      "actuation_failures,degradations,faults_injected\n";

  auto row = [&csv](const std::string& app, const std::string& mode,
                    double tol_pct, const RepeatedResult& r, double slowdown,
                    double pkg_savings, double dram_savings,
                    double energy_change) {
    csv += strf(
        "%s,%s,%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
        "%.17g,%.17g,%.17g,%.17g,%llu,%llu,%llu,%llu\n",
        app.c_str(), mode.c_str(), tol_pct, r.runs, r.exec_seconds.mean,
        r.exec_seconds.min, r.exec_seconds.max, r.avg_pkg_power_w.mean,
        r.avg_dram_power_w.mean, r.pkg_energy_j.mean, r.dram_energy_j.mean,
        r.total_energy_j.mean, slowdown, pkg_savings, dram_savings,
        energy_change,
        static_cast<unsigned long long>(r.health.actuation_retries),
        static_cast<unsigned long long>(r.health.actuation_failures),
        static_cast<unsigned long long>(r.health.degradations),
        static_cast<unsigned long long>(r.health.faults_injected));
  };

  for (const Evaluation& ev : evals) {
    const std::string app = workloads::app_name(ev.app());
    // The baseline row keeps the legacy display name "default".
    row(app, "default", 0.0, ev.baseline(), 0.0, 0.0, 0.0, 0.0);
    for (const std::string& policy : policies) {
      for (const double tol : tolerances) {
        row(app, policy, tol * 100.0, ev.at(policy, tol),
            ev.slowdown_pct(policy, tol),
            ev.pkg_power_savings_pct(policy, tol),
            ev.dram_power_savings_pct(policy, tol),
            ev.energy_change_pct(policy, tol));
      }
    }
  }
  return csv;
}

GridOutputs finalize_grid(const GridSpec& spec,
                          std::vector<RunResult> results) {
  GridOutputs out;

  // Telemetry is a per-job artifact that aggregation drops — write the
  // merge and take job 0's snapshot before the results are consumed.  The
  // merged exposition labels every sample with its job index and orders
  // samples by metric name, then job, so the bytes depend only on job
  // identities, never on which shard ran what.
  if (spec.telemetry) {
    std::vector<telemetry::LabelledSamples> jobs;
    for (std::size_t j = 0; j < results.size(); ++j) {
      if (!results[j].telemetry.has_value()) continue;
      jobs.push_back({std::to_string(j), &results[j].telemetry->metrics});
    }
    telemetry::write_prometheus_merged(jobs, "job", out.merged_prometheus);
    // Moved, not copied: aggregation below reads no telemetry.
    if (!results.empty()) out.job0_telemetry = std::move(results[0].telemetry);
  }

  GridPlan gp = build_plan(spec);
  gp.plan.finish_with(std::move(results));
  out.evaluations =
      assemble_evaluations(gp.plan, gp.index, spec.policies, spec.tolerances);
  out.evaluation_csv =
      evaluation_csv(out.evaluations, spec.policies, spec.tolerances);
  return out;
}

GridOutputs run_grid_serial(const GridSpec& spec, int threads) {
  const GridPlan gp = build_plan(spec);
  std::vector<std::size_t> all(gp.plan.job_count());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  // Exactly the gather path: per-job results produced by the same
  // run_jobs, finalized by the same finish_with — serial ≡ gathered by
  // construction, and the tests byte-verify it anyway.
  return finalize_grid(spec, gp.plan.run_jobs(all, threads));
}

}  // namespace dufp::harness
