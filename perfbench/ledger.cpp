// perfbench_ledger: one process runs one perf-ledger workload once and
// prints one JSON line describing the run (see perfbench/README.md).
//
//   perfbench_ledger --workload paper_grid|policy_storm|fleet_1024
//                    --seed N --trace 0|1 --work-dir DIR [--smoke]
//
// Untraced (--trace 0) the workload goes through the same public entry
// point a user command takes (run_grid_serial, run_shard + gather_shards,
// run_fleet_serial).  Traced (--trace 1) the same jobs are driven
// single-threaded through the public per-run calls (prepare_run /
// prepare_fleet_node, Simulation::advance_once, finish) and each call is
// timed and classified from outside, so the program itself carries no
// instrumentation.  Both passes render the workload's deterministic
// outputs and report their FNV-1a digest; perfbench/run.py compares them.
//
// The line carries `t_first_exec`, the CLOCK_MONOTONIC time of the
// workload's first execution call, so the parent can time set-up from
// its own spawn timestamp on the same clock.
#include <time.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/json.h"
#include "common/string_util.h"
#include "core/policy_registry.h"
#include "fleet/node_run.h"
#include "fleet/plan.h"
#include "fleet/shard.h"
#include "harness/experiment.h"
#include "harness/shard.h"
#include "harness/shard_codec.h"
#include "harness/wire.h"
#include "rapl/cell_cache.h"

extern char** environ;

namespace dufp::perfbench {
namespace {

using json::Value;

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Value num(double v) { return Value::make_raw_number(strf("%.17g", v)); }
Value num(std::int64_t v) { return Value::make_i64(v); }
Value num(std::uint64_t v) { return Value::make_u64(v); }

/// Clears every DUFP_* variable the user's shell may carry and pins the
/// ones the called code reads (run_batch parses the whole BenchOptions
/// set, so a stray malformed knob would even throw), so a workload is a
/// function of its arguments alone.
void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.rfind("DUFP_", 0) == 0) {
      names.emplace_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("DUFP_QUIET", "1", 1);
  setenv("DUFP_LANES", "8", 1);
  setenv("DUFP_SHARED_CELL_CACHE", "1", 1);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    return std::string(trim(brand));
  }
#endif
  return "unknown";
}

Value host_info() {
  Value o = Value::make_object();
  o.add("nproc", num(static_cast<std::int64_t>(
                     std::thread::hardware_concurrency())));
  o.add("cpu", Value::make_string(cpu_model()));
#if defined(__clang__)
  o.add("compiler", Value::make_string(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  o.add("compiler", Value::make_string(std::string("gcc ") + __VERSION__));
#else
  o.add("compiler", Value::make_string("unknown"));
#endif
  o.add("build_type", Value::make_string(PERFBENCH_BUILD_TYPE));
  return o;
}

// -- workloads ---------------------------------------------------------------

/// Fig. 3/4: all apps x (baseline + {DUF, DUFP} x {0, 5, 10, 20}%) x 10.
harness::GridSpec paper_grid_spec(std::uint64_t seed, bool smoke) {
  harness::GridSpec spec;
  spec.name = "perfbench-paper-grid";
  spec.apps = smoke ? std::vector<workloads::AppId>{workloads::AppId::cg,
                                                    workloads::AppId::ep}
                    : workloads::all_apps();
  spec.policies = {"DUF", "DUFP"};
  spec.tolerances = smoke ? std::vector<double>{0.05, 0.10}
                          : harness::paper_tolerances();
  spec.repetitions = smoke ? 2 : 10;
  spec.seed = seed;
  spec.sockets = 4;
  return spec;
}

/// The storm's grid and fault seed.  Fixed, not taken from --seed: under
/// a storm, a bit flip that lands in a RAPL time-window field makes
/// FirmwareGovernor::set_limit allocate a window of tens of millions of
/// ticks (~0.3 s and up to ~380 MB for that job), and 0 to 12 of the
/// 171 jobs hit it depending on the seed, so the workload's cost would be
/// a draw of that lottery rather than a property of the code.  Seed 8
/// hits it in 2 jobs, the median count over seeds 1-16.
constexpr std::uint64_t kStormSeed = 8;

/// Every registered policy x {EP, CG, MG} x {5, 10}% x 3 under a 2% fault
/// storm with telemetry on.
harness::GridSpec policy_storm_spec(bool smoke) {
  harness::GridSpec spec;
  spec.name = "perfbench-policy-storm";
  spec.apps = smoke ? std::vector<workloads::AppId>{workloads::AppId::ep}
                    : std::vector<workloads::AppId>{workloads::AppId::ep,
                                                    workloads::AppId::cg,
                                                    workloads::AppId::mg};
  spec.policies = core::PolicyRegistry::instance().names();
  spec.tolerances = smoke ? std::vector<double>{0.05}
                          : std::vector<double>{0.05, 0.10};
  spec.repetitions = smoke ? 1 : 3;
  spec.seed = kStormSeed;
  spec.sockets = 4;
  spec.fault_rate = 0.02;
  spec.fault_seed = kStormSeed;
  spec.telemetry = true;
  return spec;
}

constexpr int kStormShards = 2;

/// 8 racks x 8 nodes x 16 sockets, 12 x 1 s epochs, FastCap at 75% of the
/// uncapped fleet, diurnal traffic.
fleet::FleetSpec fleet_spec(std::uint64_t seed, bool smoke) {
  fleet::FleetSpec spec;
  spec.name = "perfbench-fleet";
  spec.topology = smoke ? fleet::FleetTopology{2, 2, 4}
                        : fleet::FleetTopology{8, 8, 16};
  spec.epochs = smoke ? 3 : 12;
  spec.epoch_seconds = 1.0;
  spec.allocator = "fastcap";
  spec.global_budget_w = 0.75 * spec.max_cap_w *
                         static_cast<double>(spec.topology.socket_count());
  spec.traffic_profile = "diurnal";
  spec.traffic_seed = seed;
  spec.seed = seed;
  return spec;
}

/// The fleet's balancer and per-socket agents both fire every 200 ms
/// (fleet/node_run.cpp); the 1 s epoch clock lands on the same ticks.
constexpr std::int64_t kFleetIntervalUs = 200000;

template <typename Spec>
void validate_or_throw(const Spec& spec) {
  const auto problems = spec.validate();
  if (!problems.empty()) {
    std::string msg = "invalid workload spec:";
    for (const auto& p : problems) msg += " " + p + ";";
    throw std::invalid_argument(msg);
  }
}

std::uint64_t grid_digest(const harness::GridOutputs& out) {
  return json::fnv1a(out.evaluation_csv + out.merged_prometheus);
}

std::uint64_t fleet_digest(const fleet::FleetOutputs& out) {
  return json::fnv1a(out.allocation_csv + out.summary_csv + out.prometheus);
}

/// Simulated socket-seconds of a finished grid.  The outputs carry each
/// cell's trimmed-mean execution time, so this is mean x runs per cell —
/// exact up to the spread between the trimmed and the kept runs.
double grid_sim_socket_s(const harness::GridSpec& spec,
                         const harness::GridOutputs& out) {
  double total = 0.0;
  const auto add = [&total](const harness::RepeatedResult& r) {
    total += r.exec_seconds.mean * static_cast<double>(r.runs);
  };
  for (const harness::Evaluation& ev : out.evaluations) {
    add(ev.baseline());
    for (const std::string& p : spec.policies) {
      for (const double t : spec.tolerances) add(ev.at(p, t));
    }
  }
  return total * static_cast<double>(spec.sockets);
}

/// Simulated socket-seconds of a finished fleet: every node's per-epoch
/// wall time (its slowest socket) from the allocation trace, times the
/// node's socket count.
double fleet_sim_socket_s(const fleet::FleetSpec& spec,
                          const fleet::FleetOutputs& out) {
  constexpr int kWallColumn = 8;  // epoch,rack,node,node_index,..,wall_s
  const std::string& csv = out.allocation_csv;
  double total = 0.0;
  for (std::size_t pos = csv.find('\n') + 1; pos > 0 && pos < csv.size();
       pos = csv.find('\n', pos) + 1) {
    std::size_t field = pos;
    for (int c = 0; c < kWallColumn; ++c) field = csv.find(',', field) + 1;
    total += std::strtod(csv.c_str() + field, nullptr);
  }
  return total * static_cast<double>(spec.topology.sockets_per_node);
}

std::size_t grid_jobs(const harness::GridSpec& spec) {
  return spec.apps.size() * (1 + spec.policies.size() * spec.tolerances.size()) *
         static_cast<std::size_t>(spec.repetitions);
}

struct Outcome {
  std::size_t jobs = 0;
  double t_first_exec = 0.0;
  double sim_socket_s = 0.0;
  std::uint64_t digest = 0;
  Value layers;  ///< traced runs only
};

std::vector<std::string> storm_wire_files(const std::string& work_dir) {
  std::vector<std::string> files;
  for (int s = 0; s < kStormShards; ++s) {
    files.push_back(
        (std::filesystem::path(work_dir) / strf("storm-shard%d.jsonl", s))
            .string());
  }
  return files;
}

// -- untraced ----------------------------------------------------------------

Outcome untraced_paper_grid(std::uint64_t seed, bool smoke) {
  const harness::GridSpec spec = paper_grid_spec(seed, smoke);
  validate_or_throw(spec);
  Outcome o;
  o.jobs = grid_jobs(spec);
  o.t_first_exec = mono_s();
  const harness::GridOutputs out = harness::run_grid_serial(spec, 2);
  o.sim_socket_s = grid_sim_socket_s(spec, out);
  o.digest = grid_digest(out);
  return o;
}

Outcome untraced_policy_storm(bool smoke, const std::string& work_dir) {
  const harness::GridSpec spec = policy_storm_spec(smoke);
  validate_or_throw(spec);
  Outcome o;
  o.jobs = grid_jobs(spec);
  std::filesystem::create_directories(work_dir);
  const std::vector<std::string> files = storm_wire_files(work_dir);
  o.t_first_exec = mono_s();
  for (int s = 0; s < kStormShards; ++s) {
    const std::string& path = files[static_cast<std::size_t>(s)];
    std::ofstream out(path, std::ios::binary);
    harness::ShardRunOptions opts;
    opts.shard = s;
    opts.shards = kStormShards;
    opts.threads = 1;
    harness::run_shard(spec, opts, out);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + path);
  }
  const harness::GridOutputs out =
      harness::finalize_grid(spec, harness::gather_shards(spec, files));
  for (const std::string& f : files) std::filesystem::remove(f);
  o.sim_socket_s = grid_sim_socket_s(spec, out);
  o.digest = grid_digest(out);
  return o;
}

Outcome untraced_fleet(std::uint64_t seed, bool smoke) {
  const fleet::FleetSpec spec = fleet_spec(seed, smoke);
  validate_or_throw(spec);
  Outcome o;
  o.jobs = spec.topology.node_count();
  o.t_first_exec = mono_s();
  const fleet::FleetOutputs out = fleet::run_fleet_serial(spec);
  o.sim_socket_s = fleet_sim_socket_s(spec, out);
  o.digest = fleet_digest(out);
  return o;
}

// -- traced ------------------------------------------------------------------

enum Layer : std::size_t {
  kTier1,
  kTier2,
  kExact,
  kControl,
  kBuildPlan,
  kPrepareRun,
  kFinish,
  kEncode,
  kWireWrite,
  kWireRead,
  kDecode,
  kFinalize,
  kFleetPlan,
  kPrepareNode,
  kFinishNode,
  kFleetFinalize,
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "sim.tier1_leap",     "sim.tier2_stretch",  "sim.exact_step",
    "core.control_step",  "harness.build_plan", "harness.prepare_run",
    "harness.finish",     "harness.encode",     "harness.wire_write",
    "harness.wire_read",  "harness.decode",     "harness.finalize",
    "fleet.plan",         "fleet.prepare_node", "fleet.finish_node",
    "fleet.finalize"};

struct LayerTotals {
  double s = 0.0;
  std::int64_t calls = 0;
  std::int64_t ticks = 0;
};

/// Per-layer self time, calls and ticks of one traced pass, plus the
/// reconciliation checks.  Spans are taken around single public calls;
/// whatever runs between them (the bench's own loop and bookkeeping) is
/// left unattributed, which is what trace.unattributed_share measures.
class Tracer {
 public:
  /// Returns f() and charges its duration as one call of `layer`.
  template <typename F>
  auto timed(Layer layer, F&& f) -> decltype(f()) {
    const double t0 = mono_s();
    auto result = f();
    layers_[layer].s += mono_s() - t0;
    ++layers_[layer].calls;
    return result;
  }

  LayerTotals& operator[](Layer layer) { return layers_[layer]; }

  /// Drives one prepared simulation to completion, one advance_once()
  /// per span.  A call is tier-1 when the engine could leap before it,
  /// tier-2 when the clock moved two or more ticks, a control step when
  /// it ended on a tick where the periodic controllers fire (every
  /// `interval_us`; 0 = the run has none), and an exact step otherwise.
  /// Classification reads now(), never batch_stats(), which would cost
  /// as much as a tick.  Returns the controller firings observed.
  std::int64_t drive(sim::Simulation& s, std::int64_t tick_us,
                     std::int64_t interval_us) {
    std::int64_t ticks_total = 0;
    std::int64_t control = 0;
    const std::int64_t start_us = s.now().micros();
    for (;;) {
      const double t0 = mono_s();
      const bool leap = s.leap_horizon() > 0;
      const std::int64_t before = s.now().micros();
      const bool more = s.advance_once();
      const std::int64_t after = s.now().micros();
      const double t1 = mono_s();
      const std::int64_t ticks = (after - before) / tick_us;
      Layer layer = kExact;
      if (leap) {
        layer = kTier1;
      } else if (ticks >= 2) {
        layer = kTier2;
      } else if (interval_us > 0 && after % interval_us == 0) {
        layer = kControl;
        ++control;
      }
      LayerTotals& l = layers_[layer];
      l.s += t1 - t0;
      ++l.calls;
      l.ticks += ticks;
      ticks_total += ticks;
      if (!more) break;
    }
    // Reconciliation: the per-path ticks cover exactly the ticks the
    // engine says it simulated, and every controller boundary up to the
    // final tick was seen as a control step.
    const sim::BatchStats bs = s.batch_stats();
    const std::int64_t engine_ticks =
        bs.leapt_ticks + bs.stepped_ticks + bs.batched_ticks;
    if (ticks_total != engine_ticks) {
      fail(strf("traced ticks %lld != engine leapt+stepped %lld",
                static_cast<long long>(ticks_total),
                static_cast<long long>(engine_ticks)));
    }
    const std::int64_t end_us = s.now().micros();
    const std::int64_t due =
        interval_us > 0 ? end_us / interval_us - start_us / interval_us : 0;
    if (control != due) {
      fail(strf("control steps %lld != controller boundaries %lld",
                static_cast<long long>(control),
                static_cast<long long>(due)));
    }
    return control;
  }

  /// One grid job, prepare -> engine loop -> finish.  Teardown of the
  /// prepared run is charged to finish.
  harness::RunResult run_job(const harness::RunConfig& cfg) {
    std::optional<harness::PreparedRun> run =
        timed(kPrepareRun, [&] { return harness::prepare_run(cfg); });
    const std::int64_t interval_us =
        cfg.resolved_policy().empty() ? 0 : cfg.policy.interval.micros();
    const std::int64_t control =
        drive(run->simulation(), cfg.sim.tick.micros(), interval_us);
    harness::RunResult result = timed(kFinish, [&] {
      harness::RunResult r = run->finish();
      run.reset();
      return r;
    });
    account_agents(result, control, cfg.faults.enabled);
    cells_.add(result.cell_stats);
    return result;
  }

  void add_cells(const rapl::CellStats& c) { cells_.add(c); }
  void add_wire_bytes(std::uint64_t b) { wire_bytes_ += b; }

  void fail(const std::string& what) {
    if (problems_.size() < 8) problems_.push_back(what);
    ++mismatches_;
  }

  /// The per-layer metrics of the pass (module-level names), the derived rates
  /// and the reconciliation verdict.  `wall_s` is the traced wall time
  /// the layer self-times must cover.
  Value report(double wall_s) const {
    Value m = Value::make_object();
    auto per = [](double s, std::int64_t n) {
      return n > 0 ? 1e9 * s / static_cast<double>(n) : 0.0;
    };
    double attributed = 0.0;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      const LayerTotals& l = layers_[i];
      const std::string name = kLayerNames[i];
      attributed += l.s;
      m.add(name + ".s", num(l.s));
      m.add(name + ".calls", num(l.calls));
      if (i == kTier1 || i == kTier2) {
        m.add(name + ".ticks", num(l.ticks));
      }
      if (i <= kControl) {
        m.add(name + ".ns_per_tick",
              num(per(l.s, i <= kTier2 ? l.ticks : l.calls)));
      }
    }
    m.add("core.control_overhead_ns",
          num(per(layers_[kControl].s, layers_[kControl].calls) -
              per(layers_[kExact].s, layers_[kExact].calls)));
    m.add("core.agent_intervals", num(agent_intervals_));
    m.add("core.actuations", num(actuations_));
    const std::uint64_t attempts = actuations_ + actuation_failures_;
    m.add("core.actuation_failure_ratio",
          num(attempts > 0 ? static_cast<double>(actuation_failures_) /
                                 static_cast<double>(attempts)
                           : 0.0));
    m.add("rapl.cold_builds", num(cells_.cold_builds));
    m.add("rapl.probes", num(cells_.probes));
    m.add("rapl.shared_hits", num(cells_.shared_hits));
    m.add("rapl.local_hits", num(cells_.local_hits));
    m.add("rapl.way_evictions", num(cells_.way_evictions));
    m.add("rapl.shared_full_drops",
          num(rapl::SharedCellCache::instance().stats().full_drops));
    const std::uint64_t shared_base = cells_.shared_hits + cells_.cold_builds;
    m.add("rapl.shared_hit_ratio",
          num(shared_base > 0 ? static_cast<double>(cells_.shared_hits) /
                                    static_cast<double>(shared_base)
                              : 0.0));
    m.add("harness.encode.bytes", num(wire_bytes_));
    m.add("trace.wall_s", num(wall_s));
    const double unattributed = wall_s > 0.0 ? 1.0 - attributed / wall_s : 0.0;
    m.add("trace.unattributed_share", num(unattributed));

    Value checks = Value::make_object();
    checks.add("mismatches", num(mismatches_));
    Value list = Value::make_array();
    for (const std::string& p : problems_) list.push_back(Value::make_string(p));
    checks.add("problems", std::move(list));
    m.add("checks", std::move(checks));
    return m;
  }

 private:
  /// Agent counters of one run.  Every firing either counts an interval
  /// or is the baseline / a skipped or degraded one, so a socket's agent
  /// counts at most firings - 1 intervals, and exactly that many when no
  /// fault can make it skip.
  void account_agents(const harness::RunResult& r, std::int64_t firings,
                      bool faults) {
    for (const core::AgentStats& a : r.agent_stats) {
      const auto want = static_cast<std::uint64_t>(firings > 0 ? firings - 1 : 0);
      if (faults ? a.intervals > want : a.intervals != want) {
        fail(strf("agent intervals %llu vs %lld control steps",
                  static_cast<unsigned long long>(a.intervals),
                  static_cast<long long>(firings)));
      }
      agent_intervals_ += a.intervals;
      actuations_ += a.uncore_decreases + a.uncore_increases +
                     a.uncore_resets + a.cap_decreases + a.cap_increases +
                     a.cap_resets + a.short_term_tightenings +
                     a.uncore_reset_retries + a.pstate_pins +
                     a.pstate_releases;
      actuation_failures_ += a.health.actuation_failures;
    }
  }

  std::array<LayerTotals, kLayerCount> layers_{};
  rapl::CellStats cells_;
  std::uint64_t agent_intervals_ = 0;
  std::uint64_t actuations_ = 0;
  std::uint64_t actuation_failures_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::int64_t mismatches_ = 0;
  std::vector<std::string> problems_;
};

Outcome traced_paper_grid(std::uint64_t seed, bool smoke) {
  const harness::GridSpec spec = paper_grid_spec(seed, smoke);
  validate_or_throw(spec);
  Tracer tr;
  Outcome o;
  o.t_first_exec = mono_s();
  const harness::GridPlan gp =
      tr.timed(kBuildPlan, [&] { return harness::build_plan(spec); });
  o.jobs = gp.plan.job_count();
  std::vector<harness::RunResult> results(o.jobs);
  for (std::size_t j = 0; j < o.jobs; ++j) {
    results[j] = tr.run_job(gp.plan.job_config(j));
  }
  const harness::GridOutputs out = tr.timed(kFinalize, [&] {
    return harness::finalize_grid(spec, std::move(results));
  });
  const double wall = mono_s() - o.t_first_exec;
  o.sim_socket_s = grid_sim_socket_s(spec, out);
  o.digest = grid_digest(out);
  o.layers = tr.report(wall);
  return o;
}

/// The storm through the wire exactly as run_shard / gather_shards drive
/// it, with bench callbacks in place of theirs: the callbacks time the
/// jobs and the codec, and the wire layers are each wire call's time
/// minus its callbacks'.
Outcome traced_policy_storm(bool smoke, const std::string& work_dir) {
  const harness::GridSpec spec = policy_storm_spec(smoke);
  validate_or_throw(spec);
  Tracer tr;
  Outcome o;
  std::filesystem::create_directories(work_dir);
  const std::vector<std::string> files = storm_wire_files(work_dir);
  o.t_first_exec = mono_s();
  for (int s = 0; s < kStormShards; ++s) {
    // run_shard builds the plan and the spec's wire identity (which
    // builds it again); mirror both.
    const harness::GridPlan gp =
        tr.timed(kBuildPlan, [&] { return harness::build_plan(spec); });
    const harness::WireIdentity id =
        tr.timed(kBuildPlan, [&] { return spec.wire_identity(); });
    o.jobs = gp.plan.job_count();
    harness::ShardRunOptions opts;
    opts.shard = s;
    opts.shards = kStormShards;
    opts.threads = 1;
    double callback_s = 0.0;
    const auto run = [&](const std::vector<std::size_t>& indices) {
      const double c0 = mono_s();
      std::vector<Value> payloads;
      payloads.reserve(indices.size());
      for (const std::size_t j : indices) {
        const harness::RunResult r = tr.run_job(gp.plan.job_config(j));
        payloads.push_back(
            tr.timed(kEncode, [&] { return harness::encode_run_result(r); }));
      }
      callback_s += mono_s() - c0;
      return payloads;
    };
    const std::string& path = files[static_cast<std::size_t>(s)];
    const double w0 = mono_s();
    {
      std::ofstream out(path, std::ios::binary);
      harness::run_shard_wire(id, opts, run, out);
      out.close();
      if (!out) throw std::runtime_error("cannot write " + path);
    }
    tr[kWireWrite].s += mono_s() - w0 - callback_s;
    ++tr[kWireWrite].calls;
    tr.add_wire_bytes(std::filesystem::file_size(path));
  }

  const harness::WireIdentity id =
      tr.timed(kBuildPlan, [&] { return spec.wire_identity(); });
  std::vector<harness::RunResult> results(id.job_count);
  double store_s = 0.0;
  const double r0 = mono_s();
  // Strict gather: a missing, duplicate or corrupt record throws.
  harness::gather_wire(
      id, files, {}, [&](std::size_t j, const Value& v) {
        const double c0 = mono_s();
        results[j] =
            tr.timed(kDecode, [&] { return harness::decode_run_result(v); });
        store_s += mono_s() - c0;
      });
  tr[kWireRead].s += mono_s() - r0 - store_s;
  ++tr[kWireRead].calls;
  const harness::GridOutputs out = tr.timed(kFinalize, [&] {
    return harness::finalize_grid(spec, std::move(results));
  });
  const double wall = mono_s() - o.t_first_exec;
  for (const std::string& f : files) std::filesystem::remove(f);
  o.sim_socket_s = grid_sim_socket_s(spec, out);
  o.digest = grid_digest(out);
  o.layers = tr.report(wall);
  return o;
}

Outcome traced_fleet(std::uint64_t seed, bool smoke) {
  const fleet::FleetSpec spec = fleet_spec(seed, smoke);
  validate_or_throw(spec);
  Tracer tr;
  Outcome o;
  o.jobs = spec.topology.node_count();
  o.t_first_exec = mono_s();
  const fleet::AllocationPlan plan =
      tr.timed(kFleetPlan, [&] { return fleet::plan_allocations(spec); });
  std::vector<fleet::FleetNodeResult> results(o.jobs);
  for (std::size_t node = 0; node < o.jobs; ++node) {
    std::optional<fleet::PreparedFleetNode> run = tr.timed(
        kPrepareNode, [&] { return fleet::prepare_fleet_node(spec, node, plan); });
    sim::Simulation& s = run->simulation();
    tr.drive(s, sim::SimulationOptions{}.tick.micros(), kFleetIntervalUs);
    for (int i = 0; i < s.socket_count(); ++i) {
      tr.add_cells(s.rapl(i).governor().cell_stats());
    }
    results[node] = tr.timed(kFinishNode, [&] {
      fleet::FleetNodeResult r = run->finish();
      run.reset();
      return r;
    });
  }
  const fleet::FleetOutputs out = tr.timed(
      kFleetFinalize, [&] { return fleet::finalize_fleet(spec, results); });
  const double wall = mono_s() - o.t_first_exec;
  o.sim_socket_s = fleet_sim_socket_s(spec, out);
  o.digest = fleet_digest(out);
  o.layers = tr.report(wall);
  return o;
}

// -- main --------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_ledger: %s\n"
               "usage: perfbench_ledger --workload paper_grid|policy_storm|"
               "fleet_1024 --seed N --trace 0|1 --work-dir DIR [--smoke]\n",
               why);
  std::exit(2);
}

int run_main(int argc, char** argv) {
  pin_environment();
  std::string workload;
  std::string work_dir;
  std::uint64_t seed = 0;
  bool have_seed = false;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      trace = v == "1" ? 1 : 0;
    } else if (arg == "--work-dir") {
      work_dir = value();
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || trace < 0 || work_dir.empty()) {
    usage("--seed, --trace and --work-dir are required");
  }
  if (workload != "paper_grid" && workload != "policy_storm" &&
      workload != "fleet_1024") {
    usage("unknown --workload");
  }

  Value line = Value::make_object();
  line.add("workload", Value::make_string(workload));
  line.add("seed", num(seed));
  line.add("trace", num(static_cast<std::int64_t>(trace)));
  line.add("smoke", Value::make_bool(smoke));
  line.add("host", host_info());
  Outcome o;
  std::string error;
  try {
    if (workload == "paper_grid") {
      o = trace ? traced_paper_grid(seed, smoke)
                : untraced_paper_grid(seed, smoke);
    } else if (workload == "policy_storm") {
      o = trace ? traced_policy_storm(smoke, work_dir)
                : untraced_policy_storm(smoke, work_dir);
    } else {
      o = trace ? traced_fleet(seed, smoke) : untraced_fleet(seed, smoke);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  // A job that throws aborts its workload, and a strict gather throws on
  // any job missing, so a failure fails every job of the run.
  line.add("jobs", num(static_cast<std::uint64_t>(o.jobs)));
  line.add("failed",
           num(static_cast<std::uint64_t>(error.empty() ? 0 : o.jobs)));
  line.add("error", Value::make_string(error));
  line.add("t_first_exec", num(o.t_first_exec));
  line.add("sim_socket_s", num(o.sim_socket_s));
  line.add("digest",
           Value::make_string(strf("%016llx",
                                   static_cast<unsigned long long>(o.digest))));
  if (trace == 1 && error.empty()) line.add("layers", o.layers);
  std::printf("%s\n", line.dump().c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace dufp::perfbench

int main(int argc, char** argv) { return dufp::perfbench::run_main(argc, argv); }
