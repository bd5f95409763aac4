// The paper's evaluation, every table and figure from one binary:
//
//   paper [SECTION...]
//
// runs the named sections, or all of them, in the order below (DESIGN.md
// §4).  Each prints a banner, its tables and the paper's reference
// numbers on stdout, progress notes on stderr, and writes its CSVs under
// DUFP_OUT_DIR.  The Fig. 3/4 grid (10 apps x {DUF, DUFP} x {0, 5, 10,
// 20} %) runs once per invocation, however many of fig3a, fig3b, fig3c
// and fig4 read it.  An unknown section name exits 2 and lists the known
// names.
//
// Knobs are bench_util.h's: DUFP_REPS / DUFP_SOCKETS / DUFP_THREADS /
// DUFP_QUIET / DUFP_FAULT_RATE / DUFP_FAULT_SEED / DUFP_OUT_DIR, and
// DUFP_TELEMETRY for fault_storm.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/csv.h"
#include "common/stats.h"
#include "faults/fault_plan.h"
#include "harness/shard.h"
#include "hwmodel/machine_model.h"
#include "msr/sim_msr.h"
#include "powercap/uncore_control.h"
#include "powercap/zone.h"
#include "rapl/rapl_engine.h"
#include "sim/trace.h"
#include "telemetry/export.h"

namespace dufp::bench {
namespace {

using harness::Evaluation;
using harness::RepeatedResult;
using harness::RunConfig;
using harness::RunResult;
using workloads::AppId;

// -- grids -------------------------------------------------------------------

/// The controllers the paper's Fig. 3 / Fig. 4 compare, by registry name.
const std::vector<std::string>& paper_policies() {
  static const std::vector<std::string> names{"DUF", "DUFP"};
  return names;
}

/// A grid on the paper's protocol: repetitions, machine size and fault
/// storm come from the environment, as default_run_config reads them.
harness::GridSpec paper_spec(const harness::BenchOptions& opts,
                             std::string name, std::vector<AppId> apps,
                             std::vector<std::string> policies,
                             std::vector<double> tolerances,
                             std::uint64_t seed) {
  harness::GridSpec spec;
  spec.name = std::move(name);
  spec.apps = std::move(apps);
  spec.policies = std::move(policies);
  spec.tolerances = std::move(tolerances);
  spec.repetitions = opts.repetitions;
  spec.seed = seed;
  spec.sockets = opts.sockets;
  spec.fault_rate = opts.fault_rate;
  spec.fault_seed = opts.fault_seed;
  return spec;
}

std::vector<Evaluation> run_grid(const harness::GridSpec& spec,
                                 const harness::BenchOptions& opts) {
  const std::size_t cells =
      spec.apps.size() * (1 + spec.policies.size() * spec.tolerances.size());
  const int threads = opts.resolved_threads();
  harness::note_progress(strf(
      "%s: %zu jobs across %zu cells on %d threads", spec.name.c_str(),
      cells * static_cast<std::size_t>(spec.repetitions), cells, threads));
  return harness::run_grid_serial(spec, threads).evaluations;
}

/// What every section reads: the options, and the Fig. 3/4 grid, run on
/// first use.
class Context {
 public:
  Context() : opts(harness::BenchOptions::from_env()) {}

  const harness::BenchOptions opts;

  const std::vector<Evaluation>& paper_grid() {
    if (!paper_grid_) {
      paper_grid_ = run_grid(
          paper_spec(opts, "fig3-fig4", workloads::all_apps(),
                     paper_policies(), harness::paper_tolerances(), 1),
          opts);
    }
    return *paper_grid_;
  }

 private:
  std::optional<std::vector<Evaluation>> paper_grid_;
};

// -- table and CSV helpers ---------------------------------------------------

std::string tol_label(double tol) {
  return strf("%d%%", static_cast<int>(tol * 100 + 0.5));
}

/// "APP @ TOL", naming one grid point in the headline extractions.
std::string point_name(const Evaluation& e, double tol) {
  return workloads::app_name(e.app()) + " @ " + tol_label(tol);
}

/// Formats "val [min..max]" for error-bar style cells.
std::string with_bar(double val, double lo, double hi) {
  return strf("%6.2f [%6.2f..%6.2f]", val, lo, hi);
}

using Metric = double (Evaluation::*)(std::string_view, double) const;

/// One table per paper policy, a row per app and a column per tolerance;
/// `cell(eval, policy, tolerance)` renders each cell.
template <typename CellFn>
void per_policy_tables(const std::vector<Evaluation>& evals,
                       const char* what, CellFn&& cell) {
  for (const std::string& mode : paper_policies()) {
    std::printf("\n--- %s: %s ---\n", mode.c_str(), what);
    std::vector<std::string> header{"app"};
    for (double t : harness::paper_tolerances()) header.push_back(tol_label(t));
    TextTable table(header);
    for (const auto& e : evals) {
      std::vector<std::string> row{workloads::app_name(e.app())};
      for (double t : harness::paper_tolerances()) {
        row.push_back(cell(e, mode, t));
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }
}

/// per_policy_tables of one metric, two decimals.
void metric_tables(const std::vector<Evaluation>& evals, const char* what,
                   Metric metric) {
  per_policy_tables(
      evals, what,
      [metric](const Evaluation& e, const std::string& mode, double t) {
        return fmt_double((e.*metric)(mode, t));
      });
}

/// The largest `value(eval, tolerance)` over the grid, and where it is.
template <typename ValueFn>
std::pair<double, std::string> best_point(const std::vector<Evaluation>& evals,
                                          ValueFn&& value) {
  double best = -1e9;
  std::string where;
  for (const auto& e : evals) {
    for (double t : harness::paper_tolerances()) {
      const double v = value(e, t);
      if (v > best) {
        best = v;
        where = point_name(e, t);
      }
    }
  }
  return {best, where};
}

/// The CSV the Fig. 3 / Fig. 4 sections share: one row per app x {DUF,
/// DUFP} x tolerance, one three-decimal column per metric.  Writes under
/// DUFP_OUT_DIR and reports the path on stdout.
void write_grid_csv(
    const std::string& filename, const std::vector<Evaluation>& evals,
    const std::vector<std::pair<std::string, Metric>>& columns) {
  const std::string path = out_path(filename);
  CsvWriter csv(path);
  std::vector<std::string> header{"app", "mode", "tolerance_pct"};
  for (const auto& c : columns) header.push_back(c.first);
  csv.write_row(header);
  for (const auto& e : evals) {
    for (const std::string& mode : paper_policies()) {
      for (double t : harness::paper_tolerances()) {
        std::vector<std::string> row{workloads::app_name(e.app()), mode,
                                     fmt_double(t * 100, 0)};
        for (const auto& c : columns) {
          row.push_back(fmt_double((e.*c.second)(mode, t), 3));
        }
        csv.write_row(row);
      }
    }
  }
  std::printf("Raw series written to %s\n", path.c_str());
}

/// The ablation tables' values against the app's default run: slowdown,
/// processor power savings, DRAM power savings if `dram`, energy change.
std::vector<double> vs_default(const RepeatedResult& r,
                               const RepeatedResult& def, bool dram) {
  std::vector<double> v{
      harness::percent_over(r.exec_seconds.mean, def.exec_seconds.mean),
      -harness::percent_over(r.avg_pkg_power_w.mean,
                             def.avg_pkg_power_w.mean)};
  if (dram) {
    v.push_back(-harness::percent_over(r.avg_dram_power_w.mean,
                                       def.avg_dram_power_w.mean));
  }
  v.push_back(
      harness::percent_over(r.total_energy_j.mean, def.total_energy_j.mean));
  return v;
}

/// A count summed over one run's agents, per minute of execution.
double per_minute(const RunResult& res, std::uint64_t core::AgentStats::*n) {
  double total = 0.0;
  for (const auto& st : res.agent_stats) {
    total += static_cast<double>(st.*n);
  }
  return total / res.summary.exec_seconds * 60.0;
}

/// One ablation: a DUFP knob swept at 10 % tolerated slowdown, one table
/// per app against that app's default run.
struct Sweep {
  std::vector<std::string> columns;  ///< the knob's, then the values'
  std::vector<AppId> apps;
  std::uint64_t seed = 0;
  std::vector<double> values;
  int label_digits = 0;  ///< decimals of the knob's column
  void (*set)(RunConfig&, double) = nullptr;
  bool dram = false;  ///< a DRAM power savings column
  /// A last column read from one more run of each point; null = none.
  double (*rate)(const RunResult&) = nullptr;
};

void run_sweep(const Sweep& s, int reps) {
  for (AppId app : s.apps) {
    const std::string name = workloads::app_name(app);
    std::printf("\n--- %s, DUFP @ 10 %% tolerated slowdown ---\n",
                name.c_str());
    RunConfig base = harness::default_run_config(workloads::profile(app));
    base.seed = s.seed;
    const auto def = harness::run_repeated(base, reps);

    TextTable t(s.columns);
    for (double v : s.values) {
      const std::string label = fmt_double(v, s.label_digits);
      harness::note_progress(name + " " + s.columns[0] + " " + label);
      RunConfig cfg = base;
      cfg.policy_name = "DUFP";
      cfg.tolerated_slowdown = 0.10;
      s.set(cfg, v);
      std::vector<double> row =
          vs_default(harness::run_repeated(cfg, reps), def, s.dram);
      if (s.rate != nullptr) row.push_back(s.rate(harness::run_once(cfg)));
      t.add_row(label, row);
    }
    t.print(std::cout);
  }
}

/// One-line roll-up of a cell's health counters for fault-storm output.
std::string health_summary(const harness::HealthTotals& h) {
  return strf(
      "faults=%llu retries=%llu failures=%llu read_fail=%llu rejected=%llu "
      "degraded=%llu reengaged=%llu degraded_intervals=%llu",
      static_cast<unsigned long long>(h.faults_injected),
      static_cast<unsigned long long>(h.actuation_retries),
      static_cast<unsigned long long>(h.actuation_failures),
      static_cast<unsigned long long>(h.sample_read_failures),
      static_cast<unsigned long long>(h.samples_rejected),
      static_cast<unsigned long long>(h.degradations),
      static_cast<unsigned long long>(h.reengagements),
      static_cast<unsigned long long>(h.intervals_degraded));
}

// -- Table I -----------------------------------------------------------------

// Read back through the same MSR/powercap interfaces the runtime uses, not
// hard-coded, so the table doubles as a smoke test of the register
// plumbing.
void table1(Context& ctx) {
  print_banner("Table I: target architecture characteristics",
               "Table I (Sec. IV-A)");

  // The machine the banner names.
  hw::MachineConfig machine;
  machine.sockets = ctx.opts.sockets;
  hw::MachineModel model(machine);
  msr::SimulatedMsr dev(machine.socket.cores);
  rapl::RaplEngine engine(model.socket(0), dev);
  powercap::PackageZone zone(dev);
  powercap::UncoreControl uncore(dev);
  const auto long_term = powercap::ConstraintId::long_term;
  const auto short_term = powercap::ConstraintId::short_term;

  TextTable t({"cores", "uncore frequency (GHz)", "long term (W)",
               "short term (W)"});
  t.add_row({std::to_string(machine.sockets * machine.socket.cores),
             strf("[%.1f-%.1f]", uncore.window_min_mhz() / 1000.0,
                  uncore.window_max_mhz() / 1000.0),
             fmt_double(zone.power_limit_w(long_term), 0),
             fmt_double(zone.power_limit_w(short_term), 0)});
  t.print(std::cout);

  std::printf("\nPer-socket details (from MSRs):\n");
  TextTable d({"property", "value"});
  d.add_row({"model", machine.socket.model_name});
  d.add_row({"sockets", std::to_string(machine.sockets)});
  d.add_row({"cores/socket", std::to_string(machine.socket.cores)});
  d.add_row({"core clock (all-core max)",
             strf("%.1f GHz", machine.socket.core_max_mhz / 1000.0)});
  d.add_row({"core base clock",
             strf("%.1f GHz", machine.socket.core_base_mhz / 1000.0)});
  d.add_row({"TDP (MSR_PKG_POWER_INFO)", strf("%.0f W", zone.tdp_w())});
  d.add_row({"long-term window",
             strf("%.3f s", zone.time_window_s(long_term))});
  d.add_row({"short-term window",
             strf("%.4f s", zone.time_window_s(short_term))});
  d.add_row({"uncore step", strf("%.0f MHz", machine.socket.uncore_step_mhz)});
  d.add_row({"cap step (DUFP policy)", "5 W"});
  d.add_row({"minimum cap (DUFP policy)", "65 W"});
  d.print(std::cout);

  std::printf("\nPaper reference: 64 cores, uncore [1.2-2.4] GHz, "
              "long term 125 W, short term 150 W.\n");
}

// -- Fig. 1: CG under static and phase caps (Sec. II-A) ----------------------

/// CG on the default machine, as every Fig. 1 configuration starts.
RunConfig cg_config(std::uint64_t seed) {
  RunConfig cfg = harness::default_run_config(workloads::profile(AppId::cg));
  cfg.seed = seed;
  return cfg;
}

/// The power budget allocated to the processor: 125 W per socket.
double cg_budget_w(const RunConfig& cfg) {
  return cfg.machine.socket.long_term_default_w * cfg.machine.sockets;
}

struct CapConfig {
  const char* label;
  const char* policy;  ///< registry name; "" = no controller
  std::optional<double> cap;
};

// Fig. 1a: the default configuration, DUF alone, and DUF with static caps
// of 110 W and 100 W programmed before the run, as ratios over the
// default execution time and over the processor's power budget.
void fig1a(Context& ctx) {
  print_banner("Fig. 1a: power capping on CG (whole run)",
               "Fig. 1a (Sec. II-A)");

  const RunConfig base = cg_config(101);
  const double budget_w = cg_budget_w(base);
  const CapConfig configs[] = {
      {"default", "", std::nullopt},
      {"uncore freq. scaling (DUF)", "DUF", std::nullopt},
      {"DUF + power cap 110 W", "DUF", 110.0},
      {"DUF + power cap 100 W", "DUF", 100.0},
  };

  std::optional<RepeatedResult> def;
  TextTable t({"configuration", "exec time ratio", "power / budget",
               "overhead %", "power savings vs budget %"});
  for (const auto& c : configs) {
    harness::note_progress(c.label);
    RunConfig cfg = base;
    cfg.policy_name = c.policy;
    cfg.tolerated_slowdown = 0.05;  // DUF's uncore tolerance in the figure
    cfg.static_cap_w = c.cap;
    const auto r = harness::run_repeated(cfg, ctx.opts.repetitions);
    if (!def) def = r;
    const double time_ratio = r.exec_seconds.mean / def->exec_seconds.mean;
    const double power_ratio = r.avg_pkg_power_w.mean / budget_w;
    t.add_row({c.label, fmt_double(time_ratio, 3), fmt_double(power_ratio, 3),
               fmt_double((time_ratio - 1.0) * 100.0, 2),
               fmt_double((1.0 - power_ratio) * 100.0, 2)});
  }
  t.print(std::cout);

  std::printf(
      "\nPaper's observations to compare against (ratios over the 125 W\n"
      "budget): UFS alone saves little; +110 W cap ~16 %% savings at\n"
      "~7.15 %% overhead; +100 W cap ~24 %% savings at ~12 %% overhead —\n"
      "static caps save power but the overhead is uncontrolled.\n");
}

// Fig. 1b: the cap applies only while CG's memory-intensive `init` phase
// runs (about 5 % of the execution); the figure reports that phase's
// power as a ratio over the processor budget.
void fig1b(Context& ctx) {
  print_banner(
      "Fig. 1b: power of CG's memory phase under partial capping",
      "Fig. 1b (Sec. II-A)");

  const RunConfig base = cg_config(102);
  const double budget_w = cg_budget_w(base);
  const CapConfig configs[] = {
      {"default", "", std::nullopt},
      {"uncore freq. scaling (DUF)", "DUF", std::nullopt},
      {"DUF + phase cap 110 W", "DUF", 110.0},
      {"DUF + phase cap 100 W", "DUF", 100.0},
  };

  TextTable t({"configuration", "phase power (W)", "phase power / budget",
               "phase savings vs budget %", "phase duration (s)"});
  for (const auto& c : configs) {
    harness::note_progress(c.label);
    RunConfig cfg = base;
    cfg.policy_name = c.policy;
    cfg.tolerated_slowdown = 0.05;
    if (c.cap.has_value()) {
      cfg.phase_cap = harness::PhaseCapSpec{"init", *c.cap};
    }
    const auto r = harness::run_repeated(cfg, ctx.opts.repetitions);
    const auto& init = r.mean_phase_totals.at("init");
    const double phase_power = init.pkg_energy_j / init.wall_seconds;
    t.add_row({c.label, fmt_double(phase_power, 1),
               fmt_double(phase_power / budget_w, 3),
               fmt_double((1.0 - phase_power / budget_w) * 100.0, 2),
               fmt_double(init.wall_seconds, 2)});
  }
  t.print(std::cout);

  std::printf(
      "\nPaper's observations: the studied phase consumes close to the\n"
      "full budget by default; a 110 W / 100 W cap cuts its power by\n"
      "~16 %% / ~19 %% over the budget, more than uncore scaling alone.\n");
}

// Fig. 1c: capping the memory-intensive first phase, even to 100 W, must
// not change CG's total execution time: phase-aware dynamic capping is
// free on memory-bound phases.
void fig1c(Context& ctx) {
  print_banner(
      "Fig. 1c: total execution time with partial power capping",
      "Fig. 1c (Sec. II-A)");

  const RunConfig base = cg_config(103);
  const CapConfig configs[] = {
      {"default", "", std::nullopt},
      {"phase cap 110 W on init", "", 110.0},
      {"phase cap 100 W on init", "", 100.0},
  };

  std::optional<RepeatedResult> def;
  TextTable t({"configuration", "exec time (s)", "time ratio",
               "overhead %"});
  for (const auto& c : configs) {
    harness::note_progress(c.label);
    RunConfig cfg = base;
    if (c.cap.has_value()) {
      cfg.phase_cap = harness::PhaseCapSpec{"init", *c.cap};
    }
    const auto r = harness::run_repeated(cfg, ctx.opts.repetitions);
    if (!def) def = r;
    const double ratio = r.exec_seconds.mean / def->exec_seconds.mean;
    t.add_row({c.label, fmt_double(r.exec_seconds.mean, 3),
               fmt_double(ratio, 4),
               fmt_double((ratio - 1.0) * 100.0, 2)});
  }
  t.print(std::cout);

  std::printf(
      "\nPaper's observation: reducing the power budget of the first\n"
      "phase does not impact the overall execution time at all.\n");
}

// -- Figs. 3 and 4: the evaluation grid (Sec. V) -----------------------------

void fig3a(Context& ctx) {
  print_banner("Fig. 3a: impact on performance (slowdown %)",
               "Fig. 3a (Sec. V-A)");
  const auto& evals = ctx.paper_grid();
  per_policy_tables(evals, "slowdown % (mean [min..max])",
                    [](const Evaluation& e, const std::string& mode, double t) {
                      return with_bar(e.slowdown_pct(mode, t),
                                      e.slowdown_pct_min(mode, t),
                                      e.slowdown_pct_max(mode, t));
                    });

  // Respect statistics, as the paper reports them (Sec. V-A).
  int total = 0;
  int respected = 0;
  double worst_excess = 0.0;
  std::string worst_config;
  for (const auto& e : evals) {
    for (double t : harness::paper_tolerances()) {
      ++total;
      const double excess = e.slowdown_pct("DUFP", t) - t * 100.0;
      if (excess <= 0.3) {
        ++respected;
      } else if (excess > worst_excess) {
        worst_excess = excess;
        worst_config = point_name(e, t);
      }
    }
  }
  std::printf(
      "\nDUFP respects the tolerated slowdown for %d of %d configurations"
      " (%.0f %%).\n", respected, total, 100.0 * respected / total);
  if (!worst_config.empty()) {
    std::printf("Largest excess beyond tolerance: %.2f points (%s).\n",
                worst_excess, worst_config.c_str());
  }
  std::printf(
      "Paper: respected for 34/40 (85 %%); remaining configurations stay\n"
      "within ~3 points (LAMMPS, CG @20, UA @0 are the violators).\n");

  std::printf("\n");
  write_grid_csv("fig3a_slowdown.csv", evals,
                 {{"slowdown_pct", &Evaluation::slowdown_pct},
                  {"min", &Evaluation::slowdown_pct_min},
                  {"max", &Evaluation::slowdown_pct_max}});
}

void fig3b(Context& ctx) {
  print_banner(
      "Fig. 3b: impact on processor power consumption (savings %)",
      "Fig. 3b (Sec. V-B)");
  const auto& evals = ctx.paper_grid();
  metric_tables(evals, "processor power savings %",
                &Evaluation::pkg_power_savings_pct);

  // Headline extractions matching the prose of Sec. V-B.
  const auto [best, best_cfg] =
      best_point(evals, [](const Evaluation& e, double t) {
        return e.pkg_power_savings_pct("DUFP", t);
      });
  const auto [best_gap, gap_cfg] =
      best_point(evals, [](const Evaluation& e, double t) {
        return e.pkg_power_savings_pct("DUFP", t) -
               e.pkg_power_savings_pct("DUF", t);
      });
  std::printf("\nBest DUFP savings: %.2f %% (%s).   [paper: 24.27 %% on EP]\n",
              best, best_cfg.c_str());
  std::printf(
      "Largest DUFP-over-DUF improvement: %.2f points (%s).   "
      "[paper: +7.90 points on CG @20%%]\n", best_gap, gap_cfg.c_str());

  write_grid_csv("fig3b_processor_power.csv", evals,
                 {{"power_savings_pct", &Evaluation::pkg_power_savings_pct}});
}

void fig3c(Context& ctx) {
  print_banner(
      "Fig. 3c: impact on CPU+DRAM energy consumption (change %)",
      "Fig. 3c (Sec. V-D)");
  const auto& evals = ctx.paper_grid();
  metric_tables(evals, "total energy change % (negative = saved)",
                &Evaluation::energy_change_pct);

  int loss_at_20 = 0;
  int loss_at_10 = 0;
  for (const auto& e : evals) {
    if (e.energy_change_pct("DUFP", 0.20) > 0.3) ++loss_at_20;
    if (e.energy_change_pct("DUFP", 0.10) > 0.3) ++loss_at_10;
  }
  std::printf(
      "\nApplications losing energy with DUFP: %d at 20 %% tolerance, %d at"
      " 10 %%.\n", loss_at_20, loss_at_10);
  std::printf(
      "Paper: energy loss appears at 20 %% (LAMMPS, CG, LU, MG) and for MG\n"
      "at 10 %%; up to 10 %% tolerance most applications lose no energy,\n"
      "and CG @10 %% saves ~4.7 %% energy on top of ~14 %% power.\n");

  write_grid_csv("fig3c_energy.csv", evals,
                 {{"energy_change_pct", &Evaluation::energy_change_pct}});
}

void fig4(Context& ctx) {
  print_banner("Fig. 4: impact on DRAM power consumption (savings %)",
               "Fig. 4 (Sec. V-C)");
  const auto& evals = ctx.paper_grid();
  metric_tables(evals, "DRAM power savings %",
                &Evaluation::dram_power_savings_pct);

  const auto [best, best_cfg] =
      best_point(evals, [](const Evaluation& e, double t) {
        return e.dram_power_savings_pct("DUFP", t);
      });
  std::printf("\nBest DUFP DRAM savings: %.2f %% (%s).\n", best,
              best_cfg.c_str());
  std::printf(
      "Paper: savings for most configurations, best ~8.83 %% on CG @20 %%;\n"
      "only MG @0 %% shows a small (~0.8 %%) loss.\n");

  write_grid_csv("fig4_dram_power.csv", evals,
                 {{"dram_savings_pct", &Evaluation::dram_power_savings_pct}});
}

// -- Fig. 5: core frequency, CG @ 10 % (Sec. V-E) ----------------------------

struct TraceSummary {
  RunningStats freq_ghz;
  double fraction_at_max = 0.0;
};

TraceSummary run_with_trace(const std::string& policy,
                            const std::string& csv_path) {
  RunConfig cfg = cg_config(105);
  cfg.policy_name = policy;
  cfg.tolerated_slowdown = 0.10;

  sim::VectorTraceSink sink(/*decimation=*/10);  // 10 ms resolution
  cfg.trace = &sink;
  harness::run_once(cfg);

  // Persist the (core 0) trace for plotting.
  CsvWriter csv(csv_path);
  csv.write_row({"time_s", "core_mhz", "uncore_mhz", "cap_long_w",
                 "pkg_power_w"});
  TraceSummary out;
  long at_max = 0;
  for (const auto& e : sink.entries()) {
    const auto& r = e.sockets[0];
    csv.write_row({fmt_double(e.time.seconds(), 3), fmt_double(r.core_mhz, 0),
                   fmt_double(r.uncore_mhz, 0), fmt_double(r.cap_long_w, 1),
                   fmt_double(r.pkg_power_w, 2)});
    out.freq_ghz.add(r.core_mhz / 1000.0);
    if (r.core_mhz >= 2800.0f - 1.0f) ++at_max;
  }
  out.fraction_at_max =
      static_cast<double>(at_max) / static_cast<double>(sink.entries().size());
  return out;
}

// With uncore scaling alone the core clock sits at the 2.8 GHz all-core
// maximum for most of the run; adding dynamic capping pulls the average
// down to ~2.5 GHz, the mechanism behind DUFP's extra power savings.
void fig5(Context&) {
  print_banner(
      "Fig. 5: core frequency behaviour, CG @ 10 % tolerated slowdown",
      "Fig. 5 (Sec. V-E)");

  harness::note_progress("DUF trace");
  const auto duf = run_with_trace("DUF", out_path("fig5_duf_trace.csv"));
  harness::note_progress("DUFP trace");
  const auto dufp = run_with_trace("DUFP", out_path("fig5_dufp_trace.csv"));

  TextTable t({"configuration", "avg frequency (GHz)", "min (GHz)",
               "time at 2.8 GHz max (%)"});
  t.add_row({"DUF", fmt_double(duf.freq_ghz.mean(), 2),
             fmt_double(duf.freq_ghz.min(), 2),
             fmt_double(duf.fraction_at_max * 100.0, 1)});
  t.add_row({"DUFP", fmt_double(dufp.freq_ghz.mean(), 2),
             fmt_double(dufp.freq_ghz.min(), 2),
             fmt_double(dufp.fraction_at_max * 100.0, 1)});
  t.print(std::cout);

  std::printf(
      "\nPaper: with DUF the frequency is at the 2.8 GHz all-core maximum\n"
      "for the majority of the execution; with DUFP the average observed\n"
      "frequency drops to ~2.5 GHz.\n");
  std::printf(
      "Traces written to %s / %s (10 ms resolution, socket 0).\n",
      out_path("fig5_duf_trace.csv").c_str(),
      out_path("fig5_dufp_trace.csv").c_str());
}

// -- ablations and baselines -------------------------------------------------

// The paper fixes 200 ms as the trade-off between controller overhead and
// reaction latency (Sec. IV-D) and blames the UA and LAMMPS tolerance
// violations on variations the 200 ms sampler misses (Sec. V-A).
void ablation_interval(Context& ctx) {
  print_banner("Ablation: control interval (paper default 200 ms)",
               "Sec. IV-D / V-A discussion");
  Sweep s;
  s.columns = {"interval (ms)", "slowdown %", "power savings %",
               "energy change %", "actuations / s"};
  s.apps = {AppId::ua, AppId::lammps, AppId::cg};
  s.seed = 301;
  s.values = {50, 100, 200, 400};
  s.set = [](RunConfig& cfg, double ms) {
    cfg.policy.interval = SimTime::from_millis(static_cast<std::int64_t>(ms));
  };
  s.rate = [](const RunResult& res) {
    double actions = 0.0;
    for (const auto& st : res.agent_stats) {
      actions += static_cast<double>(
          st.cap_decreases + st.cap_increases + st.cap_resets +
          st.uncore_decreases + st.uncore_increases + st.uncore_resets);
    }
    return actions / res.summary.exec_seconds;
  };
  run_sweep(s, ctx.opts.repetitions);

  std::printf(
      "\nExpected shape: 50 ms reacts fastest (best tolerance compliance\n"
      "on UA/LAMMPS) at the cost of several times more actuator writes;\n"
      "400 ms leaves savings on the table and misses phase changes.\n");
}

// Sec. IV-A: only highly memory-intensive applications sustain low caps,
// and lower caps cut memory bandwidth.  Below 65 W the memory-level
// parallelism lost to deep core throttling lets the slowdown of
// memory-bound applications escape the tolerance.
void ablation_min_cap(Context& ctx) {
  print_banner("Ablation: minimum power cap (paper default 65 W)",
               "Sec. IV-A discussion");
  Sweep s;
  s.columns = {"min cap (W)", "slowdown %", "power savings %",
               "DRAM power savings %", "energy change %"};
  s.apps = {AppId::cg, AppId::ft};
  s.seed = 302;
  s.values = {45.0, 55.0, 65.0, 75.0, 85.0};
  s.set = [](RunConfig& cfg, double w) { cfg.policy.min_cap_w = w; };
  s.dram = true;
  run_sweep(s, ctx.opts.repetitions);

  std::printf(
      "\nExpected shape: marginal extra savings below 65 W, bought with\n"
      "growing bandwidth-driven slowdown on memory-intensive phases.\n");
}

// Small steps probe gently but take many intervals to reach deep caps;
// large steps reach savings faster but overshoot the tolerance boundary
// and trigger more resets (paper default 5 W, Sec. IV-A).
void ablation_cap_step(Context& ctx) {
  print_banner("Ablation: power cap step (paper default 5 W)",
               "Sec. IV-A discussion");
  Sweep s;
  s.columns = {"cap step (W)", "slowdown %", "power savings %",
               "energy change %", "cap resets / min"};
  s.apps = {AppId::cg, AppId::ep};
  s.seed = 303;
  s.values = {2.5, 5.0, 10.0, 20.0};
  s.label_digits = 1;
  s.set = [](RunConfig& cfg, double w) { cfg.policy.cap_step_w = w; };
  s.rate = [](const RunResult& res) {
    return per_minute(res, &core::AgentStats::cap_resets);
  };
  run_sweep(s, ctx.opts.repetitions);
}

// DUFP-F, the paper's Sec. VII future work ("better handling CPU
// frequency under power capping"): like DUFP, but whenever the cap is
// active and the controller steady it pins the core clock via
// IA32_PERF_CTL one P-state above the observed equilibrium, so RAPL stops
// hunting around the cap.
void ablation_freq_control(Context& ctx) {
  print_banner(
      "Extension: DUFP-F (direct frequency management under capping)",
      "Sec. VII future work");
  const std::vector<std::string> policies{"DUFP", "DUFP-F"};
  const auto evals = run_grid(
      paper_spec(ctx.opts, "ablation_freq_control",
                 {AppId::cg, AppId::hpl, AppId::lammps}, policies, {0.10},
                 304),
      ctx.opts);

  for (const auto& e : evals) {
    const std::string name = workloads::app_name(e.app());
    std::printf("\n--- %s @ 10 %% tolerated slowdown ---\n", name.c_str());
    TextTable t({"configuration", "slowdown %", "power savings %",
                 "energy change %", "p-state pins / min"});
    for (const std::string& policy : policies) {
      harness::note_progress(name + " " + policy + " pins");
      RunConfig cfg = harness::default_run_config(workloads::profile(e.app()));
      cfg.seed = 304;
      cfg.policy_name = policy;
      cfg.tolerated_slowdown = 0.10;
      std::vector<double> row = vs_default(e.at(policy, 0.10), e.baseline(),
                                           /*dram=*/false);
      row.push_back(
          per_minute(harness::run_once(cfg), &core::AgentStats::pstate_pins));
      t.add_row(policy, row);
    }
    t.print(std::cout);
  }

  std::printf(
      "\nExpected shape: DUFP-F matches DUFP's savings with equal or\n"
      "slightly lower power (no RAPL hunting above the equilibrium) and\n"
      "no additional slowdown.\n");
}

// The paper could not run DNPC (Sec. VI) on its platform but argues its
// linear frequency-performance model breaks on memory-intensive and
// vectorized applications: on memory-bound codes DNPC returns headroom as
// soon as the clock dips, while DUFP's FLOPS feedback keeps it.
void baseline_dnpc(Context& ctx) {
  print_banner("Baseline: DNPC-style frequency-model capping vs DUFP",
               "Sec. VI related-work discussion");
  const auto evals =
      run_grid(paper_spec(ctx.opts, "baseline_dnpc", workloads::all_apps(),
                          {"DNPC", "DUFP"}, {0.10}, 305),
               ctx.opts);

  TextTable t({"app", "DNPC slowdown %", "DNPC savings %",
               "DUFP slowdown %", "DUFP savings %"});
  for (const auto& e : evals) {
    t.add_row(workloads::app_name(e.app()),
              {e.slowdown_pct("DNPC", 0.10),
               e.pkg_power_savings_pct("DNPC", 0.10),
               e.slowdown_pct("DUFP", 0.10),
               e.pkg_power_savings_pct("DUFP", 0.10)});
  }
  t.print(std::cout);

  std::printf(
      "\nExpected shape (10 %% tolerated slowdown): the frequency model\n"
      "cuts both ways.  On memory-bound codes (CG, MG) DNPC forfeits\n"
      "savings DUFP takes — it predicts slowdown from the clock dip and\n"
      "backs off although throughput is fine.  On EP it has no uncore\n"
      "lever at all (10 %% vs DUFP's ~18 %%), and on bursty codes\n"
      "(LAMMPS) its estimate lags and the limit is overrun.  Where FLOPS\n"
      "fluctuate without real slowdown (BT), frequency-blindness lets\n"
      "DNPC cap deeper than DUFP's conservative FLOPS feedback.\n");
}

// -- robustness --------------------------------------------------------------

// CG under each controller while the substrate injects transient MSR
// errors, msr-safe write denials, bit flips, stale / dropped samples and
// a forced RAPL energy wraparound: what the agents absorbed (retries),
// what they gave up on (failures, degradations) and what it cost against
// the same storm-free run.  This section always storms: DUFP_FAULT_RATE,
// default 0.02 here.  With DUFP_TELEMETRY=1 it also runs one instrumented
// DUFP repetition and exports its whole telemetry plane (Prometheus,
// Chrome trace JSON, JSONL and the watchdog flight-recorder dumps).
void fault_storm(Context& ctx) {
  const auto& opts = ctx.opts;
  const double rate = opts.fault_rate > 0.0 ? opts.fault_rate : 0.02;

  print_banner("Fault storm: controller robustness under substrate "
               "failures",
               "robustness extension (no paper figure)");
  std::printf("Storm: rate %g, seed %llu, forced energy wraparound\n\n", rate,
              static_cast<unsigned long long>(opts.fault_seed));

  const std::vector<std::string> modes{"DUF", "DUFP", "DUFP-F", "DNPC"};

  // Storm-free reference for the cost-of-faults column.
  RunConfig base = harness::default_run_config(workloads::profile(AppId::cg));
  base.tolerated_slowdown = 0.10;
  base.faults = faults::FaultOptions{};  // clean, whatever the env says

  const std::string csv_path = out_path("fault_storm.csv");
  CsvWriter csv(csv_path);
  csv.write_row({"mode", "exec_s", "exec_s_clean", "avg_pkg_power_w",
                 "faults_injected", "actuation_retries", "actuation_failures",
                 "sample_read_failures", "samples_rejected", "degradations",
                 "reengagements", "intervals_degraded"});

  TextTable table({"mode", "exec s (storm)", "exec s (clean)", "health"});
  for (const std::string& mode : modes) {
    RunConfig clean = base;
    clean.policy_name = mode;
    const auto ref = harness::run_repeated(clean, opts.repetitions);

    RunConfig storm = clean;
    storm.faults = faults::FaultOptions::storm(rate, opts.fault_seed);
    const auto res = harness::run_repeated(storm, opts.repetitions);

    table.add_row({mode,
                   strf("%7.2f", res.exec_seconds.mean),
                   strf("%7.2f", ref.exec_seconds.mean),
                   health_summary(res.health)});
    csv.write_row({mode,
                   fmt_double(res.exec_seconds.mean, 3),
                   fmt_double(ref.exec_seconds.mean, 3),
                   fmt_double(res.avg_pkg_power_w.mean, 3),
                   std::to_string(res.health.faults_injected),
                   std::to_string(res.health.actuation_retries),
                   std::to_string(res.health.actuation_failures),
                   std::to_string(res.health.sample_read_failures),
                   std::to_string(res.health.samples_rejected),
                   std::to_string(res.health.degradations),
                   std::to_string(res.health.reengagements),
                   std::to_string(res.health.intervals_degraded)});
  }
  table.print(std::cout);

  std::printf(
      "\nEvery run completed under the storm; degraded sockets fail safe\n"
      "to the hardware defaults and re-engage with exponential backoff.\n"
      "Raw series written to %s\n", csv_path.c_str());

  if (opts.telemetry) {
    // One instrumented DUFP repetition under the same storm: the flight
    // recorders capture the interval-by-interval history and every
    // watchdog fail-open dumps the last moments before degradation.
    RunConfig instr = base;
    instr.policy_name = "DUFP";
    instr.faults = faults::FaultOptions::storm(rate, opts.fault_seed);
    instr.telemetry.enabled = true;
    const auto res = harness::run_once(instr);
    const auto files = telemetry::export_run(
        *res.telemetry, out_path("fault_storm_telemetry"));
    std::printf("\nTelemetry (1 instrumented DUFP run, %zu metric series, "
                "%zu flight dumps):\n",
                res.telemetry->metrics.size(), res.telemetry->dumps.size());
    for (const auto& f : files) std::printf("  %s\n", f.c_str());
  }
}

// -- the driver --------------------------------------------------------------

struct Section {
  const char* name;
  void (*run)(Context&);
};

/// DESIGN.md §4's order; `paper` with no argument runs them all.
constexpr Section kSections[] = {
    {"table1", table1},
    {"fig1a", fig1a},
    {"fig1b", fig1b},
    {"fig1c", fig1c},
    {"fig3a", fig3a},
    {"fig3b", fig3b},
    {"fig3c", fig3c},
    {"fig4", fig4},
    {"fig5", fig5},
    {"ablation_interval", ablation_interval},
    {"ablation_min_cap", ablation_min_cap},
    {"ablation_cap_step", ablation_cap_step},
    {"ablation_freq_control", ablation_freq_control},
    {"baseline_dnpc", baseline_dnpc},
    {"fault_storm", fault_storm},
};
constexpr std::size_t kSectionCount = std::size(kSections);

int run_main(int argc, char** argv) {
  bool chosen[kSectionCount] = {};
  for (int a = 1; a < argc; ++a) {
    const std::string_view want = argv[a];
    std::size_t i = 0;
    while (i < kSectionCount && want != kSections[i].name) ++i;
    if (i == kSectionCount) {
      std::string known;
      for (const Section& s : kSections) known += std::string(" ") + s.name;
      std::fprintf(stderr, "paper: unknown section \"%s\"; known:%s\n",
                   argv[a], known.c_str());
      return 2;
    }
    chosen[i] = true;
  }
  const bool all = argc == 1;

  Context ctx;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    if (all || chosen[i]) kSections[i].run(ctx);
  }
  return 0;
}

}  // namespace
}  // namespace dufp::bench

int main(int argc, char** argv) {
  try {
    return dufp::bench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paper: %s\n", e.what());
    return 1;
  }
}
