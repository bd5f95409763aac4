// dufp_shard_worker — one process of a sharded grid or fleet run.
//
// Every verb takes either kind of spec (only `plan` is grid-only): an
// experiment grid (dufp-grid-spec, DESIGN.md § Sharded execution) or a
// fleet (dufp-fleet-spec, DESIGN.md § Fleet-scale hierarchical power
// budgeting), told apart by the "format" key of the --spec document or of
// the --resume manifest.  A fleet job is one node simulation under the
// hierarchical allocation plan; the wire/lease/salvage/resume/exit-code
// contract is the same for both kinds.
//
// Subcommands (see tools/shard_run.sh for the orchestrated flow and
// DESIGN.md § Sharded execution / § Failure model for the contract):
//
//   spec   [--reference [grid|fleet] | --spec FILE]
//          Print the canonical spec JSON (+ fingerprint to stderr).
//          `--reference` (the default; kind grid unless named) emits a
//          built-in reference spec — the starting point for writing
//          custom specs.
//
//   plan   --spec FILE
//          Print a grid's job table (job, cell, repetition, seed) —
//          identical in every process, which is what makes job indices
//          portable shard identities.
//
//   run    (--spec FILE | --resume MANIFEST) --out FILE
//          [--shard K --shards N] [--threads T]
//          [--chunk-size C --claim-dir DIR] [--owner ID] [--lease-ttl S]
//          [--attempt A]
//          Execute this worker's share of the jobs and stream the
//          versioned JSONL to --out: a header line (wire version 2),
//          then one {"job":J,"result":{...}} record per job, doubles as
//          hex bit patterns.  Each grid record is self-contained: its
//          telemetry names every metric family once in its own help
//          table, omits zero fields, and carries flight events and
//          dumps only for job 0.  The stream goes to `FILE.partial`
//          and is fsync'd + atomically renamed to FILE on success, so a
//          crash never leaves a half-written file that passes the
//          header check — torn output stays honestly `.partial` and is
//          exactly what `gather --partial` salvages.  Default is static
//          round-robin; --chunk-size switches to dynamic lease-based
//          chunk claiming in --claim-dir (owner id + heartbeat + TTL
//          steal; a crashed worker's chunks become reclaimable after
//          --lease-ttl seconds).  --resume runs exactly the manifest's
//          missing jobs (the spec is embedded in the manifest).
//          DUFP_CHAOS / DUFP_CHAOS_SEED inject seeded self-SIGKILLs for
//          recovery drills.
//
//   gather --spec FILE --out PREFIX [--partial] FILES...
//          Merge shard JSONL files: validates headers/fingerprints
//          (a file of another wire version exits 3), demands every job
//          exactly once, aggregates bit-identically to a serial run,
//          and writes the outputs: for a grid PREFIX.csv (+ PREFIX.prom
//          and job 0's PREFIX.job0.* exports when the spec has
//          telemetry on), for a fleet PREFIX.alloc.csv (per-epoch
//          allocation trace), PREFIX.summary.csv (fleet scorecard) and
//          PREFIX.prom (fleet telemetry).  With --partial it salvages
//          every complete record from damaged files, tolerates
//          idempotent duplicates, and — when jobs are still missing —
//          writes a versioned retry manifest to PREFIX.retry.json and
//          exits 6 instead of failing.
//
//   serial --spec FILE --out PREFIX [--threads T]
//          Run the whole spec in this process and write the same
//          outputs — the byte-identical reference for `gather`.
//
//   supervise --spec FILE --out-dir DIR [--workers N] [--chunk-size C]
//          [--threads T] [--lease-ttl S] [--max-restarts R]
//          [--deadline S] [--gather PREFIX]
//          Run the spec under the fault-tolerant ShardSupervisor:
//          dynamic-mode workers are forked, monitored, restarted with
//          exponential backoff when they crash, and a chunk that kills
//          its worker twice is quarantined.  With --gather, finishes
//          with a partial gather of everything the workers produced.
//
// --threads sizes a grid worker's thread pool; fleet node runs are
// single-threaded, so a fleet spec refuses the flag.  Flags are strict:
// a flag the verb does not take, a flag given twice, a stray argument,
// or a number that is not the whole token or is out of the flag's range
// is a usage error.
//
// Exit codes (stable contract, used by tools/ and the supervisor):
//   0  success
//   1  internal error (unexpected exception)
//   2  usage error (bad flags)
//   3  spec/format mismatch (wrong format, version, fingerprint, or an
//      invalid spec/manifest: not JSON, a key missing, unknown or of the
//      wrong type, a value out of range)
//   4  job execution failure (the simulation itself threw)
//   5  I/O failure (cannot open a spec or manifest, cannot
//      open/write/fsync/rename an output)
//   6  incomplete gather (--partial salvaged what it could and wrote a
//      retry manifest) or incomplete supervision
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "fleet/shard.h"
#include "harness/options.h"
#include "harness/shard.h"
#include "harness/supervisor.h"
#include "telemetry/export.h"

namespace {

namespace json = dufp::json;
using dufp::strf;
using dufp::fleet::FleetOutputs;
using dufp::fleet::FleetSpec;
using dufp::harness::GatherOptions;
using dufp::harness::GridOutputs;
using dufp::harness::GridSpec;
using dufp::harness::RetryManifest;
using dufp::harness::ShardFormatError;

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitSpec = 3;
constexpr int kExitJob = 4;
constexpr int kExitIo = 5;
constexpr int kExitIncomplete = 6;

/// An error that already knows its documented exit code.
struct CliError : std::runtime_error {
  CliError(int code_in, const std::string& what)
      : std::runtime_error(what), code(code_in) {}
  int code;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "dufp_shard_worker: %s\n", what.c_str());
  std::fprintf(
      stderr,
      "usage: dufp_shard_worker spec [--reference [grid|fleet] | --spec"
      " FILE]\n"
      "       dufp_shard_worker plan --spec FILE\n"
      "       dufp_shard_worker run (--spec FILE | --resume MANIFEST)"
      " --out FILE\n"
      "           [--shard K --shards N] [--threads T]"
      " [--chunk-size C --claim-dir DIR]\n"
      "           [--owner ID] [--lease-ttl S] [--attempt A]\n"
      "       dufp_shard_worker gather --spec FILE --out PREFIX"
      " [--partial] FILES...\n"
      "       dufp_shard_worker serial --spec FILE --out PREFIX"
      " [--threads T]\n"
      "       dufp_shard_worker supervise --spec FILE --out-dir DIR"
      " [--workers N]\n"
      "           [--chunk-size C] [--threads T] [--lease-ttl S]"
      " [--max-restarts R]\n"
      "           [--deadline S] [--gather PREFIX]\n"
      "a spec FILE is a grid or a fleet (its \"format\" key says which);"
      " --threads is\n"
      "for grids only (fleet node runs are single-threaded)\n"
      "exit codes: 0 ok, 1 internal, 2 usage, 3 spec mismatch, 4 job"
      " failure,\n"
      "            5 I/O failure, 6 incomplete (retry manifest written)\n");
  std::exit(kExitUsage);
}

/// What a flag takes after its name.
enum class Takes { value, nothing, optional_value };

struct Flag {
  const char* name;
  Takes takes = Takes::value;
};

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  bool has(const std::string& key) const { return options.count(key) != 0; }

  const std::string& require(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) usage_error("--" + key + " is required");
    return it->second;
  }
};

struct Verb {
  const char* name;
  int (*run)(const Args&);
  std::vector<Flag> flags;
  bool takes_files = false;  ///< positional FILES... (gather only)
};

/// Parses argv[2..] against `verb`'s flags; anything else is a usage
/// error naming it.
Args parse_args(const Verb& verb, int argc, char** argv) {
  Args args;
  const auto is_flag = [](const std::string& s) {
    return s.rfind("--", 0) == 0;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!is_flag(arg)) {
      if (!verb.takes_files) {
        usage_error(std::string(verb.name) + " takes no argument '" + arg +
                    "'");
      }
      args.positional.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(2);
    const auto flag = std::find_if(
        verb.flags.begin(), verb.flags.end(),
        [&key](const Flag& f) { return key == f.name; });
    if (flag == verb.flags.end()) {
      usage_error(std::string(verb.name) + " does not take --" + key);
    }
    std::string value;
    if (flag->takes != Takes::nothing && i + 1 < argc &&
        !is_flag(argv[i + 1])) {
      value = argv[++i];
    } else if (flag->takes == Takes::value) {
      usage_error("missing value for --" + key);
    }
    if (!args.options.emplace(key, value).second) {
      usage_error("--" + key + " given twice");
    }
  }
  return args;
}

/// The integer value of --key (`fallback` when absent): the whole token
/// must be an integer >= `min`.
int get_int(const Args& args, const std::string& key, int fallback, int min) {
  const auto it = args.options.find(key);
  if (it == args.options.end()) return fallback;
  const std::string& text = it->second;
  int value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value < min) {
    usage_error(strf("--%s wants an integer >= %d, got '%s'", key.c_str(),
                     min, text.c_str()));
  }
  return value;
}

/// The number value of --key (`fallback` when absent): the whole token
/// must be a finite number.
double get_double(const Args& args, const std::string& key, double fallback) {
  const auto it = args.options.find(key);
  if (it == args.options.end()) return fallback;
  const std::string& text = it->second;
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    usage_error(strf("--%s wants a number, got '%s'", key.c_str(),
                     text.c_str()));
  }
  return value;
}

/// --threads for a grid worker's thread pool.
int threads_flag(const GridSpec&, const Args& args) {
  return get_int(args, "threads", 1, 1);
}

/// Fleet node runs are single-threaded: refuse --threads rather than
/// ignore it.
int threads_flag(const FleetSpec&, const Args& args) {
  if (args.has("threads")) {
    usage_error("--threads does not apply to a fleet spec (its node runs "
                "are single-threaded)");
  }
  return 1;
}

/// The text of the document at `path`; a file that cannot be opened is
/// an I/O failure.
std::string read_document(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw CliError(kExitIo, "cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Calls `fn` with the document at `path` parsed as `Fleet` when its
/// "format" key is `fleet_format`, else as `Grid` (whose from_json
/// rejects every format but its own).  Anything wrong with the document
/// is a ShardFormatError; `fn` runs outside that mapping.
template <class Grid, class Fleet, class Fn>
int with_kind(const std::string& path, const char* fleet_format, Fn fn) {
  const std::string text = read_document(path);
  std::optional<Grid> grid;
  std::optional<Fleet> fleet;
  dufp::harness::parse_document([&] {
    const json::Value doc = json::parse(text);
    if (doc.at("format").as_string() == fleet_format) {
      fleet.emplace(Fleet::from_json(doc));
    } else {
      grid.emplace(Grid::from_json(doc));
    }
  });
  return fleet.has_value() ? fn(*fleet) : fn(*grid);
}

template <class Fn>
int with_spec(const Args& args, Fn fn) {
  return with_kind<GridSpec, FleetSpec>(
      args.require("spec"), dufp::fleet::kFleetSpecFormat, fn);
}

/// DUFP_CHAOS / DUFP_CHAOS_SEED through the strict aggregated-validation
/// env parser (a typo must fail loudly, like every other DUFP_ knob).
dufp::harness::ChaosOptions chaos_from_env() {
  const auto env = dufp::harness::BenchOptions::from_env();
  dufp::harness::ChaosOptions chaos;
  chaos.kill_rate = env.chaos_kill_rate;
  chaos.seed = env.chaos_seed;
  return chaos;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) throw CliError(kExitIo, "cannot write " + path);
  f << text;
}

void write_output(const std::string& path, const std::string& text) {
  write_file(path, text);
  std::fprintf(stderr, "[shard_worker] wrote %s\n", path.c_str());
}

// -- what differs between the kinds ------------------------------------------

void write_outputs(const GridSpec& spec, const GridOutputs& out,
                   const std::string& prefix) {
  write_output(prefix + ".csv", out.evaluation_csv);
  if (!spec.telemetry) return;
  write_output(prefix + ".prom", out.merged_prometheus);
  if (out.job0_telemetry.has_value()) {
    for (const auto& path :
         dufp::telemetry::export_run(*out.job0_telemetry, prefix + ".job0")) {
      std::fprintf(stderr, "[shard_worker] wrote %s\n", path.c_str());
    }
  }
}

void write_outputs(const FleetSpec&, const FleetOutputs& out,
                   const std::string& prefix) {
  write_output(prefix + ".alloc.csv", out.allocation_csv);
  write_output(prefix + ".summary.csv", out.summary_csv);
  write_output(prefix + ".prom", out.prometheus);
}

GridOutputs finalize(const GridSpec& spec,
                     std::vector<dufp::harness::RunResult> results) {
  return dufp::harness::finalize_grid(spec, std::move(results));
}

FleetOutputs finalize(
    const FleetSpec& spec,
    const std::vector<dufp::fleet::FleetNodeResult>& results) {
  return dufp::fleet::finalize_fleet(spec, results);
}

GridOutputs run_serial(const GridSpec& spec, int threads) {
  return dufp::harness::run_grid_serial(spec, threads);
}

FleetOutputs run_serial(const FleetSpec& spec, int /*threads*/) {
  return dufp::fleet::run_fleet_serial(spec);
}

// -- verbs -------------------------------------------------------------------

/// fsync + atomic rename: the visible output file either has every
/// record its worker produced or does not exist at all.
void publish_output(const std::string& partial_path,
                    const std::string& out_path) {
  const int fd = ::open(partial_path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw CliError(kExitIo, "cannot reopen " + partial_path + ": " +
                                std::strerror(errno));
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    throw CliError(kExitIo, "fsync " + partial_path + ": " +
                                std::strerror(errno));
  }
  if (::rename(partial_path.c_str(), out_path.c_str()) != 0) {
    throw CliError(kExitIo, "rename " + partial_path + " -> " + out_path +
                                ": " + std::strerror(errno));
  }
}

/// Writes a complete gather's outputs under `prefix`, or an incomplete
/// one's retry manifest to PREFIX.retry.json (exit 6).
template <class Spec>
int finish_gather(const Spec& spec, dufp::harness::GatherReport<Spec> report,
                  const std::string& prefix) {
  for (const auto& note : report.notes) {
    std::fprintf(stderr, "[shard_worker] salvage: %s:%d: %s\n",
                 note.file.c_str(), note.line, note.what.c_str());
  }
  if (report.duplicates != 0) {
    std::fprintf(stderr,
                 "[shard_worker] salvage: %zu idempotent duplicate record(s) "
                 "dropped\n",
                 report.duplicates);
  }
  if (!report.complete()) {
    const std::string manifest_path = prefix + ".retry.json";
    write_file(manifest_path,
               dufp::harness::make_retry_manifest(spec, report)
                       .canonical_text() +
                   '\n');
    std::fprintf(stderr,
                 "[shard_worker] incomplete: %zu of %zu jobs missing; retry "
                 "manifest -> %s (run `dufp_shard_worker run --resume %s "
                 "--out FILE`, then gather again with that FILE added)\n",
                 report.missing.size(), report.job_count,
                 manifest_path.c_str(), manifest_path.c_str());
    return kExitIncomplete;
  }
  write_outputs(spec, finalize(spec, std::move(report.results)), prefix);
  return kExitOk;
}

int cmd_spec(const Args& args) {
  const auto print = [](const auto& spec) {
    std::printf("%s\n", spec.canonical_text().c_str());
    std::fprintf(stderr, "[shard_worker] fingerprint %s\n",
                 dufp::harness::fingerprint_hex(spec.fingerprint()).c_str());
    return kExitOk;
  };
  if (args.has("spec")) {
    if (args.has("reference")) {
      usage_error("--reference and --spec are exclusive");
    }
    return with_spec(args, print);
  }
  const auto it = args.options.find("reference");
  const std::string kind =
      it == args.options.end() || it->second.empty() ? "grid" : it->second;
  if (kind == "grid") return print(GridSpec::reference());
  if (kind == "fleet") return print(FleetSpec::reference());
  usage_error("--reference wants grid or fleet, got '" + kind + "'");
}

int cmd_plan(const Args& args) {
  const std::string text = read_document(args.require("spec"));
  const GridSpec spec = dufp::harness::parse_document(
      [&text] { return GridSpec::from_json(json::parse(text)); });
  const auto gp = dufp::harness::build_plan(spec);
  std::printf("job,cell,repetition,seed\n");
  for (std::size_t i = 0; i < gp.plan.job_count(); ++i) {
    const auto job = gp.plan.job(i);
    std::printf("%zu,%zu,%d,%llu\n", i, job.cell, job.repetition,
                static_cast<unsigned long long>(gp.plan.job_config(i).seed));
  }
  std::fprintf(stderr, "[shard_worker] %zu jobs across %zu cells\n",
               gp.plan.job_count(), gp.plan.cell_count());
  return kExitOk;
}

/// Executes this worker's share of `spec` (only `filter`'s jobs when
/// resuming) and publishes the stream to --out.
template <class Spec>
int run_worker(const Spec& spec, const std::vector<std::size_t>* filter,
               const Args& args) {
  const std::string out_path = args.require("out");
  const std::string partial_path = out_path + ".partial";

  dufp::harness::ShardRunOptions options;
  options.shards = get_int(args, "shards", 1, 1);
  options.shard = get_int(args, "shard", 0, 0);
  if (options.shard >= options.shards) {
    usage_error(strf("--shard %d must be below --shards %d", options.shard,
                     options.shards));
  }
  options.threads = threads_flag(spec, args);
  options.chaos = chaos_from_env();
  options.chaos.worker = options.shard;
  options.chaos.attempt = get_int(args, "attempt", 0, 0);
  options.job_filter = filter;

  dufp::harness::LeaseOptions lease;
  if (args.has("owner")) lease.owner = args.require("owner");
  lease.ttl_seconds = get_double(args, "lease-ttl", 30.0);
  std::unique_ptr<dufp::harness::FileChunkClaimer> claimer;
  if (args.has("chunk-size")) {
    options.chunk_size = get_int(args, "chunk-size", 0, 1);
    if (!args.has("claim-dir")) usage_error("--chunk-size needs --claim-dir");
    claimer = std::make_unique<dufp::harness::FileChunkClaimer>(
        args.require("claim-dir"), lease);
    options.claimer = claimer.get();
  }
  if (filter != nullptr) {
    std::fprintf(stderr, "[shard_worker] resume: %zu missing jobs\n",
                 filter->size());
  }

  {
    std::ofstream out(partial_path, std::ios::binary);
    if (!out.good()) {
      throw CliError(kExitIo, "cannot write " + partial_path);
    }
    try {
      dufp::harness::run_shard(spec, options, out);
    } catch (const ShardFormatError&) {
      throw;  // -> kExitSpec
    } catch (const std::invalid_argument&) {
      throw;  // caller error -> internal/usage surface
    } catch (const std::exception& e) {
      throw CliError(kExitJob, strf("job execution failed: %s", e.what()));
    }
    if (!out.good()) {
      throw CliError(kExitIo, "short write to " + partial_path);
    }
  }
  publish_output(partial_path, out_path);
  std::fprintf(stderr, "[shard_worker] shard %d/%d done -> %s\n",
               options.shard, options.shards, out_path.c_str());
  return kExitOk;
}

int cmd_run(const Args& args) {
  if (!args.has("resume")) {
    return with_spec(args, [&args](const auto& spec) {
      return run_worker(spec, nullptr, args);
    });
  }
  return with_kind<RetryManifest<GridSpec>, RetryManifest<FleetSpec>>(
      args.require("resume"), FleetSpec::kRetryFormat,
      [&args](const auto& manifest) {
        if (args.has("spec")) {
          // Both would be ambiguous unless they agree; demand agreement.
          with_spec(args, [&manifest](const auto& flag_spec) {
            if (flag_spec.fingerprint() != manifest.spec.fingerprint()) {
              throw ShardFormatError(
                  "run: --spec and --resume disagree (different "
                  "fingerprints)");
            }
            return kExitOk;
          });
        }
        return run_worker(manifest.spec, &manifest.missing, args);
      });
}

int cmd_gather(const Args& args) {
  return with_spec(args, [&args](const auto& spec) {
    const std::string& prefix = args.require("out");
    if (args.positional.empty()) {
      usage_error("gather needs at least one shard file");
    }
    GatherOptions gopts;
    gopts.partial = args.has("partial");
    return finish_gather(
        spec, dufp::harness::gather_shards_report(spec, args.positional, gopts),
        prefix);
  });
}

int cmd_serial(const Args& args) {
  return with_spec(args, [&args](const auto& spec) {
    const std::string& prefix = args.require("out");
    write_outputs(spec, run_serial(spec, threads_flag(spec, args)), prefix);
    return kExitOk;
  });
}

int cmd_supervise(const Args& args) {
  return with_spec(args, [&args](const auto& spec) {
    dufp::harness::SupervisorOptions options;
    options.out_dir = args.require("out-dir");
    options.workers = get_int(args, "workers", 2, 1);
    options.threads = threads_flag(spec, args);
    options.chunk_size = get_int(args, "chunk-size", 1, 1);
    options.lease_ttl_seconds = get_double(args, "lease-ttl", 30.0);
    options.max_restarts = get_int(args, "max-restarts", 2, 0);
    options.worker_deadline_seconds = get_double(args, "deadline", 0.0);
    options.chaos = chaos_from_env();
    options.quiet = std::getenv("DUFP_QUIET") != nullptr;

    const auto report = dufp::harness::supervise_shard_run(spec, options);
    std::fprintf(stderr,
                 "[shard_worker] supervise: %zu attempt(s), %d restart(s), "
                 "%d deadline kill(s), %d lease(s) reap-released, %zu "
                 "poisoned chunk(s), chunks %s\n",
                 report.attempts.size(), report.restarts,
                 report.deadline_kills, report.leases_released,
                 report.poisoned_chunks.size(),
                 report.all_chunks_done ? "all done" : "INCOMPLETE");
    for (const auto& f : report.output_files) {
      std::printf("%s\n", f.c_str());  // machine-consumable: gather input set
    }
    if (report.fatal) {
      throw ShardFormatError(
          "supervise: a worker hit a non-retryable configuration error");
    }
    if (!args.has("gather")) {
      return report.all_chunks_done ? kExitOk : kExitIncomplete;
    }
    GatherOptions gopts;
    gopts.partial = true;
    return finish_gather(spec,
                         dufp::harness::gather_shards_report(
                             spec, report.output_files, gopts),
                         args.require("gather"));
  });
}

const Verb kVerbs[] = {
    {"spec", cmd_spec, {{"reference", Takes::optional_value}, {"spec"}}},
    {"plan", cmd_plan, {{"spec"}}},
    {"run",
     cmd_run,
     {{"spec"}, {"resume"}, {"out"}, {"shard"}, {"shards"}, {"threads"},
      {"chunk-size"}, {"claim-dir"}, {"owner"}, {"lease-ttl"}, {"attempt"}}},
    {"gather",
     cmd_gather,
     {{"spec"}, {"out"}, {"partial", Takes::nothing}},
     /*takes_files=*/true},
    {"serial", cmd_serial, {{"spec"}, {"out"}, {"threads"}}},
    {"supervise",
     cmd_supervise,
     {{"spec"}, {"out-dir"}, {"workers"}, {"chunk-size"}, {"threads"},
      {"lease-ttl"}, {"max-restarts"}, {"deadline"}, {"gather"}}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_error("missing subcommand");
  const std::string name = argv[1];
  const auto verb =
      std::find_if(std::begin(kVerbs), std::end(kVerbs),
                   [&name](const Verb& v) { return name == v.name; });
  if (verb == std::end(kVerbs)) {
    usage_error("unknown subcommand '" + name + "'");
  }
  const Args args = parse_args(*verb, argc, argv);
  try {
    return verb->run(args);
  } catch (const CliError& e) {
    std::fprintf(stderr, "dufp_shard_worker: %s\n", e.what());
    return e.code;
  } catch (const ShardFormatError& e) {
    std::fprintf(stderr, "dufp_shard_worker: %s\n", e.what());
    return kExitSpec;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dufp_shard_worker: %s\n", e.what());
    return kExitInternal;
  }
}
