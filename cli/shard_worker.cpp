// dufp_shard_worker — one process of a sharded experiment-grid run.
//
// Subcommands (see tools/shard_run.sh for the orchestrated flow and
// DESIGN.md § Sharded execution / § Failure model for the contract):
//
//   spec   [--reference | --spec FILE]
//          Print the canonical spec JSON (+ fingerprint to stderr).
//          `--reference` (default) emits the built-in reference grid —
//          the starting point for writing custom specs.
//
//   plan   --spec FILE
//          Print the job table (job, cell, repetition, label, seed) the
//          spec enumerates — identical in every process, which is what
//          makes job indices portable shard identities.
//
//   run    (--spec FILE | --resume MANIFEST) --out FILE
//          [--shard K --shards N] [--threads T]
//          [--chunk-size C --claim-dir DIR] [--owner ID] [--lease-ttl S]
//          [--attempt A]
//          Execute this worker's share of the jobs and stream the
//          versioned JSONL to --out: a header line (wire version 2),
//          then one {"job":J,"result":{...}} record per job, doubles as
//          hex bit patterns.  Each record is self-contained: its
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
//          and writes PREFIX.csv (+ PREFIX.prom and job 0's
//          PREFIX.job0.* exports when the spec has telemetry on).  With
//          --partial it salvages every complete record from damaged
//          files, tolerates idempotent duplicates, and — when jobs are
//          still missing — writes a versioned retry manifest to
//          PREFIX.retry.json and exits 6 instead of failing.
//
//   serial --spec FILE --out PREFIX [--threads T]
//          Run the whole grid in this process and write the same
//          outputs — the byte-identical reference for `gather`.
//
//   supervise --spec FILE --out-dir DIR [--workers N] [--chunk-size C]
//          [--threads T] [--lease-ttl S] [--max-restarts R]
//          [--deadline S] [--gather PREFIX]
//          Run the grid under the fault-tolerant ShardSupervisor:
//          dynamic-mode workers are forked, monitored, restarted with
//          exponential backoff when they crash, and a chunk that kills
//          its worker twice is quarantined.  With --gather, finishes
//          with a partial gather of everything the workers produced.
//
//   fleet-spec / fleet-run / fleet-gather / fleet-serial / fleet-supervise
//          The same five verbs over a *fleet* spec (src/fleet): a job is
//          one node simulation under the hierarchical allocation plan,
//          and the wire/lease/salvage/resume/exit-code contract is
//          identical.  Outputs are PREFIX.alloc.csv (per-epoch
//          allocation trace), PREFIX.summary.csv (fleet scorecard) and
//          PREFIX.prom (fleet telemetry); an incomplete fleet-gather
//          writes PREFIX.retry.json (a dufp-fleet-retry manifest that
//          fleet-run --resume executes) and exits 6.
//
// Exit codes (stable contract, used by tools/ and the supervisor):
//   0  success
//   1  internal error (unexpected exception)
//   2  usage error (bad flags)
//   3  spec/format mismatch (wrong format, version, fingerprint, or an
//      invalid spec/manifest)
//   4  job execution failure (the simulation itself threw)
//   5  I/O failure (cannot open/write/fsync/rename an output)
//   6  incomplete gather (--partial salvaged what it could and wrote a
//      retry manifest) or incomplete supervision
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "fleet/shard.h"
#include "fleet/spec.h"
#include "harness/options.h"
#include "harness/shard.h"
#include "harness/supervisor.h"
#include "telemetry/export.h"

namespace {

using dufp::strf;
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
      "usage: dufp_shard_worker spec [--reference|--spec FILE]\n"
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
      "       dufp_shard_worker fleet-spec [--reference|--spec FILE]\n"
      "       dufp_shard_worker fleet-run (--spec FILE | --resume MANIFEST)"
      " --out FILE\n"
      "           [--shard K --shards N] [--chunk-size C --claim-dir DIR]"
      " [--owner ID]\n"
      "           [--lease-ttl S] [--attempt A]\n"
      "       dufp_shard_worker fleet-gather --spec FILE --out PREFIX"
      " [--partial] FILES...\n"
      "       dufp_shard_worker fleet-serial --spec FILE --out PREFIX\n"
      "       dufp_shard_worker fleet-supervise --spec FILE --out-dir DIR"
      " [--workers N]\n"
      "           [--chunk-size C] [--lease-ttl S] [--max-restarts R]"
      " [--deadline S]\n"
      "           [--gather PREFIX]\n"
      "exit codes: 0 ok, 1 internal, 2 usage, 3 spec mismatch, 4 job"
      " failure,\n"
      "            5 I/O failure, 6 incomplete (retry manifest written)\n");
  std::exit(kExitUsage);
}

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (key == "reference" || key == "partial") {
        args.options.emplace(key, "1");
        continue;
      }
      if (i + 1 >= argc) usage_error("missing value for --" + key);
      args.options[key] = argv[++i];
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int get_int(const Args& args, const std::string& key, int fallback) {
  const auto it = args.options.find(key);
  if (it == args.options.end()) return fallback;
  try {
    return std::stoi(it->second);
  } catch (const std::exception&) {
    usage_error("--" + key + " wants an integer, got '" + it->second + "'");
  }
}

double get_double(const Args& args, const std::string& key, double fallback) {
  const auto it = args.options.find(key);
  if (it == args.options.end()) return fallback;
  double out = 0.0;
  if (!dufp::parse_double(it->second, out)) {
    usage_error("--" + key + " wants a number, got '" + it->second + "'");
  }
  return out;
}

GridSpec load_spec(const Args& args) {
  const auto it = args.options.find("spec");
  if (it == args.options.end()) usage_error("--spec FILE is required");
  return GridSpec::load(it->second);
}

std::string require_out(const Args& args) {
  const auto it = args.options.find("out");
  if (it == args.options.end()) usage_error("--out is required");
  return it->second;
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

void write_outputs(const GridSpec& spec, const GridOutputs& out,
                   const std::string& prefix) {
  const std::string csv_path = prefix + ".csv";
  {
    std::ofstream csv(csv_path, std::ios::binary);
    if (!csv.good()) {
      throw CliError(kExitIo, "cannot write " + csv_path);
    }
    csv << out.evaluation_csv;
  }
  std::fprintf(stderr, "[shard_worker] wrote %s\n", csv_path.c_str());
  if (spec.telemetry) {
    const std::string prom_path = prefix + ".prom";
    std::ofstream prom(prom_path, std::ios::binary);
    if (!prom.good()) {
      throw CliError(kExitIo, "cannot write " + prom_path);
    }
    prom << out.merged_prometheus;
    std::fprintf(stderr, "[shard_worker] wrote %s\n", prom_path.c_str());
    if (out.job0_telemetry.has_value()) {
      for (const auto& path :
           dufp::telemetry::export_run(*out.job0_telemetry, prefix + ".job0")) {
        std::fprintf(stderr, "[shard_worker] wrote %s\n", path.c_str());
      }
    }
  }
}

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

int cmd_spec(const Args& args) {
  GridSpec spec = GridSpec::reference();
  if (const auto it = args.options.find("spec"); it != args.options.end()) {
    spec = GridSpec::load(it->second);
  }
  std::printf("%s\n", spec.canonical_text().c_str());
  std::fprintf(stderr, "[shard_worker] fingerprint %016llx\n",
               static_cast<unsigned long long>(spec.fingerprint()));
  return kExitOk;
}

int cmd_plan(const Args& args) {
  const GridSpec spec = load_spec(args);
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

int cmd_run(const Args& args) {
  const bool resume = args.options.count("resume") != 0;
  if (resume && args.options.count("spec") != 0) {
    // Both would be ambiguous unless they agree; demand agreement.
    const GridSpec flag_spec = load_spec(args);
    const RetryManifest m = RetryManifest::load(args.options.at("resume"));
    if (flag_spec.fingerprint() != m.spec.fingerprint()) {
      throw ShardFormatError(
          "run: --spec and --resume disagree (different fingerprints)");
    }
  }
  RetryManifest manifest;
  GridSpec spec;
  if (resume) {
    manifest = RetryManifest::load(args.options.at("resume"));
    spec = manifest.spec;
    std::fprintf(stderr, "[shard_worker] resume: %zu missing jobs\n",
                 manifest.missing.size());
  } else {
    spec = load_spec(args);
  }
  const std::string out_path = require_out(args);
  const std::string partial_path = out_path + ".partial";

  dufp::harness::ShardRunOptions options;
  options.shard = get_int(args, "shard", 0);
  options.shards = get_int(args, "shards", 1);
  options.threads = get_int(args, "threads", 1);
  options.chunk_size = get_int(args, "chunk-size", 0);
  options.chaos = chaos_from_env();
  options.chaos.worker = options.shard;
  options.chaos.attempt = get_int(args, "attempt", 0);
  if (resume) options.job_filter = &manifest.missing;

  std::unique_ptr<dufp::harness::FileChunkClaimer> claimer;
  if (options.chunk_size > 0) {
    const auto it = args.options.find("claim-dir");
    if (it == args.options.end()) {
      usage_error("--chunk-size needs --claim-dir");
    }
    dufp::harness::LeaseOptions lease;
    if (const auto o = args.options.find("owner"); o != args.options.end()) {
      lease.owner = o->second;
    }
    lease.ttl_seconds = get_double(args, "lease-ttl", 30.0);
    claimer = std::make_unique<dufp::harness::FileChunkClaimer>(it->second,
                                                                lease);
    options.claimer = claimer.get();
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

int cmd_gather(const Args& args) {
  const GridSpec spec = load_spec(args);
  const std::string prefix = require_out(args);
  if (args.positional.empty()) {
    usage_error("gather needs at least one shard file");
  }
  GatherOptions gopts;
  gopts.partial = args.options.count("partial") != 0;
  auto report =
      dufp::harness::gather_shards_report(spec, args.positional, gopts);
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
    const auto manifest = dufp::harness::make_retry_manifest(spec, report);
    const std::string manifest_path = prefix + ".retry.json";
    std::ofstream out(manifest_path, std::ios::binary);
    if (!out.good()) {
      throw CliError(kExitIo, "cannot write " + manifest_path);
    }
    out << manifest.canonical_text() << '\n';
    std::fprintf(stderr,
                 "[shard_worker] incomplete: %zu of %zu jobs missing; retry "
                 "manifest -> %s (run `dufp_shard_worker run --resume %s "
                 "--out FILE`, then gather again with that FILE added)\n",
                 report.missing.size(), report.job_count,
                 manifest_path.c_str(), manifest_path.c_str());
    return kExitIncomplete;
  }
  write_outputs(spec,
                dufp::harness::finalize_grid(spec, std::move(report.results)),
                prefix);
  return kExitOk;
}

int cmd_serial(const Args& args) {
  const GridSpec spec = load_spec(args);
  const std::string prefix = require_out(args);
  const int threads = get_int(args, "threads", 1);
  write_outputs(spec, dufp::harness::run_grid_serial(spec, threads), prefix);
  return kExitOk;
}

int cmd_supervise(const Args& args) {
  const GridSpec spec = load_spec(args);
  const auto it = args.options.find("out-dir");
  if (it == args.options.end()) usage_error("--out-dir DIR is required");

  dufp::harness::SupervisorOptions options;
  options.out_dir = it->second;
  options.workers = get_int(args, "workers", 2);
  options.threads = get_int(args, "threads", 1);
  options.chunk_size = get_int(args, "chunk-size", 1);
  options.lease_ttl_seconds = get_double(args, "lease-ttl", 30.0);
  options.max_restarts = get_int(args, "max-restarts", 2);
  options.worker_deadline_seconds = get_double(args, "deadline", 0.0);
  options.chaos = chaos_from_env();
  options.quiet = std::getenv("DUFP_QUIET") != nullptr;

  const auto report = dufp::harness::supervise_shard_run(spec, options);
  std::fprintf(stderr,
               "[shard_worker] supervise: %zu attempt(s), %d restart(s), %d "
               "deadline kill(s), %d lease(s) reap-released, %zu poisoned "
               "chunk(s), chunks %s\n",
               report.attempts.size(), report.restarts, report.deadline_kills,
               report.leases_released, report.poisoned_chunks.size(),
               report.all_chunks_done ? "all done" : "INCOMPLETE");
  for (const auto& f : report.output_files) {
    std::printf("%s\n", f.c_str());  // machine-consumable: gather input set
  }
  if (report.fatal) {
    throw ShardFormatError(
        "supervise: a worker hit a non-retryable configuration error");
  }
  if (const auto g = args.options.find("gather"); g != args.options.end()) {
    GatherOptions gopts;
    gopts.partial = true;
    auto gathered =
        dufp::harness::gather_shards_report(spec, report.output_files, gopts);
    if (!gathered.complete()) {
      const auto manifest =
          dufp::harness::make_retry_manifest(spec, gathered);
      const std::string manifest_path = g->second + ".retry.json";
      std::ofstream out(manifest_path, std::ios::binary);
      if (!out.good()) {
        throw CliError(kExitIo, "cannot write " + manifest_path);
      }
      out << manifest.canonical_text() << '\n';
      std::fprintf(stderr,
                   "[shard_worker] supervise: %zu job(s) unrecovered; retry "
                   "manifest -> %s\n",
                   gathered.missing.size(), manifest_path.c_str());
      return kExitIncomplete;
    }
    write_outputs(
        spec, dufp::harness::finalize_grid(spec, std::move(gathered.results)),
        g->second);
    return kExitOk;
  }
  return report.all_chunks_done ? kExitOk : kExitIncomplete;
}

// -- fleet subcommands -------------------------------------------------------

using dufp::fleet::FleetOutputs;
using dufp::fleet::FleetRetryManifest;
using dufp::fleet::FleetSpec;

FleetSpec load_fleet_spec(const Args& args) {
  const auto it = args.options.find("spec");
  if (it == args.options.end()) usage_error("--spec FILE is required");
  return FleetSpec::load(it->second);
}

void write_fleet_outputs(const FleetOutputs& out, const std::string& prefix) {
  const std::vector<std::pair<std::string, const std::string*>> files = {
      {prefix + ".alloc.csv", &out.allocation_csv},
      {prefix + ".summary.csv", &out.summary_csv},
      {prefix + ".prom", &out.prometheus},
  };
  for (const auto& [path, text] : files) {
    std::ofstream f(path, std::ios::binary);
    if (!f.good()) {
      throw CliError(kExitIo, "cannot write " + path);
    }
    f << *text;
    std::fprintf(stderr, "[shard_worker] wrote %s\n", path.c_str());
  }
}

int cmd_fleet_spec(const Args& args) {
  FleetSpec spec = FleetSpec::reference();
  if (const auto it = args.options.find("spec"); it != args.options.end()) {
    spec = FleetSpec::load(it->second);
  }
  std::printf("%s\n", spec.canonical_text().c_str());
  std::fprintf(stderr, "[shard_worker] fingerprint %016llx\n",
               static_cast<unsigned long long>(spec.fingerprint()));
  return kExitOk;
}

int cmd_fleet_run(const Args& args) {
  const bool resume = args.options.count("resume") != 0;
  if (resume && args.options.count("spec") != 0) {
    const FleetSpec flag_spec = load_fleet_spec(args);
    const FleetRetryManifest m =
        FleetRetryManifest::load(args.options.at("resume"));
    if (flag_spec.fingerprint() != m.spec.fingerprint()) {
      throw ShardFormatError(
          "fleet-run: --spec and --resume disagree (different fingerprints)");
    }
  }
  FleetRetryManifest manifest;
  FleetSpec spec;
  if (resume) {
    manifest = FleetRetryManifest::load(args.options.at("resume"));
    spec = manifest.spec;
    std::fprintf(stderr, "[shard_worker] resume: %zu missing node(s)\n",
                 manifest.missing.size());
  } else {
    spec = load_fleet_spec(args);
  }
  const std::string out_path = require_out(args);
  const std::string partial_path = out_path + ".partial";

  dufp::harness::ShardRunOptions options;
  options.shard = get_int(args, "shard", 0);
  options.shards = get_int(args, "shards", 1);
  options.chunk_size = get_int(args, "chunk-size", 0);
  options.chaos = chaos_from_env();
  options.chaos.worker = options.shard;
  options.chaos.attempt = get_int(args, "attempt", 0);
  if (resume) options.job_filter = &manifest.missing;

  std::unique_ptr<dufp::harness::FileChunkClaimer> claimer;
  if (options.chunk_size > 0) {
    const auto it = args.options.find("claim-dir");
    if (it == args.options.end()) {
      usage_error("--chunk-size needs --claim-dir");
    }
    dufp::harness::LeaseOptions lease;
    if (const auto o = args.options.find("owner"); o != args.options.end()) {
      lease.owner = o->second;
    }
    lease.ttl_seconds = get_double(args, "lease-ttl", 30.0);
    claimer = std::make_unique<dufp::harness::FileChunkClaimer>(it->second,
                                                                lease);
    options.claimer = claimer.get();
  }

  {
    std::ofstream out(partial_path, std::ios::binary);
    if (!out.good()) {
      throw CliError(kExitIo, "cannot write " + partial_path);
    }
    try {
      dufp::fleet::run_fleet_shard(spec, options, out);
    } catch (const ShardFormatError&) {
      throw;  // -> kExitSpec
    } catch (const std::invalid_argument&) {
      throw;  // caller error -> internal/usage surface
    } catch (const std::exception& e) {
      throw CliError(kExitJob, strf("node execution failed: %s", e.what()));
    }
    if (!out.good()) {
      throw CliError(kExitIo, "short write to " + partial_path);
    }
  }
  publish_output(partial_path, out_path);
  std::fprintf(stderr, "[shard_worker] fleet shard %d/%d done -> %s\n",
               options.shard, options.shards, out_path.c_str());
  return kExitOk;
}

int cmd_fleet_gather(const Args& args) {
  const FleetSpec spec = load_fleet_spec(args);
  const std::string prefix = require_out(args);
  if (args.positional.empty()) {
    usage_error("fleet-gather needs at least one shard file");
  }
  GatherOptions gopts;
  gopts.partial = args.options.count("partial") != 0;
  auto report =
      dufp::fleet::gather_fleet_report(spec, args.positional, gopts);
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
    const auto manifest =
        dufp::fleet::make_fleet_retry_manifest(spec, report);
    const std::string manifest_path = prefix + ".retry.json";
    std::ofstream out(manifest_path, std::ios::binary);
    if (!out.good()) {
      throw CliError(kExitIo, "cannot write " + manifest_path);
    }
    out << manifest.canonical_text() << '\n';
    std::fprintf(stderr,
                 "[shard_worker] incomplete: %zu of %zu node(s) missing; "
                 "retry manifest -> %s (run `dufp_shard_worker fleet-run "
                 "--resume %s --out FILE`, then fleet-gather again with that "
                 "FILE added)\n",
                 report.missing.size(), report.job_count,
                 manifest_path.c_str(), manifest_path.c_str());
    return kExitIncomplete;
  }
  write_fleet_outputs(dufp::fleet::finalize_fleet(spec, report.results),
                      prefix);
  return kExitOk;
}

int cmd_fleet_serial(const Args& args) {
  const FleetSpec spec = load_fleet_spec(args);
  const std::string prefix = require_out(args);
  write_fleet_outputs(dufp::fleet::run_fleet_serial(spec), prefix);
  return kExitOk;
}

int cmd_fleet_supervise(const Args& args) {
  const FleetSpec spec = load_fleet_spec(args);
  const auto it = args.options.find("out-dir");
  if (it == args.options.end()) usage_error("--out-dir DIR is required");

  dufp::harness::SupervisorOptions options;
  options.out_dir = it->second;
  options.workers = get_int(args, "workers", 2);
  options.chunk_size = get_int(args, "chunk-size", 1);
  options.lease_ttl_seconds = get_double(args, "lease-ttl", 30.0);
  options.max_restarts = get_int(args, "max-restarts", 2);
  options.worker_deadline_seconds = get_double(args, "deadline", 0.0);
  options.chaos = chaos_from_env();
  options.quiet = std::getenv("DUFP_QUIET") != nullptr;

  const auto report = dufp::fleet::supervise_fleet_run(spec, options);
  std::fprintf(stderr,
               "[shard_worker] fleet-supervise: %zu attempt(s), %d "
               "restart(s), %d deadline kill(s), %d lease(s) reap-released, "
               "%zu poisoned chunk(s), chunks %s\n",
               report.attempts.size(), report.restarts, report.deadline_kills,
               report.leases_released, report.poisoned_chunks.size(),
               report.all_chunks_done ? "all done" : "INCOMPLETE");
  for (const auto& f : report.output_files) {
    std::printf("%s\n", f.c_str());  // machine-consumable: gather input set
  }
  if (report.fatal) {
    throw ShardFormatError(
        "fleet-supervise: a worker hit a non-retryable configuration error");
  }
  if (const auto g = args.options.find("gather"); g != args.options.end()) {
    GatherOptions gopts;
    gopts.partial = true;
    auto gathered =
        dufp::fleet::gather_fleet_report(spec, report.output_files, gopts);
    if (!gathered.complete()) {
      const auto manifest =
          dufp::fleet::make_fleet_retry_manifest(spec, gathered);
      const std::string manifest_path = g->second + ".retry.json";
      std::ofstream out(manifest_path, std::ios::binary);
      if (!out.good()) {
        throw CliError(kExitIo, "cannot write " + manifest_path);
      }
      out << manifest.canonical_text() << '\n';
      std::fprintf(stderr,
                   "[shard_worker] fleet-supervise: %zu node(s) unrecovered; "
                   "retry manifest -> %s\n",
                   gathered.missing.size(), manifest_path.c_str());
      return kExitIncomplete;
    }
    write_fleet_outputs(dufp::fleet::finalize_fleet(spec, gathered.results),
                        g->second);
    return kExitOk;
  }
  return report.all_chunks_done ? kExitOk : kExitIncomplete;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_error("missing subcommand");
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (cmd == "spec") return cmd_spec(args);
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "gather") return cmd_gather(args);
    if (cmd == "serial") return cmd_serial(args);
    if (cmd == "supervise") return cmd_supervise(args);
    if (cmd == "fleet-spec") return cmd_fleet_spec(args);
    if (cmd == "fleet-run") return cmd_fleet_run(args);
    if (cmd == "fleet-gather") return cmd_fleet_gather(args);
    if (cmd == "fleet-serial") return cmd_fleet_serial(args);
    if (cmd == "fleet-supervise") return cmd_fleet_supervise(args);
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
  usage_error("unknown subcommand '" + cmd + "'");
}
