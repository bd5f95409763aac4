// Sharded execution of experiment grids and fleets across processes (and
// machines).
//
// The contract has three pieces (see DESIGN.md § Sharded execution):
//
//  1. A spec — a small JSON document naming the work.  Two kinds exist:
//     the GridSpec below (apps, modes, tolerances, repetitions, seed,
//     machine size, faults, telemetry) and fleet::FleetSpec (src/fleet).
//     Every process builds the *same* job list from the spec (a pure
//     function of it; no environment leaks in), so job indices are
//     portable identities: job i means the same (config, derived seed)
//     everywhere.  The canonical serialization is fingerprinted (FNV-1a)
//     and stamped into every result file.
//
//  2. Shard workers — each executes a subset of the job indices (static
//     round-robin, or dynamic chunk claiming for imbalanced grids) and
//     streams one JSONL line per job: a versioned header line, then
//     {"job":i,"result":{...}} records with every double as its IEEE-754
//     bit pattern (shard_codec).  Files are self-describing and
//     machine-portable; any file mover works.
//
//  3. A gatherer — validates headers/fingerprints, demands every job
//     exactly once across the input files (a truncated or duplicated
//     file is an error, never a silent partial merge), decodes results
//     by index, and finishes the plan.  Because job seeds are derived
//     (job_seed) and aggregation is index-ordered, the gathered
//     aggregates are bit-identical to a serial in-process run — the
//     tier-1 shard determinism suite byte-compares the Evaluation CSV
//     and telemetry exports across serial / 1-shard / N-shard /
//     dynamic-chunk executions.
//
// The payload-agnostic machinery (wire format, chunk leases, the
// exactly-once gather loop) lives in harness/wire.h.  This header types
// it once for every spec kind — run_shard, gather_shards_report,
// RetryManifest, make_retry_manifest, and supervise_shard_run in
// harness/supervisor.h — and defines the grid kind; src/fleet/shard.h
// defines the fleet kind.  A spec kind `Spec` provides:
//   - to_json() / canonical_text() / from_json() / fingerprint(): its
//     canonical JSON codec (from_json rejects unknown keys);
//   - wire_identity(): its format, name, fingerprint and job count on
//     the wire;
//   - kRetryFormat: the "format" key of its retry manifests;
// and a ShardJobs<Spec> specialization: the job result type, its wire
// codec, and a runner of job batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "harness/experiment.h"
#include "harness/plan.h"
#include "harness/shard_codec.h"
#include "harness/wire.h"

namespace dufp::harness {

/// Format identities.  Result streams are versioned by kShardWireVersion,
/// specs and retry manifests by kShardDocumentVersion (both in wire.h).
inline constexpr const char* kShardResultFormat = "dufp-shard-result";
inline constexpr const char* kGridSpecFormat = "dufp-grid-spec";

/// The kind-dependent half of a shard run, specialized once per spec
/// kind: `Result` with its wire codec (`encode`, `decode`), and a runner
/// built once per worker, `ShardJobs(spec, threads)` (the spec must
/// outlive it), whose `run(jobs)` executes a batch of job indices and
/// returns their results in order.
template <class Spec>
struct ShardJobs;

// -- kind-independent operations ---------------------------------------------

/// Executes this worker's share of the spec's jobs and streams the
/// versioned JSONL (header line + one line per job) to `out`.
template <class Spec>
void run_shard(const Spec& spec, const ShardRunOptions& options,
               std::ostream& out) {
  using Jobs = ShardJobs<Spec>;
  const Jobs jobs(spec, options.threads);
  run_shard_wire(
      spec.wire_identity(), options,
      [&jobs](const std::vector<std::size_t>& indices) {
        const auto results = jobs.run(indices);
        std::vector<json::Value> payloads;
        payloads.reserve(results.size());
        for (const auto& r : results) payloads.push_back(Jobs::encode(r));
        return payloads;
      },
      out);
}

/// Everything a gather pass learned: the wire report plus the typed
/// results.  complete() means every job was recovered and the results
/// can be finalized; otherwise `missing` (sorted) is the exact re-run
/// set for a retry manifest.
template <class Spec>
struct GatherReport : WireGatherReport {
  /// results[j] is valid iff have[j].
  std::vector<typename ShardJobs<Spec>::Result> results;
};

/// Reads shard JSONL files back into per-job results (indexed by job).
/// Strict mode (default) throws at the first problem: malformed JSON,
/// a wrong format/version/fingerprint header (ShardFormatError), an
/// out-of-range or duplicate job index, or jobs missing across the
/// whole input set — the missing error names every absent job id
/// (capped with an "... and N more"), the static round-robin shard each
/// would have belonged to, and the spec's job label if it has one.
/// Partial mode (see GatherOptions) salvages instead of throwing.
template <class Spec>
GatherReport<Spec> gather_shards_report(const Spec& spec,
                                        const std::vector<std::string>& files,
                                        const GatherOptions& options = {}) {
  const WireIdentity id = spec.wire_identity();
  GatherReport<Spec> report;
  report.results.resize(id.job_count);
  static_cast<WireGatherReport&>(report) = gather_wire(
      id, files, options, [&report](std::size_t job, const json::Value& v) {
        report.results[job] = ShardJobs<Spec>::decode(v);
      });
  return report;
}

/// Strict gather: gather_shards_report with default options, unwrapped.
template <class Spec>
std::vector<typename ShardJobs<Spec>::Result> gather_shards(
    const Spec& spec, const std::vector<std::string>& files) {
  return std::move(gather_shards_report(spec, files).results);
}

/// The re-run contract an incomplete gather emits: the full spec (so a
/// resume needs no side channel), its fingerprint (tamper guard), and
/// the sorted missing job list, under the format Spec::kRetryFormat.
/// `dufp_shard_worker run --resume M` executes exactly these jobs;
/// gathering the original files plus the resume output in partial mode
/// then completes to bytes identical to an unfailed run.
template <class Spec>
struct RetryManifest {
  Spec spec;
  std::vector<std::size_t> missing;  ///< sorted, unique, in range

  json::Value to_json() const {
    json::Value o = json::Value::make_object();
    o.add("format", json::Value::make_string(Spec::kRetryFormat));
    o.add("version", json::Value::make_i64(kShardDocumentVersion));
    o.add("spec", spec.to_json());
    o.add("spec_fingerprint",
          json::Value::make_string(fingerprint_hex(spec.fingerprint())));
    json::Value jobs = json::Value::make_array();
    for (const std::size_t j : missing) {
      jobs.push_back(json::Value::make_u64(j));
    }
    o.add("missing_jobs", std::move(jobs));
    return o;
  }

  std::string canonical_text() const { return to_json().dump(); }

  /// Throws ShardFormatError for a wrong format or version, an unknown
  /// key, an invalid embedded spec or one that does not match its
  /// recorded fingerprint, and a missing list that is empty, unsorted or
  /// out of range.
  static RetryManifest from_json(const json::Value& v) {
    check_document(v, RetryManifest{}.to_json(), "RetryManifest");
    RetryManifest m;
    m.spec = Spec::from_json(v.at("spec"));
    if (v.at("spec_fingerprint").as_string() !=
        fingerprint_hex(m.spec.fingerprint())) {
      throw ShardFormatError(
          "RetryManifest: embedded spec does not match its recorded "
          "fingerprint (manifest was edited or corrupted)");
    }
    for (const json::Value& j : v.at("missing_jobs").as_array()) {
      m.missing.push_back(j.as_u64());
    }
    if (m.missing.empty()) {
      throw ShardFormatError("RetryManifest: missing_jobs is empty");
    }
    const std::size_t jobs = m.spec.wire_identity().job_count;
    for (std::size_t i = 0; i < m.missing.size(); ++i) {
      if (m.missing[i] >= jobs ||
          (i > 0 && m.missing[i] <= m.missing[i - 1])) {
        throw ShardFormatError(
            "RetryManifest: missing_jobs must be strictly ascending and in "
            "range");
      }
    }
    return m;
  }
};

/// The manifest for an incomplete gather.  Throws std::logic_error if
/// the report is complete (there is nothing to retry).
template <class Spec>
RetryManifest<Spec> make_retry_manifest(const Spec& spec,
                                        const WireGatherReport& report) {
  if (report.complete()) {
    throw std::logic_error(
        "make_retry_manifest: gather is complete, nothing to retry");
  }
  return {spec, report.missing};
}

// -- the grid kind -----------------------------------------------------------

/// A self-contained description of one evaluation grid.  Everything that
/// influences results lives here — never in the environment — so two
/// processes parsing the same spec build identical plans.
struct GridSpec {
  std::string name = "grid";
  std::vector<workloads::AppId> apps;
  /// Registry policy names, canonical spelling.  Serialized under the
  /// JSON key "modes" (the wire name predates the policy registry and is
  /// pinned by the fingerprint); parsing canonicalizes case/alias
  /// spellings and rejects unknown or duplicate entries with one
  /// aggregated error.
  std::vector<std::string> policies;
  std::vector<double> tolerances;
  int repetitions = 3;
  std::uint64_t seed = 1;
  int sockets = 4;
  double fault_rate = 0.0;     ///< > 0 runs the whole grid under a storm
  std::uint64_t fault_seed = 0;
  bool telemetry = false;

  /// The "format" of a grid's retry manifests.
  static constexpr const char* kRetryFormat = "dufp-retry-manifest";

  /// Canonical JSON (fixed key order, %.17g tolerances); from_json() of
  /// the output reproduces the spec exactly.
  json::Value to_json() const;
  std::string canonical_text() const;
  /// FNV-1a over canonical_text(); stamped into every shard file.
  std::uint64_t fingerprint() const;

  /// Throws ShardFormatError for a wrong format or version, an unknown
  /// key, or an invalid spec (every validate() problem, aggregated).
  static GridSpec from_json(const json::Value& v);

  /// The reference grid the sharded bench and the quickstart use:
  /// 2 apps x (baseline + {DUF, DUFP} x {5%, 10%}) x 3 repetitions.
  static GridSpec reference();

  /// Every problem found (empty = valid).
  std::vector<std::string> validate() const;

  /// This spec's wire identity (format, name, fingerprint, job count)
  /// for run_shard_wire / gather_wire.
  WireIdentity wire_identity() const;
};

/// The spec's plan plus the per-app cell index needed to reassemble
/// Evaluations.
struct GridPlan {
  ExperimentPlan plan;
  std::vector<AppGridCells> index;
};

/// Enumerates the apps x (baseline + policies x tolerances) grid, one
/// cell per grid point with `repetitions` jobs each.  Cell order, and
/// hence the job enumeration (see ExperimentPlan::JobRef), is: per app in
/// list order, baseline first, then policy-major with tolerances inner.
/// A pure function of the spec: two processes with equal specs build
/// equal plans, which is what lets shard workers and the gatherer agree
/// on job identities without talking to each other.
GridPlan build_plan(const GridSpec& spec);

/// Grid jobs: the plan, built once per worker, runs each batch on
/// `threads` threads.
template <>
struct ShardJobs<GridSpec> {
  using Result = RunResult;
  static constexpr auto encode = encode_run_result;
  static constexpr auto decode = decode_run_result;

  ShardJobs(const GridSpec& spec, int threads_in)
      : grid(build_plan(spec)), threads(threads_in) {}
  std::vector<RunResult> run(const std::vector<std::size_t>& jobs) const {
    return grid.plan.run_jobs(jobs, threads);
  }

  GridPlan grid;
  int threads;
};

/// Everything a gathered grid produces, in deterministic bytes.
struct GridOutputs {
  std::vector<Evaluation> evaluations;

  /// Per-grid-point CSV (%.17g, health columns included) — the byte
  /// surface the shard determinism suite compares.
  std::string evaluation_csv;

  /// Job-labelled merge of every job's Prometheus exposition (samples in
  /// metric-name order, job order within a name); empty when the spec has
  /// telemetry off.
  std::string merged_prometheus;

  /// Job 0's full snapshot for telemetry::export_run.  Flight events and
  /// dumps are per-job artifacts that only job 0 carries (see
  /// ExperimentPlan::job_config); the merge covers every job's metrics.
  std::optional<telemetry::TelemetrySnapshot> job0_telemetry;
};

/// Aggregates gathered per-job results exactly as a serial run would
/// (ExperimentPlan::finish_with) and renders the deterministic outputs.
GridOutputs finalize_grid(const GridSpec& spec,
                          std::vector<RunResult> results);

/// Runs the whole spec in-process (threads as given) and finalizes —
/// the serial reference the shard paths must match byte for byte.
GridOutputs run_grid_serial(const GridSpec& spec, int threads = 1);

/// The CSV in GridOutputs::evaluation_csv, exposed for reuse.
std::string evaluation_csv(const std::vector<Evaluation>& evals,
                           const std::vector<std::string>& policies,
                           const std::vector<double>& tolerances);

}  // namespace dufp::harness
