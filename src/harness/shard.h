// Sharded execution of experiment grids across processes (and machines).
//
// The contract has three pieces (see DESIGN.md § Sharded execution):
//
//  1. A GridSpec — a small JSON document naming the grid (apps, modes,
//     tolerances, repetitions, seed, machine size, faults, telemetry).
//     Every process builds the *same* ExperimentPlan from the spec
//     (build_plan is a pure function of it; no environment leaks in), so
//     job indices are portable identities: job i means the same
//     (config, derived seed) everywhere.  The canonical serialization is
//     fingerprinted (FNV-1a) and stamped into every result file.
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
// exactly-once gather loop) lives in harness/wire.h; this header binds
// it to experiment grids.  src/fleet binds the same wire to fleet node
// simulations.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness/experiment.h"
#include "harness/plan.h"
#include "harness/wire.h"

namespace dufp::harness {

/// Format identities.  Result streams are versioned by kShardWireVersion,
/// specs and retry manifests by kShardDocumentVersion (both in wire.h).
inline constexpr const char* kShardResultFormat = "dufp-shard-result";
inline constexpr const char* kGridSpecFormat = "dufp-grid-spec";
inline constexpr const char* kRetryManifestFormat = "dufp-retry-manifest";

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

  /// Canonical JSON (fixed key order, %.17g tolerances); parse() of the
  /// output reproduces the spec exactly.
  json::Value to_json() const;
  std::string canonical_text() const;
  /// FNV-1a over canonical_text(); stamped into every shard file.
  std::uint64_t fingerprint() const;

  static GridSpec from_json(const json::Value& v);
  static GridSpec parse(std::string_view text);
  static GridSpec load(const std::string& path);

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
/// Evaluations.  Deterministic pure function of the spec.
struct GridPlan {
  ExperimentPlan plan;
  std::vector<AppGridCells> index;
};
GridPlan build_plan(const GridSpec& spec);

/// Static round-robin assignment: the job indices owned by `shard` of
/// `shards` (j % shards == shard).  Round-robin, not contiguous blocks,
/// so repetitions of a long-running cell spread across shards.
std::vector<std::size_t> shard_jobs_static(std::size_t job_count, int shards,
                                           int shard);

/// Executes this worker's share of the spec's jobs and streams the
/// versioned JSONL (header line + one line per job) to `out`.
void run_shard(const GridSpec& spec, const ShardRunOptions& options,
               std::ostream& out);

/// Everything a gather pass learned.  complete() means every job was
/// recovered and the results can be finalized; otherwise `missing`
/// (sorted) is the exact re-run set for a retry manifest.
struct GatherReport {
  std::size_t job_count = 0;
  std::vector<RunResult> results;  ///< results[j] valid iff have[j]
  std::vector<bool> have;
  std::vector<std::size_t> missing;  ///< sorted ascending
  std::size_t records = 0;           ///< complete records decoded
  std::size_t duplicates = 0;        ///< idempotent re-deliveries dropped
  std::vector<GatherNote> notes;     ///< damage tolerated (partial mode)
  int header_shards = 0;  ///< `shards` from the first header (0 = none)

  bool complete() const { return missing.empty(); }
};

/// Reads shard JSONL files back into per-job results (indexed by job).
/// Strict mode (default) throws at the first problem: malformed JSON,
/// a wrong format/version/fingerprint header (ShardFormatError), an
/// out-of-range or duplicate job index, or jobs missing across the
/// whole input set — the missing error names every absent job id
/// (capped with an "... and N more") and the static round-robin shard
/// each would have belonged to.  Partial mode (see GatherOptions)
/// salvages instead of throwing.
GatherReport gather_shards_report(const GridSpec& spec,
                                  const std::vector<std::string>& files,
                                  const GatherOptions& options = {});

/// Strict gather: gather_shards_report with default options, unwrapped.
std::vector<RunResult> gather_shards(const GridSpec& spec,
                                     const std::vector<std::string>& files);

/// The re-run contract an incomplete gather emits: the full spec (so a
/// resume needs no side channel), its fingerprint (tamper guard), and
/// the sorted missing job list.  `dufp_shard_worker run --resume M`
/// executes exactly these jobs; gathering the original files plus the
/// resume output in partial mode then completes to bytes identical to
/// an unfailed run.
struct RetryManifest {
  GridSpec spec;
  std::vector<std::size_t> missing;  ///< sorted, unique, in range

  json::Value to_json() const;
  std::string canonical_text() const;
  static RetryManifest from_json(const json::Value& v);
  static RetryManifest parse(std::string_view text);
  static RetryManifest load(const std::string& path);
};

/// The manifest for an incomplete gather.  Throws std::logic_error if
/// the report is complete (there is nothing to retry).
RetryManifest make_retry_manifest(const GridSpec& spec,
                                  const GatherReport& report);

/// Everything a gathered grid produces, in deterministic bytes.
struct GridOutputs {
  std::vector<Evaluation> evaluations;

  /// Per-grid-point CSV (%.17g, health columns included) — the byte
  /// surface the shard determinism suite compares.
  std::string evaluation_csv;

  /// Job-labelled merge of every job's Prometheus exposition (samples
  /// stable-sorted by metric name, job order within a name); empty when
  /// the spec has telemetry off.
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
