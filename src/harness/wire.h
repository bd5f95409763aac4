// The payload-agnostic half of the sharded execution layer: everything
// about streaming versioned JSONL shard files, claiming chunks through
// leases, and gathering records back exactly-once is independent of
// *what* a job computes.  This header owns that machinery; harness/shard.h
// types it per spec kind (experiment grids here, fleet node simulations
// in src/fleet) — both kinds speak the identical wire dialect (same
// header keys, same error surface, same duplicate/determinism
// guarantees), so operational tooling works on either kind of file.
//
// A wire file is:
//   - one header line: {"format":...,"version":2,"spec_name":...,
//     "spec_fingerprint":...,"shard":...,"shards":...,"job_count":...}
//   - one line per job: {"job":i,"result":{...}} with every double as its
//     IEEE-754 bit pattern (see harness/shard_codec.h for the grid
//     payload).  Each record is self-contained: a salvaged, resumed or
//     re-delivered record decodes on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "harness/chaos.h"

namespace dufp::harness {

/// Version of the result-stream header, one across every payload kind
/// (grid and fleet wire files); bump on any change to a record's layout.
/// v2 made grid telemetry compact (a per-record help table, zero fields
/// omitted) and carries flight-recorder data for job 0 only.
inline constexpr int kShardWireVersion = 2;

/// Version of the documents that describe work rather than results:
/// GridSpec, FleetSpec and their retry manifests.  Kept apart from the
/// wire version because it is part of each spec's canonical text, so a
/// bump would move every spec fingerprint (the reference grid's
/// 21edcce3c4c0b5a6 is pinned by a test).
inline constexpr int kShardDocumentVersion = 1;

/// Wire/format-contract violations: a file or document that is not what
/// the operation was told it is (wrong format, unsupported version,
/// fingerprint mismatch, invalid spec).  Distinguished from plain
/// std::runtime_error so the CLI can exit with its documented
/// spec-mismatch code.
class ShardFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A spec fingerprint as wire headers and retry manifests carry it:
/// 16 lowercase hex digits.
std::string fingerprint_hex(std::uint64_t fingerprint);

/// The checks every work document (a spec or a retry manifest) shares:
/// `doc` must carry the "format" of `canonical` (the writer's own output
/// for this document type), version kShardDocumentVersion, and no key
/// that `canonical` lacks — a key no reader consumes would otherwise be
/// dropped in silence.  Throws one ShardFormatError prefixed with
/// `what`; the unknown keys are all listed.
void check_document(const json::Value& doc, const json::Value& canonical,
                    std::string_view what);

/// Returns parse(), which reads a work document another process wrote —
/// json::parse of its text, then a spec's or retry manifest's from_json —
/// with every std::runtime_error it throws as a ShardFormatError.
/// common/json reports malformed text, a missing key and a value of the
/// wrong JSON type as plain runtime errors; through here they are what
/// they are, a bad document (the CLI's exit 3), like every defect
/// check_document and from_json find.
template <class Parse>
decltype(auto) parse_document(Parse&& parse) {
  try {
    return parse();
  } catch (const ShardFormatError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw ShardFormatError(e.what());
  }
}

/// Lease policy of a FileChunkClaimer.
struct LeaseOptions {
  /// Unique id of this claimer (one per worker attempt).  Empty derives
  /// "pid<pid>" — fine for ad-hoc runs; supervisors pass stable ids so
  /// crash blame and chaos schedules are reproducible.
  std::string owner;

  /// A lease whose heartbeat is older than this is considered orphaned
  /// and may be stolen.  <= 0 disables stealing entirely (the PR-5
  /// permanent-claim behavior).
  double ttl_seconds = 30.0;
};

/// Claims chunks of the job list for dynamic load balancing: try_claim
/// returns true for at most one *live* owner per chunk across every
/// cooperating worker (workers may race), and the lease hooks below
/// recover chunks whose owner died.
///
/// Chunk k's lease is `<dir>/chunk<k>.claim`,
/// created with O_CREAT|O_EXCL (POSIX-atomic, so concurrent workers
/// never double-claim) and carrying `owner=<id>` plus a monotonically
/// increasing heartbeat counter.  The owner keeps the fd open; renew()
/// rewrites the record in place, bumping both the counter and the file
/// mtime — the mtime is the cross-process staleness signal (any shared
/// filesystem dynamic mode already requires).
///
/// Steal protocol (at-most-one live owner, no locks):
///   1. A claimer finding an existing lease older than the TTL renames
///      it to a unique `.stale.<owner>.<n>` name.  rename(2) is atomic:
///      of any number of racing stealers, exactly one wins (the rest see
///      ENOENT) — the loser retries from the top.
///   2. The winner unlinks the stale lease and falls back to the normal
///      O_CREAT|O_EXCL create, which it may still lose to a fresh
///      claimer — ownership is only ever granted by winning the create.
///   3. The previous owner, if merely stalled rather than dead, detects
///      the theft by inode comparison (still_owner) and drops its
///      now-duplicate output instead of emitting it.
///
/// Completed chunks are recorded as `chunk<k>.done` markers (idempotent:
/// creating an existing marker is a no-op) and never reclaimable;
/// quarantined chunks as `chunk<k>.poison` (see ShardSupervisor), which
/// try_claim refuses so a job that kills its workers cannot take the
/// whole fleet down with it.
class FileChunkClaimer {
 public:
  /// `dir` must exist and be shared by every cooperating worker.
  explicit FileChunkClaimer(std::string dir, LeaseOptions lease = {});
  ~FileChunkClaimer();  // closes fds; leases stay on disk

  bool try_claim(int chunk);

  /// Heartbeats every lease this claimer holds; called between result
  /// records so a long grid never looks dead.
  void renew();

  /// True while this claimer still owns `chunk`'s lease.  A worker that
  /// was stalled past the TTL may have had its lease stolen; it must
  /// check before emitting the chunk's records (the thief re-runs them).
  bool still_owner(int chunk);

  /// Marks `chunk` finished (its records are durably emitted) and
  /// releases the lease.  Returns false — and records nothing — when
  /// ownership was lost, so a stale worker can never clobber the
  /// thief's in-flight claim.  Completion records are idempotent:
  /// completing an already-completed chunk is a no-op.
  bool complete(int chunk);

  const std::string& owner() const { return owner_; }

  /// Chunks this claimer refused because a poison marker quarantines
  /// them (their jobs must be reported, not silently skipped).
  const std::vector<int>& poisoned_seen() const { return poisoned_seen_; }

  // Marker-file paths, shared with the supervisor and tests.
  static std::string claim_path(const std::string& dir, int chunk);
  static std::string done_path(const std::string& dir, int chunk);
  static std::string poison_path(const std::string& dir, int chunk);

  /// The lease record at `path`, if one can be read.
  struct LeaseInfo {
    std::string owner;
    std::uint64_t heartbeat = 0;
  };
  static std::optional<LeaseInfo> read_lease(const std::string& path);

 private:
  std::string dir_;
  std::string owner_;
  double ttl_seconds_;
  std::map<int, int> held_;  ///< chunk -> open lease fd
  int steal_seq_ = 0;        ///< uniquifies this claimer's steal renames
  std::uint64_t heartbeat_ = 0;
  std::vector<int> poisoned_seen_;
};

struct ShardRunOptions {
  int shard = 0;   ///< this worker's id in [0, shards)
  int shards = 1;  ///< total workers
  int threads = 1; ///< in-process thread pool width (DUFP_THREADS-style)

  /// > 0 switches from static round-robin to dynamic chunk claiming:
  /// the job list is cut into chunks of this size and workers claim
  /// chunks through `claimer` until none remain.  `shard`/`shards` then
  /// only label the output file.
  int chunk_size = 0;
  FileChunkClaimer* claimer = nullptr;  ///< required when chunk_size > 0

  /// Resume mode: restrict this run to exactly these job indices (a
  /// retry manifest's missing list).  Static assignment round-robins
  /// over the list; dynamic mode cuts its chunks from it.  nullptr runs
  /// the whole plan.  Indices must be valid and strictly ascending.
  const std::vector<std::size_t>* job_filter = nullptr;

  /// Seeded self-SIGKILL injection (DUFP_CHAOS); kill_rate 0 = off.
  ChaosOptions chaos;
};

/// What identifies one shardable workload on the wire, independent of
/// its payload type.  Both sides of the wire derive one of these from
/// their spec: the runner stamps it into the header, the gatherer
/// rejects files whose header disagrees.
struct WireIdentity {
  std::string format;           ///< e.g. "dufp-shard-result"
  std::string spec_name;
  std::string fingerprint_hex;  ///< %016llx of the spec's fingerprint
  std::size_t job_count = 0;

  /// Optional human attribution of a job index ("rack 1 / node 3"),
  /// appended to missing-job error messages so operators see *what*
  /// is absent, not just which index.  nullptr keeps the bare ids.
  std::function<std::string(std::size_t)> job_label;
};

/// Runs this worker's share of the jobs and streams the versioned JSONL
/// (header line + one line per job) to `out`.  `run` executes a batch of
/// job indices and returns one encoded payload per index, in order (the
/// record encoders return their text as a raw json::Value, which is
/// copied into the line verbatim) — everything else (static/dynamic
/// assignment, resume filters, lease renewal, chaos injection,
/// crash-safe flushing) lives here.
void run_shard_wire(
    const WireIdentity& id, const ShardRunOptions& options,
    const std::function<std::vector<json::Value>(
        const std::vector<std::size_t>&)>& run,
    std::ostream& out);

struct GatherOptions {
  /// Salvage mode: tolerate damaged input — truncated or corrupt lines
  /// are skipped (each noted with file:line), unreadable files are
  /// skipped whole, byte-identical duplicate records are dropped as
  /// idempotent re-deliveries (a reclaimed chunk legitimately re-emits
  /// its jobs) — and report what is missing instead of throwing.
  /// Duplicates whose bytes *differ* still throw in every mode: two
  /// different results for one job is a determinism violation, never
  /// damage.  The bytes compared are the "result" value's as read, so
  /// the same value spaced differently counts as different.
  bool partial = false;
};

/// One piece of damage tolerated (partial mode) in an input file.
struct GatherNote {
  std::string file;
  int line = 0;  ///< 1-based; 0 = whole-file problem
  std::string what;
};

/// Everything a payload-agnostic gather pass learned; the payload-typed
/// results live with the caller (its `store` callback received them).
struct WireGatherReport {
  std::size_t job_count = 0;
  std::vector<bool> have;
  std::vector<std::size_t> missing;  ///< sorted ascending
  std::size_t records = 0;           ///< complete records decoded
  std::size_t duplicates = 0;        ///< idempotent re-deliveries dropped
  std::vector<GatherNote> notes;     ///< damage tolerated (partial mode)
  int header_shards = 0;  ///< max `shards` over the headers (0 = none)

  bool complete() const { return missing.empty(); }
};

/// Reads wire JSONL files back, validating headers against `id` and
/// demanding every job exactly once across the input set.  `store` is
/// called once per fresh record with the job index and its "result"
/// value; it decodes and keeps the payload (a throw is treated exactly
/// like an undecodable record).  Strict mode throws at the first
/// problem; partial mode salvages (see GatherOptions).
WireGatherReport gather_wire(
    const WireIdentity& id, const std::vector<std::string>& files,
    const GatherOptions& options,
    const std::function<void(std::size_t, const json::Value&)>& store);

}  // namespace dufp::harness
