// Fault-tolerant supervision of local shard workers.
//
// PR 5's sharding assumed every worker runs to completion: one SIGKILL
// mid-grid and the run was unrecoverable.  The ShardSupervisor lifts the
// agent-watchdog discipline from PR 2 (bounded retries, exponential
// backoff, fail-open) to the process layer: it forks N dynamic-mode
// workers over one claim directory, reaps them, classifies every exit,
// restarts crashed workers with backoff, enforces per-worker deadlines,
// and quarantines a chunk that kills its worker twice (a "poison job")
// so one bad input cannot take the whole fleet down.
//
// Recovery composition (see DESIGN.md §7d):
//   - a worker the supervisor reaps has its leases released *immediately*
//     (we know it is dead — no need to wait out the TTL);
//   - a worker nobody supervises (another machine, pulled power cord) is
//     covered by the lease TTL + steal protocol in FileChunkClaimer;
//   - whatever is still missing after supervision (restart budget
//     exhausted, poisoned chunks) is exactly what `gather --partial`
//     reports and a retry manifest re-runs.
//
// Every worker writes to `<out_dir>/w<slot>.a<attempt>.jsonl.partial`
// and atomically renames to `.jsonl` on success, so a visible `.jsonl`
// is always complete and a `.partial` is honestly labeled salvage input.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/chaos.h"
#include "harness/shard.h"

namespace dufp::harness {

/// Exit classification of one worker attempt.
enum class WorkerExitClass {
  clean,      ///< exit 0: ran out of claimable chunks
  retryable,  ///< killed by a signal, I/O error, or job failure: respawn
  fatal,      ///< usage / spec mismatch: restarting cannot help
};

const char* to_string(WorkerExitClass c);

struct SupervisorOptions {
  int workers = 2;      ///< concurrent worker slots
  int threads = 1;      ///< in-process threads per worker
  int chunk_size = 1;   ///< dynamic chunk size (supervised mode is dynamic)
  std::string out_dir;  ///< claim dir + worker output files; must exist

  double lease_ttl_seconds = 30.0;  ///< forwarded to every worker's claimer
  int max_restarts = 2;             ///< per worker slot, beyond attempt 0
  double backoff_base_seconds = 0.05;  ///< restart delay, doubled per attempt
  double backoff_max_seconds = 1.0;
  double worker_deadline_seconds = 0.0;  ///< > 0: SIGKILL a slower worker

  /// Blame threshold: a chunk whose lease was held by a dying worker
  /// this many times is quarantined (a `.poison` marker no claimer will
  /// touch) and reported instead of endlessly re-killing workers.
  int poison_threshold = 2;

  ChaosOptions chaos;  ///< seeded self-SIGKILL injection (worker/attempt
                       ///< salts are filled in per spawn)

  /// Resume mode: restrict the run to these job indices (see
  /// ShardRunOptions::job_filter).  Must outlive the call.
  const std::vector<std::size_t>* job_filter = nullptr;

  bool quiet = true;  ///< false: progress notes on stderr

  /// Test seam: when set, the forked child runs this instead of a shard
  /// worker and its return value is the exit code.  The production path
  /// never sets it.
  std::function<int(int worker, int attempt)> child_override;
};

/// What the supervisor runs, independent of the payload kind: the size
/// of the job universe (for chunk accounting) and the worker body that
/// executes one attempt's share and streams its wire file.
/// supervise_shard_run wraps run_shard here for every spec kind, so grids
/// and fleets get the identical fork/reap/restart/poison machinery.
struct SupervisedWork {
  /// Full job count of the underlying plan (before any job_filter).
  std::size_t job_count = 0;

  /// Runs one worker attempt's share to `out`.  Runs inside the forked
  /// child; a ShardFormatError maps to the spec-mismatch exit code
  /// (fatal), any other exception to the job-failure code (retryable).
  std::function<void(const ShardRunOptions&, std::ostream&)> run;
};

/// One reaped worker attempt, in reap order.
struct WorkerAttempt {
  int worker = 0;
  int attempt = 0;
  int exit_code = -1;  ///< -1 when killed by a signal
  int signal = 0;      ///< 0 when exited normally
  bool deadline_killed = false;
  WorkerExitClass exit_class = WorkerExitClass::retryable;
  std::string output_file;  ///< the path this attempt wrote (or partially)
};

struct SupervisorReport {
  std::vector<WorkerAttempt> attempts;
  int restarts = 0;        ///< respawns performed (attempts beyond first)
  int deadline_kills = 0;  ///< workers SIGKILLed for exceeding the deadline
  int leases_released = 0; ///< dead workers' leases reap-released
  std::vector<int> poisoned_chunks;  ///< quarantined this run (sorted)
  bool fatal = false;      ///< a worker hit a non-retryable config error

  /// Every output file that exists after supervision: completed
  /// `.jsonl` finals plus crashed attempts' `.jsonl.partial` leftovers —
  /// exactly the input set for `gather --partial`.
  std::vector<std::string> output_files;

  /// True when every chunk carries a done marker (the grid completed
  /// under supervision; a strict gather should succeed).
  bool all_chunks_done = false;
};

/// Runs `work` to completion (or restart exhaustion) under supervision.
/// Throws std::invalid_argument on malformed options and
/// std::runtime_error on fork/filesystem failures; worker failures are
/// reported, never thrown.
SupervisorReport supervise_work(const SupervisedWork& work,
                                const SupervisorOptions& options);

/// supervise_work bound to a spec of either kind (run_shard as the
/// worker body).
template <class Spec>
SupervisorReport supervise_shard_run(const Spec& spec,
                                     const SupervisorOptions& options) {
  SupervisedWork work;
  work.job_count = spec.wire_identity().job_count;
  work.run = [&spec](const ShardRunOptions& opts, std::ostream& out) {
    run_shard(spec, opts, out);
  };
  return supervise_work(work, options);
}

}  // namespace dufp::harness
