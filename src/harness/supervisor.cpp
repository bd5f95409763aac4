#include "harness/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common/string_util.h"

namespace dufp::harness {

const char* to_string(WorkerExitClass c) {
  switch (c) {
    case WorkerExitClass::clean: return "clean";
    case WorkerExitClass::retryable: return "retryable";
    case WorkerExitClass::fatal: return "fatal";
  }
  return "?";
}

namespace {

double now_seconds() {
  struct timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_seconds(double s) {
  struct timespec ts{};
  ts.tv_sec = static_cast<time_t>(s);
  ts.tv_nsec = static_cast<long>((s - static_cast<double>(ts.tv_sec)) * 1e9);
  ::nanosleep(&ts, nullptr);
}

bool path_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// The worker side of the documented exit-code contract
/// (cli/shard_worker.cpp defines the full set; workers use this subset).
constexpr int kExitClean = 0;
constexpr int kExitInternal = 1;
constexpr int kExitSpec = 3;
constexpr int kExitJob = 4;
constexpr int kExitIo = 5;

/// One supervised worker attempt's whole life, run inside the fork:
/// claim chunks, stream records to the `.partial` file, fsync and
/// atomically rename on success.  Exit code is the only channel back.
int worker_child_main(const SupervisedWork& work, const SupervisorOptions& sup,
                      int worker, int attempt, const std::string& partial,
                      const std::string& final_path) {
  try {
    LeaseOptions lease;
    lease.owner = strf("w%d.a%d", worker, attempt);
    lease.ttl_seconds = sup.lease_ttl_seconds;
    FileChunkClaimer claimer(sup.out_dir, lease);

    ShardRunOptions opts;
    opts.shard = worker;
    opts.shards = sup.workers;
    opts.threads = sup.threads;
    opts.chunk_size = sup.chunk_size;
    opts.claimer = &claimer;
    opts.job_filter = sup.job_filter;
    opts.chaos = sup.chaos;
    opts.chaos.worker = worker;
    opts.chaos.attempt = attempt;

    {
      std::ofstream out(partial, std::ios::binary);
      if (!out.good()) return kExitIo;
      try {
        work.run(opts, out);
      } catch (const ShardFormatError& e) {
        std::fprintf(stderr, "[worker %d.%d] %s\n", worker, attempt,
                     e.what());
        return kExitSpec;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[worker %d.%d] %s\n", worker, attempt,
                     e.what());
        return kExitJob;
      }
      if (!out.good()) return kExitIo;
    }
    // fsync + atomic rename: a visible `.jsonl` is always a complete,
    // header-checked file; anything torn stays honestly `.partial`.
    const int fd = ::open(partial.c_str(), O_RDONLY);
    if (fd < 0) return kExitIo;
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    if (!synced) return kExitIo;
    if (::rename(partial.c_str(), final_path.c_str()) != 0) return kExitIo;
    return kExitClean;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[worker %d.%d] %s\n", worker, attempt, e.what());
    return kExitInternal;
  }
}

WorkerExitClass classify(int exit_code, int signal) {
  if (signal != 0) return WorkerExitClass::retryable;
  if (exit_code == kExitClean) return WorkerExitClass::clean;
  if (exit_code == 2 || exit_code == kExitSpec) return WorkerExitClass::fatal;
  return WorkerExitClass::retryable;  // job failure, I/O, internal
}

struct Slot {
  pid_t pid = -1;
  int attempts_done = 0;   ///< attempts fully reaped so far
  int current_attempt = 0;
  double started_at = 0.0;
  double respawn_at = 0.0;  ///< > 0: spawn pending at this time
  bool deadline_killed = false;
  bool finished = false;    ///< clean, fatal, or restart-exhausted
  std::string partial_path;
  std::string final_path;
};

}  // namespace

SupervisorReport supervise_work(const SupervisedWork& work,
                                const SupervisorOptions& options) {
  if (options.workers < 1) {
    throw std::invalid_argument("supervise_shard_run: workers must be >= 1");
  }
  if (options.chunk_size < 1) {
    throw std::invalid_argument(
        "supervise_shard_run: chunk_size must be >= 1 (supervised mode is "
        "dynamic)");
  }
  if (options.out_dir.empty() || !path_exists(options.out_dir)) {
    throw std::runtime_error(
        "supervise_shard_run: out_dir must exist: " + options.out_dir);
  }

  const std::size_t universe_size = options.job_filter != nullptr
                                        ? options.job_filter->size()
                                        : work.job_count;
  const int chunks = static_cast<int>(
      (universe_size + static_cast<std::size_t>(options.chunk_size) - 1) /
      static_cast<std::size_t>(options.chunk_size));

  SupervisorReport report;
  std::vector<Slot> slots(static_cast<std::size_t>(options.workers));
  std::map<int, int> blame;  ///< chunk -> deaths while holding its lease

  auto spawn = [&](int k) {
    Slot& slot = slots[static_cast<std::size_t>(k)];
    const int attempt = slot.attempts_done;
    slot.current_attempt = attempt;
    slot.partial_path =
        options.out_dir + strf("/w%d.a%d.jsonl.partial", k, attempt);
    slot.final_path = options.out_dir + strf("/w%d.a%d.jsonl", k, attempt);
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error(strf("supervise_shard_run: fork: %s",
                                    std::strerror(errno)));
    }
    if (pid == 0) {
      if (options.child_override) {
        ::_exit(options.child_override(k, attempt));
      }
      ::_exit(worker_child_main(work, options, k, attempt, slot.partial_path,
                                slot.final_path));
    }
    slot.pid = pid;
    slot.started_at = now_seconds();
    slot.respawn_at = 0.0;
    if (attempt > 0) ++report.restarts;
    if (!options.quiet) {
      std::fprintf(stderr, "[supervisor] spawned worker %d attempt %d (pid "
                           "%d)\n",
                   k, attempt, static_cast<int>(pid));
    }
  };

  /// A reaped worker is *known* dead: release its leases immediately
  /// instead of waiting out the TTL, blaming each held chunk — a chunk
  /// blamed `poison_threshold` times is quarantined with a marker no
  /// claimer will touch.
  auto release_and_blame = [&](const std::string& owner) {
    for (int c = 0; c < chunks; ++c) {
      const std::string claim =
          FileChunkClaimer::claim_path(options.out_dir, c);
      const auto lease = FileChunkClaimer::read_lease(claim);
      if (!lease.has_value() || lease->owner != owner) continue;
      const int deaths = ++blame[c];
      if (deaths >= options.poison_threshold) {
        const std::string poison =
            FileChunkClaimer::poison_path(options.out_dir, c);
        const int fd = ::open(poison.c_str(), O_CREAT | O_WRONLY, 0644);
        if (fd >= 0) {
          const std::string note = strf("deaths=%d owner=%s\n", deaths,
                                        owner.c_str());
          (void)::write(fd, note.data(), note.size());
          ::close(fd);
        }
        report.poisoned_chunks.push_back(c);
        if (!options.quiet) {
          std::fprintf(stderr, "[supervisor] chunk %d poisoned after %d "
                               "worker deaths\n",
                       c, deaths);
        }
      }
      ::unlink(claim.c_str());
      ++report.leases_released;
    }
  };

  for (int k = 0; k < options.workers; ++k) spawn(k);

  for (;;) {
    bool any_live = false;
    bool any_pending = false;
    const double now = now_seconds();

    for (int k = 0; k < options.workers; ++k) {
      Slot& slot = slots[static_cast<std::size_t>(k)];
      if (slot.pid >= 0) {
        int status = 0;
        const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
        if (r == 0) {
          // Still running: enforce the deadline.
          if (options.worker_deadline_seconds > 0.0 &&
              now - slot.started_at > options.worker_deadline_seconds &&
              !slot.deadline_killed) {
            ::kill(slot.pid, SIGKILL);
            slot.deadline_killed = true;
            ++report.deadline_kills;
          }
          any_live = true;
          continue;
        }
        // Reaped: classify and decide.
        WorkerAttempt attempt;
        attempt.worker = k;
        attempt.attempt = slot.current_attempt;
        attempt.deadline_killed = slot.deadline_killed;
        if (WIFEXITED(status)) {
          attempt.exit_code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          attempt.signal = WTERMSIG(status);
        }
        attempt.exit_class = classify(attempt.exit_code, attempt.signal);
        attempt.output_file = path_exists(slot.final_path)
                                  ? slot.final_path
                                  : slot.partial_path;
        if (!options.quiet) {
          std::fprintf(
              stderr, "[supervisor] worker %d attempt %d: %s (code %d, "
                      "signal %d)\n",
              k, slot.current_attempt, to_string(attempt.exit_class),
              attempt.exit_code, attempt.signal);
        }
        report.attempts.push_back(attempt);
        slot.pid = -1;
        slot.deadline_killed = false;
        ++slot.attempts_done;

        if (attempt.exit_class == WorkerExitClass::clean) {
          slot.finished = true;
        } else if (attempt.exit_class == WorkerExitClass::fatal) {
          report.fatal = true;
          slot.finished = true;  // restarting a config error cannot help
        } else {
          release_and_blame(strf("w%d.a%d", k, slot.current_attempt));
          if (slot.attempts_done <= options.max_restarts) {
            const double backoff = std::min(
                options.backoff_max_seconds,
                options.backoff_base_seconds *
                    static_cast<double>(1 << std::min(slot.attempts_done - 1,
                                                      20)));
            slot.respawn_at = now + backoff;
            any_pending = true;
          } else {
            slot.finished = true;  // restart budget exhausted
          }
        }
        continue;
      }
      if (!slot.finished && slot.respawn_at > 0.0) {
        if (now >= slot.respawn_at) {
          spawn(k);
          any_live = true;
        } else {
          any_pending = true;
        }
      }
    }

    if (!any_live && !any_pending) break;
    sleep_seconds(0.002);
  }

  // Everything written (finals and torn partials) is salvage input.
  for (const WorkerAttempt& a : report.attempts) {
    if (path_exists(a.output_file)) {
      if (std::find(report.output_files.begin(), report.output_files.end(),
                    a.output_file) == report.output_files.end()) {
        report.output_files.push_back(a.output_file);
      }
    }
  }
  std::sort(report.poisoned_chunks.begin(), report.poisoned_chunks.end());

  report.all_chunks_done = true;
  for (int c = 0; c < chunks; ++c) {
    if (!path_exists(FileChunkClaimer::done_path(options.out_dir, c))) {
      report.all_chunks_done = false;
      break;
    }
  }
  return report;
}

}  // namespace dufp::harness
