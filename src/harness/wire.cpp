#include "harness/wire.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "common/string_util.h"

namespace dufp::harness {

namespace {

using json::Value;

[[noreturn]] void gather_fail(const std::string& file, int line,
                              const std::string& what) {
  throw std::runtime_error(
      strf("gather: %s:%d: %s", file.c_str(), line, what.c_str()));
}

[[noreturn]] void format_fail(const std::string& file, int line,
                              const std::string& what) {
  throw ShardFormatError(
      strf("gather: %s:%d: %s", file.c_str(), line, what.c_str()));
}

}  // namespace

// -- work documents ----------------------------------------------------------

std::string fingerprint_hex(std::uint64_t fingerprint) {
  return strf("%016llx", static_cast<unsigned long long>(fingerprint));
}

void check_document(const Value& doc, const Value& canonical,
                    std::string_view what) {
  const std::string prefix = std::string(what) + ": ";
  const std::string& format = canonical.at("format").as_string();
  if (doc.at("format").as_string() != format) {
    throw ShardFormatError(prefix + "not a " + format + " document");
  }
  const std::int64_t version = doc.at("version").as_i64();
  if (version != kShardDocumentVersion) {
    throw ShardFormatError(
        prefix + strf("unsupported version %lld (this build speaks %d)",
                      static_cast<long long>(version), kShardDocumentVersion));
  }
  std::string unknown;
  for (const auto& [key, value] : doc.as_object()) {
    if (canonical.find(key) != nullptr) continue;
    if (!unknown.empty()) unknown += ", ";
    json::escape_string(key, unknown);
  }
  if (unknown.empty()) return;
  std::string known;
  for (const auto& [key, value] : canonical.as_object()) {
    known += (known.empty() ? "" : ", ") + key;
  }
  throw ShardFormatError(prefix + "unknown key(s) " + unknown + " (known: " +
                         known + ")");
}

// -- lease-based chunk claims ------------------------------------------------
//
// Lease record layout (fixed width so renew() can rewrite in place with
// one pwrite): "owner=<id>\nheartbeat=<20-digit counter>\n".

namespace {

std::string lease_record(const std::string& owner, std::uint64_t heartbeat) {
  return strf("owner=%s\nheartbeat=%020llu\n", owner.c_str(),
              static_cast<unsigned long long>(heartbeat));
}

/// Seconds since the file at `path` was last written, or nullopt when it
/// does not exist.  CLOCK_REALTIME on both sides: the mtime a shared
/// filesystem stamps is wall-clock, so the staleness comparison must be
/// too.
std::optional<double> file_age_seconds(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  struct timespec now{};
  ::clock_gettime(CLOCK_REALTIME, &now);
  return (static_cast<double>(now.tv_sec) -
          static_cast<double>(st.st_mtim.tv_sec)) +
         (static_cast<double>(now.tv_nsec) -
          static_cast<double>(st.st_mtim.tv_nsec)) *
             1e-9;
}

}  // namespace

std::string FileChunkClaimer::claim_path(const std::string& dir, int chunk) {
  return dir + "/chunk" + std::to_string(chunk) + ".claim";
}
std::string FileChunkClaimer::done_path(const std::string& dir, int chunk) {
  return dir + "/chunk" + std::to_string(chunk) + ".done";
}
std::string FileChunkClaimer::poison_path(const std::string& dir, int chunk) {
  return dir + "/chunk" + std::to_string(chunk) + ".poison";
}

std::optional<FileChunkClaimer::LeaseInfo> FileChunkClaimer::read_lease(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  LeaseInfo info;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("owner=", 0) == 0) {
      info.owner = line.substr(6);
    } else if (line.rfind("heartbeat=", 0) == 0) {
      unsigned long long hb = 0;
      if (parse_u64(trim(line.substr(10)), hb)) info.heartbeat = hb;
    }
  }
  if (info.owner.empty()) return std::nullopt;
  return info;
}

FileChunkClaimer::FileChunkClaimer(std::string dir, LeaseOptions lease)
    : dir_(std::move(dir)),
      owner_(lease.owner.empty() ? "pid" + std::to_string(::getpid())
                                 : std::move(lease.owner)),
      ttl_seconds_(lease.ttl_seconds) {}

FileChunkClaimer::~FileChunkClaimer() {
  // Close fds only: held leases stay on disk, exactly as after a crash;
  // the TTL hands them to the next claimer.
  for (const auto& [chunk, fd] : held_) ::close(fd);
}

bool FileChunkClaimer::try_claim(int chunk) {
  const std::string claim = claim_path(dir_, chunk);
  // A few bounded rounds: each loses only to concrete progress by
  // someone else (their create or their steal), so looping forever is
  // impossible — 8 rounds is already unreachable in practice.
  for (int round = 0; round < 8; ++round) {
    struct stat st{};
    if (::stat(done_path(dir_, chunk).c_str(), &st) == 0) return false;
    if (::stat(poison_path(dir_, chunk).c_str(), &st) == 0) {
      if (std::find(poisoned_seen_.begin(), poisoned_seen_.end(), chunk) ==
          poisoned_seen_.end()) {
        poisoned_seen_.push_back(chunk);
      }
      return false;
    }

    const int fd = ::open(claim.c_str(), O_CREAT | O_EXCL | O_RDWR, 0644);
    if (fd >= 0) {
      const std::string record = lease_record(owner_, ++heartbeat_);
      if (::pwrite(fd, record.data(), record.size(), 0) < 0) {
        ::close(fd);
        ::unlink(claim.c_str());
        throw std::runtime_error("FileChunkClaimer: cannot write " + claim +
                                 ": " + std::strerror(errno));
      }
      held_[chunk] = fd;
      return true;
    }
    if (errno != EEXIST) {
      throw std::runtime_error("FileChunkClaimer: cannot create " + claim +
                               ": " + std::strerror(errno));
    }

    // Someone holds the lease.  Fresh (or stealing disabled): back off.
    const auto age = file_age_seconds(claim);
    if (!age.has_value()) continue;  // vanished under us; retry the create
    if (ttl_seconds_ <= 0.0 || *age <= ttl_seconds_) return false;

    // Stale: steal by renaming the lease away.  rename(2) is atomic, so
    // of any racing stealers exactly one succeeds; the rest see ENOENT
    // and loop back to race for the create like everyone else.
    const std::string stale =
        claim + ".stale." + owner_ + "." + std::to_string(steal_seq_++);
    if (::rename(claim.c_str(), stale.c_str()) == 0) {
      ::unlink(stale.c_str());
      continue;  // now race for the O_EXCL create
    }
    if (errno == ENOENT) continue;  // another stealer won; race the create
    throw std::runtime_error("FileChunkClaimer: cannot steal " + claim +
                             ": " + std::strerror(errno));
  }
  return false;
}

void FileChunkClaimer::renew() {
  ++heartbeat_;
  for (const auto& [chunk, fd] : held_) {
    const std::string record = lease_record(owner_, heartbeat_);
    // pwrite on the kept-open fd touches *our* inode even if the lease
    // path was stolen out from under us — a thief's fresh lease is never
    // overwritten, and the write's mtime bump is the heartbeat signal.
    (void)::pwrite(fd, record.data(), record.size(), 0);
  }
}

bool FileChunkClaimer::still_owner(int chunk) {
  const auto it = held_.find(chunk);
  if (it == held_.end()) return false;
  struct stat ours{}, current{};
  if (::fstat(it->second, &ours) != 0) return false;
  if (::stat(claim_path(dir_, chunk).c_str(), &current) != 0) {
    return false;  // lease gone entirely (released or mid-steal)
  }
  return ours.st_dev == current.st_dev && ours.st_ino == current.st_ino;
}

bool FileChunkClaimer::complete(int chunk) {
  const auto it = held_.find(chunk);
  if (it == held_.end()) return false;
  if (!still_owner(chunk)) {
    // Stolen while we were stalled: the thief re-runs the chunk and will
    // record completion itself.  Dropping out here is what keeps the
    // at-most-one-live-owner guarantee useful.
    ::close(it->second);
    held_.erase(it);
    return false;
  }
  // Done marker first, then release: any observer ordering is safe —
  // done+claim reads as done, and creating an existing marker (a
  // re-delivered completion) is a no-op, making completions idempotent.
  const std::string done = done_path(dir_, chunk);
  const int fd = ::open(done.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd < 0) {
    throw std::runtime_error("FileChunkClaimer: cannot record " + done +
                             ": " + std::strerror(errno));
  }
  (void)::write(fd, owner_.data(), owner_.size());
  ::close(fd);
  ::close(it->second);
  held_.erase(it);
  ::unlink(claim_path(dir_, chunk).c_str());
  return true;
}

// -- shard worker ------------------------------------------------------------

namespace {

/// Per-process emission state threaded through every chunk: the chaos
/// plan fires on the count of records this process has emitted, and the
/// claimer heartbeats between records so a long chunk never looks dead.
struct EmitContext {
  const ChaosPlan* chaos = nullptr;
  FileChunkClaimer* claimer = nullptr;
  std::uint64_t position = 0;
};

void emit_records(const std::vector<std::size_t>& indices,
                  const std::vector<Value>& payloads, std::ostream& out,
                  EmitContext& ctx) {
  std::string record;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    record.clear();
    json::Writer(record)
        .begin_object()
        .key("job").u64(indices[i])
        .key("result").value(payloads[i])
        .end_object();
    if (ctx.claimer != nullptr) ctx.claimer->renew();
    if (ctx.chaos != nullptr) {
      ctx.chaos->maybe_kill(ctx.position, out, record);  // may not return
    }
    record += '\n';
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
    ++ctx.position;
  }
  out.flush();  // one chunk's results survive a later worker crash
}

}  // namespace

void run_shard_wire(
    const WireIdentity& id, const ShardRunOptions& options,
    const std::function<std::vector<json::Value>(
        const std::vector<std::size_t>&)>& run,
    std::ostream& out) {
  if (options.chunk_size > 0 && options.claimer == nullptr) {
    throw std::invalid_argument("run_shard: dynamic mode needs a claimer");
  }
  const std::size_t jobs = id.job_count;

  // Resume mode: the universe of work shrinks to the manifest's missing
  // list; everything else (header, chunking, claiming) is unchanged, so
  // a resume output file is an ordinary shard file.
  std::vector<std::size_t> universe;
  if (options.job_filter != nullptr) {
    universe = *options.job_filter;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (universe[i] >= jobs || (i > 0 && universe[i] <= universe[i - 1])) {
        throw std::invalid_argument(
            "run_shard: job filter must be strictly ascending and in range");
      }
    }
  } else {
    universe.resize(jobs);
    for (std::size_t i = 0; i < jobs; ++i) universe[i] = i;
  }

  const ChaosPlan chaos(options.chaos);
  EmitContext ctx;
  ctx.chaos = chaos.enabled() ? &chaos : nullptr;
  ctx.claimer = options.claimer;

  std::string header;
  json::Writer(header)
      .begin_object()
      .key("format").string(id.format)
      .key("version").i64(kShardWireVersion)
      .key("spec_name").string(id.spec_name)
      .key("spec_fingerprint").string(id.fingerprint_hex)
      .key("shard").i64(options.shard)
      .key("shards").i64(options.shards)
      .key("job_count").u64(jobs)
      .end_object();
  out << header << '\n';
  out.flush();  // the header survives even an immediate crash

  if (options.chunk_size > 0) {
    // Dynamic mode: claim fixed-size chunks (cut from the universe)
    // until none remain.  Workers race on the claimer; whichever worker
    // wins a chunk runs and emits it, so the union of all files covers
    // every job exactly once — unless a lease is stolen mid-chunk, in
    // which case the stalled owner detects the theft below and drops
    // its duplicate instead of emitting.
    const std::size_t size = static_cast<std::size_t>(options.chunk_size);
    const int chunks =
        static_cast<int>((universe.size() + size - 1) / size);
    for (int c = 0; c < chunks; ++c) {
      if (!options.claimer->try_claim(c)) continue;
      std::vector<std::size_t> indices;
      const std::size_t begin = static_cast<std::size_t>(c) * size;
      const std::size_t end = std::min(universe.size(), begin + size);
      for (std::size_t j = begin; j < end; ++j) {
        indices.push_back(universe[j]);
      }
      const auto payloads = run(indices);
      // The compute is the long steal window: a worker stalled past the
      // TTL re-checks ownership here and drops its duplicate (the thief
      // re-runs the chunk) instead of emitting records twice.
      if (!options.claimer->still_owner(c)) continue;
      emit_records(indices, payloads, out, ctx);
      options.claimer->complete(c);
    }
  } else {
    // Static mode: round-robin over the universe, not contiguous blocks,
    // so repetitions of a long-running cell spread across shards.
    if (options.shards < 1 || options.shard < 0 ||
        options.shard >= options.shards) {
      throw std::invalid_argument(
          strf("run_shard: shard %d of %d is out of range", options.shard,
               options.shards));
    }
    std::vector<std::size_t> indices;
    for (std::size_t p = static_cast<std::size_t>(options.shard);
         p < universe.size(); p += static_cast<std::size_t>(options.shards)) {
      indices.push_back(universe[p]);
    }
    emit_records(indices, run(indices), out, ctx);
  }
}

// -- gather ------------------------------------------------------------------

namespace {

/// The strict missing-jobs error: every absent id (capped), each with
/// the static round-robin shard it would have belonged to — and, when
/// the identity can label jobs, *what* the job is ("rack 1 / node 3") —
/// so an operator can see at a glance which worker's file is absent or
/// short.
[[noreturn]] void fail_missing(const WireIdentity& id,
                               const std::vector<std::size_t>& missing,
                               std::size_t jobs, int header_shards) {
  constexpr std::size_t kListCap = 16;
  std::string list;
  for (std::size_t i = 0; i < missing.size() && i < kListCap; ++i) {
    if (i != 0) list += ", ";
    list += "job " + std::to_string(missing[i]);
    if (id.job_label) {
      list += " = " + id.job_label(missing[i]);
    }
    if (header_shards > 1) {
      list += strf(" (shard %d)",
                   static_cast<int>(missing[i] %
                                    static_cast<std::size_t>(header_shards)));
    }
  }
  if (missing.size() > kListCap) {
    list += strf(" ... and %zu more", missing.size() - kListCap);
  }
  throw std::runtime_error(
      strf("gather: %zu of %zu jobs missing from the input files: %s — a "
           "shard did not finish or its file was not passed in; `gather "
           "--partial` salvages what exists and writes a retry manifest",
           missing.size(), jobs, list.c_str()));
}

}  // namespace

WireGatherReport gather_wire(
    const WireIdentity& id, const std::vector<std::string>& files,
    const GatherOptions& options,
    const std::function<void(std::size_t, const json::Value&)>& store) {
  const std::size_t jobs = id.job_count;
  const bool partial = options.partial;

  WireGatherReport report;
  report.job_count = jobs;
  report.have.assign(jobs, false);
  // A hash of each accepted record's "result" bytes as read: the
  // duplicate guard.  A re-delivered record (reclaimed chunk, retried
  // resume) is the same bytes; any other bytes for a job, even the same
  // value spaced differently, are a determinism violation in any mode.
  // The hash never leaves this process, so it is the standard library's
  // (8 bytes a step), not FNV-1a's byte-serial chain.
  std::vector<std::size_t> record_hash(jobs, 0);

  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in.good()) {
      if (!partial) throw std::runtime_error("gather: cannot open " + file);
      report.notes.push_back({file, 0, "cannot open; skipped"});
      continue;
    }
    std::string text;
    int line_no = 0;
    bool saw_header = false;
    bool skip_file = false;
    while (!skip_file && std::getline(in, text)) {
      ++line_no;
      if (text.empty()) continue;
      Value line;
      std::string_view result_bytes;
      try {
        line = json::parse(text, "result", &result_bytes);
      } catch (const std::exception& e) {
        // A truncated tail (torn record from a crashed worker) or a
        // corrupt middle line: in partial mode note it and keep
        // scanning — every complete record in the file is salvageable.
        if (!partial) gather_fail(file, line_no, e.what());
        report.notes.push_back(
            {file, line_no, strf("unparseable line skipped: %s", e.what())});
        continue;
      }
      if (!saw_header) {
        // The first line must be the header — a file that starts with a
        // job record was truncated at the front or is not a shard file.
        std::string header_problem;
        try {
          if (line.at("format").as_string() != id.format) {
            header_problem = "format is not " + id.format;
          } else if (line.at("version").as_i64() != kShardWireVersion) {
            header_problem =
                strf("unsupported shard wire version %lld (this build "
                     "reads %d)",
                     static_cast<long long>(line.at("version").as_i64()),
                     kShardWireVersion);
          } else if (line.at("spec_fingerprint").as_string() !=
                     id.fingerprint_hex) {
            header_problem =
                "spec fingerprint mismatch (file was produced from a "
                "different spec than the one being gathered)";
          } else if (line.at("job_count").as_u64() != jobs) {
            header_problem = "job_count mismatch";
          }
        } catch (const std::exception& e) {
          header_problem = e.what();
        }
        if (!header_problem.empty()) {
          // Records under a wrong or unreadable header cannot be
          // trusted to belong to this spec: skip the whole file.
          if (!partial) format_fail(file, line_no, header_problem);
          report.notes.push_back(
              {file, line_no, header_problem + "; file skipped"});
          skip_file = true;
          continue;
        }
        if (const Value* shards = line.find("shards")) {
          try {
            const int n = static_cast<int>(shards->as_i64());
            report.header_shards = std::max(report.header_shards, n);
          } catch (const std::exception&) {
          }
        }
        saw_header = true;
        continue;
      }
      std::size_t job = 0;
      try {
        job = line.at("job").as_u64();
      } catch (const std::exception& e) {
        if (!partial) gather_fail(file, line_no, e.what());
        report.notes.push_back(
            {file, line_no, strf("undecodable record skipped: %s", e.what())});
        continue;
      }
      if (job >= jobs) {
        if (!partial) {
          gather_fail(file, line_no,
                      strf("job index %zu out of range (plan has %zu "
                           "jobs)",
                           job, jobs));
        }
        report.notes.push_back(
            {file, line_no,
             strf("job index %zu out of range; skipped", job)});
        continue;
      }
      const Value* result = line.find("result");
      if (result == nullptr) {
        if (!partial) {
          gather_fail(file, line_no, "record has no \"result\" field");
        }
        report.notes.push_back(
            {file, line_no, "record has no \"result\" field; skipped"});
        continue;
      }
      const std::size_t hash = std::hash<std::string_view>{}(result_bytes);
      if (report.have[job]) {
        if (record_hash[job] != hash) {
          // Never tolerated: two different results for one job breaks
          // the determinism guarantee the whole layer exists to keep.
          gather_fail(file, line_no,
                      strf("job %zu gathered twice with DIFFERENT bytes — "
                           "determinism violation, refusing to merge",
                           job));
        }
        if (!partial) {
          gather_fail(file, line_no,
                      strf("job %zu already gathered (duplicate across the "
                           "input files)",
                           job));
        }
        ++report.duplicates;  // idempotent re-delivery (reclaimed chunk)
        continue;
      }
      try {
        store(job, *result);
      } catch (const std::exception& e) {
        if (!partial) gather_fail(file, line_no, e.what());
        report.notes.push_back(
            {file, line_no, strf("undecodable record skipped: %s", e.what())});
        continue;
      }
      report.have[job] = true;
      record_hash[job] = hash;
      ++report.records;
    }
    if (!saw_header && !skip_file) {
      if (!partial) {
        throw std::runtime_error("gather: " + file +
                                 ": empty file (missing header line)");
      }
      report.notes.push_back({file, 0, "no header line; file skipped"});
    }
  }

  for (std::size_t j = 0; j < jobs; ++j) {
    if (!report.have[j]) report.missing.push_back(j);
  }
  if (!partial && !report.missing.empty()) {
    fail_missing(id, report.missing, jobs, report.header_shards);
  }
  return report;
}

}  // namespace dufp::harness
