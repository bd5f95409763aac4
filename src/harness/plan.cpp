#include "harness/plan.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>

#include "common/expect.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "harness/options.h"

namespace dufp::harness {

std::uint64_t job_seed(std::uint64_t base_seed, int repetition) {
  // SplitMix64 finalizer over (base_seed, repetition).  The golden-ratio
  // stride keeps consecutive repetitions far apart in the input domain;
  // the finalizer mixes them into statistically independent seeds.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL *
                                    (static_cast<std::uint64_t>(repetition) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ExperimentPlan::CellId ExperimentPlan::add_cell(RunConfig config,
                                                int repetitions,
                                                std::string label) {
  DUFP_EXPECT(!finished_);
  if (repetitions < 1) {
    throw std::invalid_argument("ExperimentPlan: repetitions must be >= 1");
  }
  const auto problems = config.validate();
  if (!problems.empty()) {
    std::string msg = "ExperimentPlan: invalid cell config:";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      msg += (i == 0 ? " " : "; ") + problems[i];
    }
    throw std::invalid_argument(msg);
  }

  const CellId id = cells_.size();
  Cell cell;
  cell.config = std::move(config);
  cell.repetitions = repetitions;
  cell.label = std::move(label);
  cells_.push_back(std::move(cell));
  // The enumeration contract (see JobRef): cell-major in add_cell order,
  // repetition-minor.
  for (int r = 0; r < repetitions; ++r) {
    jobs_.push_back(JobRef{id, r});
  }
  return id;
}

RunConfig ExperimentPlan::job_config(std::size_t i) const {
  const JobRef& job = jobs_.at(i);
  RunConfig cfg = cells_[job.cell].config;
  cfg.seed = job_seed(cfg.seed, job.repetition);
  // Outputs export flight data for job 0 only (finalize_grid's
  // job0_telemetry); every other job's snapshot carries metrics alone.
  if (i != 0) cfg.telemetry.snapshot_flight = false;
  return cfg;
}

std::vector<RunResult> ExperimentPlan::run_jobs(
    const std::vector<std::size_t>& indices, int threads) const {
  const std::size_t total = indices.size();
  std::vector<RunResult> results(total);

  // Completion counter for coarse progress notes (stderr only; stdout
  // stays byte-identical whatever the thread count or timing).
  std::atomic<std::size_t> done{0};
  const std::size_t note_step = total >= 16 ? total / 8 : total;

  auto execute = [&](std::size_t slot) {
    results[slot] = run_once(job_config(indices[slot]));
    const std::size_t d = done.fetch_add(1) + 1;
    if (note_step != 0 && d % note_step == 0 && d < total) {
      note_progress(strf("  jobs %zu/%zu", d, total));
    }
  };

  // A pool of width `threads`; width 1 runs the jobs inline, in order.
  const std::size_t width =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(threads, 1)),
                            total);
  if (width <= 1) {
    for (std::size_t i = 0; i < total; ++i) execute(i);
    return results;
  }
  ThreadPool pool(static_cast<int>(width), total);
  std::vector<std::future<void>> futures;
  futures.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    futures.push_back(pool.submit([&execute, i] { execute(i); }));
  }
  for (auto& f : futures) f.get();  // rethrows the first job failure
  return results;
}

void ExperimentPlan::finish_with(std::vector<RunResult> results) {
  if (finished_) return;
  if (results.size() != jobs_.size()) {
    throw std::invalid_argument(
        strf("ExperimentPlan: finish_with() got %zu results for %zu jobs",
             results.size(), jobs_.size()));
  }
  // Reassemble in deterministic job order: jobs_ lists each cell's
  // repetitions consecutively and in repetition order.
  std::size_t next = 0;
  for (auto& cell : cells_) {
    std::vector<RunResult> runs;
    runs.reserve(static_cast<std::size_t>(cell.repetitions));
    for (int r = 0; r < cell.repetitions; ++r) {
      runs.push_back(std::move(results[next++]));
    }
    cell.result = aggregate_runs(runs);
  }
  finished_ = true;
}

void ExperimentPlan::run() {
  run(BenchOptions::from_env().resolved_threads());
}

void ExperimentPlan::run(int threads) {
  if (finished_) return;
  std::vector<std::size_t> all(jobs_.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  finish_with(run_jobs(all, threads));
}

const RepeatedResult& ExperimentPlan::result(CellId cell) const {
  if (!finished_) {
    throw std::logic_error("ExperimentPlan: result() before run()");
  }
  return cells_.at(cell).result;
}

RepeatedResult run_repeated(RunConfig config, int repetitions) {
  ExperimentPlan plan;
  const auto id = plan.add_cell(std::move(config), repetitions);
  plan.run();
  return plan.result(id);
}

}  // namespace dufp::harness
