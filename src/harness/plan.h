// The parallel experiment engine's job-based API.
//
// An ExperimentPlan enumerates every (config, seed) job of an experiment
// up front — each *cell* (one RunConfig) expands into one job per
// repetition — then executes the whole job set across a fixed ThreadPool
// and reassembles per-cell RepeatedResults in deterministic job order.
//
// Determinism guarantee (serial ≡ parallel): a job's seed is a pure
// function of its cell's base seed and its repetition index (see
// job_seed), every job runs a fully self-contained simulation, and
// aggregation consumes results indexed by job id, never by completion
// order.  Running a plan with 1 thread or N threads therefore produces
// bit-identical RepeatedResult / Evaluation values — covered by tier-1
// tests.
//
// run_repeated and build_plan (harness/shard.h) are thin wrappers over
// this class; new callers (sweeps, ablations, multi-machine studies) can
// schedule arbitrary job sets through the same API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.h"

namespace dufp::harness {

/// Derives the seed of repetition `repetition` from a cell's base seed —
/// a SplitMix64 finalizer over the job identity, the same scheme
/// Rng::fork uses for sub-component streams.  Pure function: any
/// execution order or thread count derives identical seeds.
std::uint64_t job_seed(std::uint64_t base_seed, int repetition);

class ExperimentPlan {
 public:
  /// Identifies a cell within this plan (dense, starting at 0).
  using CellId = std::size_t;

  /// Identifies one job within this plan.
  ///
  /// Enumeration-order CONTRACT (load-bearing: shard assignment and the
  /// gather merge both key on job indices): jobs are enumerated
  /// cell-major in add_cell order, repetition-minor — cell 0's
  /// repetitions 0..R0-1 occupy job indices 0..R0-1, then cell 1's, and
  /// so on.  Any process that builds the same plan (same add_cell
  /// sequence, same repetitions) derives the identical job list, so a
  /// job index is a portable job identity.  Asserted by tier-1 tests
  /// (plan_test.cpp) — change it only with a shard-format version bump.
  struct JobRef {
    CellId cell = 0;
    int repetition = 0;
  };

  /// Adds one cell: `repetitions` jobs with seeds derived from
  /// config.seed.  Validates the config and throws std::invalid_argument
  /// listing every problem.  `label` (optional) names the cell in
  /// progress notes.
  CellId add_cell(RunConfig config, int repetitions,
                  std::string label = "");

  std::size_t cell_count() const { return cells_.size(); }
  std::size_t job_count() const { return jobs_.size(); }

  /// The (cell, repetition) identity of job `i` (see the JobRef
  /// contract above).
  JobRef job(std::size_t i) const { return jobs_.at(i); }

  /// The fully derived config job `i` runs: the cell's config with the
  /// repetition's job_seed applied, and telemetry flight data requested
  /// for job 0 only (see TelemetryConfig::snapshot_flight).  This is the
  /// *only* seed derivation in the engine — shard workers call this, so
  /// a job's config is a pure function of (plan, index), independent of
  /// placement.
  RunConfig job_config(std::size_t i) const;

  /// Executes the given jobs (indices into the enumeration) across
  /// `threads` pool workers (<= 1 runs inline) and returns their results
  /// in the order of `indices` — never in completion order.  Const: the
  /// plan itself is not advanced, so shard workers can execute disjoint
  /// slices of the same plan in different processes.
  std::vector<RunResult> run_jobs(const std::vector<std::size_t>& indices,
                                  int threads) const;

  /// Completes the plan from externally executed per-job results
  /// (results[i] must be job i's result, e.g. a gathered shard merge)
  /// and aggregates each cell's RepeatedResult.  Throws
  /// std::invalid_argument on a size mismatch.
  void finish_with(std::vector<RunResult> results);

  /// Executes every job across `threads` pool workers and aggregates —
  /// exactly run_jobs over all indices + finish_with, so a serial run
  /// and a gathered shard run are identical by construction.  A plan
  /// runs once; calling run() again is a no-op.
  void run(int threads);

  /// run() with threads from DUFP_THREADS (BenchOptions::from_env()).
  void run();

  bool finished() const { return finished_; }

  /// Aggregated result of a cell, in the paper's trimmed-summary
  /// protocol.  Throws std::logic_error before run().
  const RepeatedResult& result(CellId cell) const;

 private:
  struct Cell {
    RunConfig config;
    int repetitions = 0;
    std::string label;
    RepeatedResult result;
  };

  std::vector<Cell> cells_;
  std::vector<JobRef> jobs_;
  bool finished_ = false;
};

}  // namespace dufp::harness
