#ifndef MDMATCH_API_EXECUTOR_H_
#define MDMATCH_API_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "api/plan.h"
#include "match/evaluation.h"
#include "match/match_result.h"
#include "schema/instance.h"
#include "util/status.h"

namespace mdmatch::api {

/// Runtime knobs of an Executor — everything here is about *how* to run a
/// plan, never about *what* the plan computes (that is fixed at compile
/// time by PlanBuilder).
struct ExecutorOptions {
  /// Worker threads for the pair-matching stage.
  /// 1 = fully sequential. Results are identical for every thread count.
  size_t num_threads = 1;
  /// Minimum candidate pairs per worker: the match stage spawns at most
  /// pairs / min_pairs_per_thread workers (sequential below that —
  /// thread startup would dominate). 0 disables the scaling.
  size_t min_pairs_per_thread = 2048;
  /// Compute ground-truth quality metrics when the batch carries entity
  /// ids. Disable on production traffic without truth labels.
  bool evaluate_quality = true;
};

/// Per-stage wall time of one execution, measured on the monotonic clock
/// (util/stopwatch.h).
struct StageTimings {
  double candidate_seconds = 0;  ///< blocking / windowing
  double match_seconds = 0;      ///< rule or FS classification
  double closure_seconds = 0;    ///< transitive closure (when enabled)
  double evaluate_seconds = 0;   ///< ground-truth metrics

  double TotalSeconds() const {
    return candidate_seconds + match_seconds + closure_seconds +
           evaluate_seconds;
  }
};

/// Everything one execution of a plan over one batch produced.
struct ExecutionReport {
  match::CandidateSet candidates;
  match::MatchResult matches;
  match::MatchQuality match_quality;        ///< zeros without ground truth
  match::CandidateQuality candidate_quality;
  StageTimings timings;
  size_t pairs_compared = 0;  ///< candidate pairs the matcher inspected
};

/// Streaming consumer of matched pairs: called once per (left_index,
/// right_index) match, in deterministic order, after the match (and
/// closure) stages complete.
using MatchSink = std::function<void(uint32_t left, uint32_t right)>;

/// \brief Runs a compiled MatchPlan against Instance batches.
///
/// The executor owns no mutable plan state: Run is const and thread-safe,
/// so one executor (or many, sharing one PlanPtr) can serve concurrent
/// batches. The compile-once / execute-many contract is the point — no
/// Run call ever re-deduces RCKs, re-derives keys, or re-trains the
/// matcher.
class Executor {
 public:
  explicit Executor(PlanPtr plan, ExecutorOptions options = {});

  const MatchPlan& plan() const { return *plan_; }
  const ExecutorOptions& options() const { return options_; }

  /// Executes the plan over one batch.
  Result<ExecutionReport> Run(const Instance& batch) const;

  /// Like Run, but additionally streams every matched pair into `sink`.
  Result<ExecutionReport> Run(const Instance& batch,
                              const MatchSink& sink) const;

 private:
  Status CheckBatch(const Instance& batch) const;
  ExecutionReport RunChecked(const Instance& batch,
                             const MatchSink* sink) const;

  PlanPtr plan_;
  ExecutorOptions options_;
};

}  // namespace mdmatch::api

#endif  // MDMATCH_API_EXECUTOR_H_
