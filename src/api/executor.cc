#include "api/executor.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "api/parallel.h"
#include "candidate/windowing.h"
#include "match/blocking.h"
#include "match/clustering.h"
#include "util/stopwatch.h"

namespace mdmatch::api {

using internal::ParallelChunks;
using internal::SameShape;

Executor::Executor(PlanPtr plan, ExecutorOptions options)
    : plan_(std::move(plan)), options_(options) {
  assert(plan_ != nullptr && "Executor requires a compiled plan");
  if (options_.num_threads == 0) options_.num_threads = 1;
}

Status Executor::CheckBatch(const Instance& batch) const {
  if (!SameShape(batch.left().schema(), plan_->pair().left()) ||
      !SameShape(batch.right().schema(), plan_->pair().right())) {
    return Status::InvalidArgument(
        "batch schema does not match the plan's schema pair");
  }
  return Status::OK();
}

ExecutionReport Executor::RunChecked(const Instance& batch,
                                     const MatchSink* sink) const {
  const MatchPlan& plan = *plan_;
  ExecutionReport report;

  // --- candidate generation from the precompiled keys ---
  {
    ScopedTimer timer(&report.timings.candidate_seconds);
    if (plan.options().candidates == PlanOptions::Candidates::kWindowing) {
      report.candidates = candidate::WindowCandidatesMultiPass(
          batch, plan.sort_keys(), plan.options().window_size);
    } else {
      report.candidates = match::BlockCandidates(batch, plan.block_key());
    }
  }

  // --- matching over the candidates ---
  {
    ScopedTimer timer(&report.timings.match_seconds);
    const auto& pairs = report.candidates.pairs();
    report.pairs_compared = pairs.size();

    // Per-record derived values (phonetic codes, q-gram sets, edit
    // signatures) are columnar per batch side: computed once per record
    // here instead of once per candidate pair inside the evaluator.
    const match::CompiledEvaluator& evaluator = plan.evaluator();
    std::vector<match::RecordProfile> profiles[2];
    for (int side = 0; side < 2; ++side) {
      const Relation& rel = side == 0 ? batch.left() : batch.right();
      profiles[side].reserve(rel.size());
      for (size_t i = 0; i < rel.size(); ++i) {
        profiles[side].push_back(evaluator.ProfileRecord(rel.tuple(i), side));
      }
    }
    auto matches_pair = [&](uint32_t l, uint32_t r) {
      return evaluator.Matches(batch.left().tuple(l), batch.right().tuple(r),
                               profiles[0][l], profiles[1][r]);
    };

    // Scale workers so each gets at least min_pairs_per_thread pairs;
    // below that the stage stays sequential.
    size_t workers = options_.num_threads;
    if (options_.min_pairs_per_thread > 0) {
      workers = std::min(workers,
                         pairs.size() / options_.min_pairs_per_thread);
    }
    if (workers == 0) workers = 1;

    if (workers <= 1) {
      for (const auto& [l, r] : pairs) {
        if (matches_pair(l, r)) report.matches.Add(l, r);
      }
    } else {
      // Each worker fills its own chunk-local list; chunks are merged in
      // index order, so the result is identical to the sequential run.
      std::vector<std::vector<std::pair<uint32_t, uint32_t>>> local(workers);
      ParallelChunks(pairs.size(), workers,
                     [&](size_t w, size_t begin, size_t end) {
                       auto& out = local[w];
                       for (size_t i = begin; i < end; ++i) {
                         const auto& [l, r] = pairs[i];
                         if (matches_pair(l, r)) out.emplace_back(l, r);
                       }
                     });
      for (const auto& chunk : local) {
        for (const auto& [l, r] : chunk) report.matches.Add(l, r);
      }
    }
  }

  // --- optional transitive closure into entity clusters ---
  if (plan.options().transitive_closure) {
    ScopedTimer timer(&report.timings.closure_seconds);
    report.matches =
        match::ClusterMatches(report.matches, batch).ImpliedMatches();
  }

  // --- ground-truth metrics ---
  if (options_.evaluate_quality) {
    ScopedTimer timer(&report.timings.evaluate_seconds);
    report.match_quality = match::Evaluate(report.matches, batch);
    report.candidate_quality =
        match::EvaluateCandidates(report.candidates, batch);
  }

  if (sink != nullptr) {
    for (const auto& [l, r] : report.matches.pairs()) (*sink)(l, r);
  }
  return report;
}

Result<ExecutionReport> Executor::Run(const Instance& batch) const {
  MDMATCH_RETURN_NOT_OK(CheckBatch(batch));
  return RunChecked(batch, nullptr);
}

Result<ExecutionReport> Executor::Run(const Instance& batch,
                                      const MatchSink& sink) const {
  MDMATCH_RETURN_NOT_OK(CheckBatch(batch));
  return RunChecked(batch, &sink);
}

}  // namespace mdmatch::api
