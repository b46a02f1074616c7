#include "api/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>
#include <utility>

#include "api/parallel.h"
#include "candidate/windowing.h"
#include "match/blocking.h"
#include "match/clustering.h"
#include "util/arena.h"
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
                                     size_t match_threads,
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

    // Per-record derived values (phonetic codes, q-gram sets) are columnar
    // per batch side: computed once per record here instead of once per
    // candidate pair inside the evaluator.
    const match::CompiledEvaluator& evaluator = plan.evaluator();
    std::vector<match::RecordProfile> profiles[2];
    if (evaluator.needs_profiles() && !pairs.empty()) {
      for (int side = 0; side < 2; ++side) {
        const Relation& rel = side == 0 ? batch.left() : batch.right();
        profiles[side].reserve(rel.size());
        for (size_t i = 0; i < rel.size(); ++i) {
          profiles[side].push_back(
              evaluator.ProfileRecord(rel.tuple(i), side));
        }
      }
    }
    auto matches_pair = [&](uint32_t l, uint32_t r) {
      return plan.MatchesPair(
          batch.left().tuple(l), batch.right().tuple(r),
          profiles[0].empty() ? nullptr : &profiles[0][l],
          profiles[1].empty() ? nullptr : &profiles[1][r]);
    };

    // Scale workers so each gets at least min_pairs_per_thread pairs;
    // below that the stage stays sequential.
    size_t workers = match_threads;
    if (options_.min_pairs_per_thread > 0) {
      workers = std::min(workers,
                         pairs.size() / options_.min_pairs_per_thread);
    }
    if (workers == 0) workers = 1;

    if (options_.batch_eval && evaluator.BatchProfitable() && !pairs.empty()) {
      // --- SoA batch path: strips of pairs, atom-at-a-time SIMD kernels,
      // arena-backed transients. Decisions are bit-identical to the
      // scalar loops below.
      util::Arena arena;
      match::ValueInterner interner;
      match::BatchColumns cols[2];
      for (int side = 0; side < 2; ++side) {
        const Relation& rel = side == 0 ? batch.left() : batch.right();
        cols[side] = evaluator.MakeBatchColumns(side, rel.size(), &arena);
        for (size_t i = 0; i < rel.size(); ++i) {
          evaluator.FillBatchRow(
              &cols[side], static_cast<uint32_t>(i), rel.tuple(i),
              profiles[side].empty() ? nullptr : &profiles[side][i],
              &interner);
        }
      }
      const candidate::PairStrips strips =
          candidate::BuildStrips(pairs, &arena);
      uint8_t* lane_dec = arena.AllocateArrayOf<uint8_t>(strips.lanes);
      std::fill_n(lane_dec, strips.lanes, uint8_t{0});
      match::BatchStats stats;
      if (workers <= 1 || strips.num_batches <= 1) {
        for (size_t b = 0; b < strips.num_batches; ++b) {
          const uint32_t first = strips.batch_first_lane[b];
          evaluator.MatchesBatch(cols[0], cols[1], strips.batches[b],
                                 lane_dec + first, &stats);
        }
      } else {
        std::vector<match::BatchStats> worker_stats(workers);
        ParallelChunks(strips.num_batches, workers,
                       [&](size_t w, size_t begin, size_t end) {
                         for (size_t b = begin; b < end; ++b) {
                           const uint32_t first = strips.batch_first_lane[b];
                           evaluator.MatchesBatch(
                               cols[0], cols[1], strips.batches[b],
                               lane_dec + first, &worker_stats[w]);
                         }
                       });
        for (const match::BatchStats& s : worker_stats) {
          stats.strips += s.strips;
          stats.lanes += s.lanes;
          stats.simd_lanes_evaluated += s.simd_lanes_evaluated;
        }
      }
      // Original pair order for result merging, matching the sequential
      // scalar loop exactly.
      uint8_t* decision = arena.AllocateArrayOf<uint8_t>(pairs.size());
      for (size_t lane = 0; lane < strips.lanes; ++lane) {
        decision[strips.lane_pair[lane]] = lane_dec[lane];
      }
      for (size_t i = 0; i < pairs.size(); ++i) {
        const auto& [l, r] = pairs[i];
        if (decision[i] != 0) report.matches.Add(l, r);
      }
      report.strips = stats.strips;
      report.simd_lanes_evaluated = stats.simd_lanes_evaluated;
      report.arena_bytes = arena.bytes_used();
    } else if (workers <= 1) {
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
  return RunChecked(batch, options_.num_threads, nullptr);
}

Result<ExecutionReport> Executor::Run(const Instance& batch,
                                      const MatchSink& sink) const {
  MDMATCH_RETURN_NOT_OK(CheckBatch(batch));
  return RunChecked(batch, options_.num_threads, &sink);
}

Result<std::vector<ExecutionReport>> Executor::RunBatches(
    const std::vector<const Instance*>& batches) const {
  for (const Instance* batch : batches) {
    if (batch == nullptr) {
      return Status::InvalidArgument("RunBatches: null batch");
    }
    MDMATCH_RETURN_NOT_OK(CheckBatch(*batch));
  }

  std::vector<ExecutionReport> reports(batches.size());
  if (options_.num_threads <= 1 || batches.size() <= 1) {
    for (size_t i = 0; i < batches.size(); ++i) {
      // Sequential mode still honors in-batch parallelism.
      reports[i] = RunChecked(*batches[i], options_.num_threads, nullptr);
    }
    return reports;
  }

  // Whole batches are the unit of parallelism; workers pull the next
  // unprocessed index so skewed batch sizes balance out.
  std::atomic<size_t> next{0};
  const size_t workers = std::min(options_.num_threads, batches.size());
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < batches.size();
           i = next.fetch_add(1)) {
        reports[i] = RunChecked(*batches[i], /*match_threads=*/1, nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();
  return reports;
}

}  // namespace mdmatch::api
