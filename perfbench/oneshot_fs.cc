// The `fs` workload: closed-loop one-shot Executor::Run of a
// Fellegi-Sunter plan with transitive closure — the paper's FSrck matcher
// (Section 6.2) as a batch deduplication job.
//
// Set-up generates the dataset at the smallest K of bench_fig9_fs (the
// paper's Exp-2) and trains the FS model on it (EM). One operation is one
// Executor::Run over the whole dataset; its latency is the Run call's wall
// time, matches streamed to a sink included. Every result is checked
// (untimed) against a reference computed without the executor: the
// windowing candidates built here, decided by the FS model's direct scorer
// (not the compiled evaluator the executor runs) and closed by a
// union-find kept here.

#include <algorithm>
#include <numeric>

#include "api/executor.h"
#include "match/evaluation.h"
#include "perfbench.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

/// Entities of the generated dataset: the smallest K of bench_fig9_fs.
constexpr size_t kEntities = 10000;
/// Floor on the reference result's precision and recall against the
/// generator's ground truth: far below what FSrck reaches on this data,
/// so only a broken matcher trips it.
constexpr double kMinQuality = 0.8;

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

Pairs Sorted(const match::PairSet& set) {
  Pairs pairs = set.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// The windowing candidates of the plan's sort keys: per key, both
/// relations sorted together by the rendered key (ties in left-then-right
/// position order), and every cross-relation pair of records less than
/// window_size apart. Sorted, without duplicates.
Pairs WindowCandidates(const api::MatchPlan& plan, const Instance& data) {
  const uint32_t left_size = static_cast<uint32_t>(data.left().size());
  const size_t window = plan.options().window_size;
  Pairs out;
  for (const match::KeyFunction& key : plan.sort_keys()) {
    std::vector<std::pair<std::string, uint32_t>> order;
    for (int side = 0; side < 2; ++side) {
      const Relation& relation = data.side(side);
      for (uint32_t i = 0; i < relation.size(); ++i) {
        order.emplace_back(key.Render(relation.tuple(i), side),
                           side == 0 ? i : left_size + i);
      }
    }
    std::sort(order.begin(), order.end());
    for (size_t i = 0; i < order.size(); ++i) {
      for (size_t j = i + 1; j < std::min(order.size(), i + window); ++j) {
        const uint32_t a = std::min(order[i].second, order[j].second);
        const uint32_t b = std::max(order[i].second, order[j].second);
        if (a < left_size && b >= left_size) {
          out.emplace_back(a, b - left_size);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Every cross-relation pair of records that `matches` connects, directly
/// or through other records. Sorted.
Pairs Closure(const Pairs& matches, size_t left_size, size_t right_size) {
  std::vector<size_t> parent(left_size + right_size);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& [l, r] : matches) parent[find(l)] = find(left_size + r);
  std::vector<std::vector<uint32_t>> lefts(parent.size()), rights(parent.size());
  for (uint32_t l = 0; l < left_size; ++l) lefts[find(l)].push_back(l);
  for (uint32_t r = 0; r < right_size; ++r) {
    rights[find(left_size + r)].push_back(r);
  }
  Pairs out;
  for (size_t root = 0; root < parent.size(); ++root) {
    for (uint32_t l : lefts[root]) {
      for (uint32_t r : rights[root]) out.emplace_back(l, r);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class OneShotFsWorkload : public Workload {
 public:
  explicit OneShotFsWorkload(Dataset dataset) : dataset_(std::move(dataset)) {}

  Outcome Run(const RunConfig& config) override {
    Outcome outcome;
    MakeReference(&outcome);
    if (!outcome.correct) return outcome;
    api::ExecutorOptions options;
    options.evaluate_quality = false;
    const api::Executor executor(dataset_.plan, options);

    const double start = MonotonicSeconds();
    const double measure_from = start + WarmupSeconds(config);
    const double end = measure_from + config.seconds;
    while (outcome.correct && MonotonicSeconds() < end) {
      outcome.control.MaybeRun();
      OpSpans spans;
      const bool ran = RunJob(executor, &spans, &outcome);
      if (spans.start < measure_from) continue;
      ++outcome.attempted;
      if (!ran) ++outcome.failed;
      outcome.latencies.push_back({spans.start + spans.total, spans.total});
      outcome.ops.push_back(spans);
    }
    return outcome;
  }

 private:
  /// Runs the job once, fills its spans, and checks its candidates and
  /// matches against the reference. False when the run itself failed.
  bool RunJob(const api::Executor& executor, OpSpans* spans,
              Outcome* outcome) const {
    const Instance& data = dataset_.data.instance;
    double first_delivery = 0;
    size_t delivered = 0;
    spans->start = MonotonicSeconds();
    auto run = executor.Run(data, [&](uint32_t, uint32_t) {
      if (delivered++ == 0) first_delivery = MonotonicSeconds();
    });
    const double done = MonotonicSeconds();
    spans->total = done - spans->start;
    if (!run.ok()) return false;
    spans->candidate = run->timings.candidate_seconds;
    spans->eval = run->timings.match_seconds;
    spans->cluster = run->timings.closure_seconds;
    spans->deliver = delivered > 0 ? done - first_delivery : 0;
    spans->records = data.left().size() + data.right().size();
    spans->pairs_evaluated = run->pairs_compared;
    spans->matches_added = run->matches.size();
    if (run->pairs_compared != reference_candidates_) {
      outcome->Fail("the run compared " + std::to_string(run->pairs_compared) +
                    " candidate pairs, the reference windowing has " +
                    std::to_string(reference_candidates_));
    }
    if (Sorted(run->matches) != reference_ ||
        delivered != run->matches.size()) {
      outcome->Fail("the run's matches differ from the reference");
    }
    return true;
  }

  /// Computes the expected candidate count and matches (see the file
  /// comment) and checks their quality against the ground truth.
  void MakeReference(Outcome* outcome) {
    const api::MatchPlan& plan = *dataset_.plan;
    const Instance& data = dataset_.data.instance;
    const Pairs candidates = WindowCandidates(plan, data);
    Pairs decided;
    for (const auto& [l, r] : candidates) {
      if (plan.fs()->IsMatch(plan.ops(), data.left().tuple(l),
                             data.right().tuple(r))) {
        decided.emplace_back(l, r);
      }
    }
    reference_candidates_ = candidates.size();
    reference_ = Closure(decided, data.left().size(), data.right().size());

    match::MatchResult closed;
    for (const auto& [l, r] : reference_) closed.Add(l, r);
    const match::MatchQuality quality = match::Evaluate(closed, data);
    if (quality.precision < kMinQuality || quality.recall < kMinQuality) {
      outcome->Fail("reference quality too low: precision " +
                    std::to_string(quality.precision) + ", recall " +
                    std::to_string(quality.recall));
    }
  }

  Dataset dataset_;
  size_t reference_candidates_ = 0;
  Pairs reference_;
};

}  // namespace

Result<std::unique_ptr<Workload>> SetupOneShotFs(const RunConfig& config) {
  api::PlanOptions options;
  options.matcher = api::PlanOptions::Matcher::kFellegiSunter;
  options.transitive_closure = true;
  auto dataset = MakeDataset(kEntities, config.seed, options);
  if (!dataset.ok()) return dataset.status();
  return std::unique_ptr<Workload>(
      std::make_unique<OneShotFsWorkload>(std::move(*dataset)));
}

}  // namespace perfbench
