// Tests for the compile-once / execute-many API (api/plan, api/executor):
// plan compilation, the no-re-deduction contract, multi-threaded matching,
// concurrent plan reuse across threads, batch execution and streaming.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "core/find_rcks.h"
#include "datagen/credit_billing.h"
#include "match/hs_rules.h"

namespace mdmatch::api {
namespace {

std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(
    const match::PairSet& set) {
  auto pairs = set.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

class ApiPlanTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 400;
    gen.seed = 55;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
  }

  Result<PlanPtr> BuildPlan(PlanOptions options = {}) {
    return PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .Build();
  }

  /// Splits the generated instance into `parts` disjoint batches by row
  /// ranges (both sides split alike).
  std::vector<Instance> SplitBatches(size_t parts) const {
    std::vector<Instance> batches;
    const Relation& left = data_.instance.left();
    const Relation& right = data_.instance.right();
    const size_t lchunk = (left.size() + parts - 1) / parts;
    const size_t rchunk = (right.size() + parts - 1) / parts;
    for (size_t p = 0; p < parts; ++p) {
      Relation l(left.schema());
      Relation r(right.schema());
      for (size_t i = p * lchunk;
           i < std::min(left.size(), (p + 1) * lchunk); ++i) {
        EXPECT_TRUE(l.AppendTuple(left.tuple(i)).ok());
      }
      for (size_t i = p * rchunk;
           i < std::min(right.size(), (p + 1) * rchunk); ++i) {
        EXPECT_TRUE(r.AppendTuple(right.tuple(i)).ok());
      }
      batches.emplace_back(std::move(l), std::move(r));
    }
    return batches;
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

TEST_F(ApiPlanTest, BuildCompilesTheFullPlan) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE((*plan)->rcks().empty());
  EXPECT_FALSE((*plan)->rules().empty());
  EXPECT_FALSE((*plan)->sort_keys().empty());
  EXPECT_EQ((*plan)->fs(), nullptr);
  EXPECT_TRUE((*plan)->compile_stats().deduced);
  EXPECT_GT((*plan)->compile_stats().closure_calls, 0u);
  EXPECT_FALSE((*plan)->Describe().empty());
}

// The core contract of the redesign: compilation happens exactly once per
// configuration. Executing a compiled plan — any number of times — performs
// zero additional RCK deduction work.
TEST_F(ApiPlanTest, ExecuteManyNeverRededuces) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();

  const size_t deductions_after_compile = FindRcksInvocationCount();
  Executor executor(*plan);

  auto first = executor.Run(data_.instance);
  auto second = executor.Run(data_.instance);
  ASSERT_TRUE(first.ok() && second.ok());

  EXPECT_EQ(FindRcksInvocationCount(), deductions_after_compile)
      << "Executor::Run must not re-run findRCKs";
  EXPECT_EQ(SortedPairs(first->matches), SortedPairs(second->matches));
  EXPECT_GT(first->matches.size(), 0u);
  EXPECT_GT(first->match_quality.precision, 0.9);
  EXPECT_GT(first->match_quality.recall, 0.8);
}

TEST_F(ApiPlanTest, MultiThreadedMatchingEqualsSingleThreaded) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();

  ExecutorOptions sequential;
  sequential.num_threads = 1;
  auto baseline = Executor(*plan, sequential).Run(data_.instance);
  ASSERT_TRUE(baseline.ok());

  ExecutorOptions parallel;
  parallel.num_threads = 4;
  parallel.min_pairs_per_thread = 1;  // force the parallel path
  auto threaded = Executor(*plan, parallel).Run(data_.instance);
  ASSERT_TRUE(threaded.ok());

  EXPECT_EQ(SortedPairs(baseline->matches), SortedPairs(threaded->matches));
  EXPECT_EQ(baseline->candidates.size(), threaded->candidates.size());
}

// Plan reuse under concurrency: one compiled plan, executed from four
// threads over disjoint batches, must produce exactly the matches the
// single-threaded executions produce — and no deduction may run.
TEST_F(ApiPlanTest, ConcurrentExecutionOverDisjointBatches) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  const size_t deductions_after_compile = FindRcksInvocationCount();

  constexpr size_t kThreads = 4;
  std::vector<Instance> batches = SplitBatches(kThreads);
  ASSERT_EQ(batches.size(), kThreads);

  // Baseline: each batch sequentially, through its own executor.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> expected;
  for (const Instance& batch : batches) {
    auto run = Executor(*plan).Run(batch);
    ASSERT_TRUE(run.ok()) << run.status();
    expected.push_back(SortedPairs(run->matches));
  }

  // Concurrent: four threads share the one plan.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> actual(kThreads);
  std::vector<Status> statuses(kThreads);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto run = Executor(*plan).Run(batches[t]);
        statuses[t] = run.status();
        if (run.ok()) actual[t] = SortedPairs(run->matches);
      });
    }
    for (auto& thread : threads) thread.join();
  }

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t];
    EXPECT_EQ(actual[t], expected[t]) << "batch " << t;
  }
  EXPECT_EQ(FindRcksInvocationCount(), deductions_after_compile);
}

TEST_F(ApiPlanTest, StreamingSinkReceivesEveryMatch) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();

  match::MatchResult streamed;
  auto run = Executor(*plan).Run(
      data_.instance,
      [&](uint32_t l, uint32_t r) { streamed.Add(l, r); });
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(SortedPairs(streamed), SortedPairs(run->matches));
  EXPECT_GT(streamed.size(), 0u);
}

TEST_F(ApiPlanTest, FellegiSunterPlanTrainsOnceAtCompileTime) {
  PlanOptions options;
  options.matcher = PlanOptions::Matcher::kFellegiSunter;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE((*plan)->fs(), nullptr);
  EXPECT_GT((*plan)->fs()->model().iterations_run, 0u);

  auto run = Executor(*plan).Run(data_.instance);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->match_quality.precision, 0.9);
  EXPECT_GT(run->match_quality.recall, 0.8);
}

TEST_F(ApiPlanTest, FellegiSunterPlanRequiresTrainingData) {
  PlanOptions options;
  options.matcher = PlanOptions::Matcher::kFellegiSunter;
  auto plan = PlanBuilder(data_.pair, data_.target, &ops_)
                  .WithSigma(data_.mds)
                  .WithOptions(options)
                  .Build();
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

// Regression: ComparePattern packs agreement into 32 bits, and injected
// FS bases bypass Train()'s validation — a wider vector used to truncate
// silently; now Build rejects it with a checked error.
TEST_F(ApiPlanTest, RejectsInjectedComparisonVectorWiderThanPatternWord) {
  std::vector<Conjunct> wide(33, Conjunct{{0, 0}, sim::SimOpRegistry::kEq});
  match::FsModel model;
  model.m.assign(33, 0.9);
  model.u.assign(33, 0.1);
  PlanOptions options;
  options.matcher = PlanOptions::Matcher::kFellegiSunter;
  auto plan = PlanBuilder(data_.pair, data_.target, &ops_)
                  .WithSigma(data_.mds)
                  .WithOptions(options)
                  .WithFsBasis(match::ComparisonVector(std::move(wide)),
                               std::move(model))
                  .Build();
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  // 32 elements is exactly the limit and still compiles.
  std::vector<Conjunct> ok(32, Conjunct{{0, 0}, sim::SimOpRegistry::kEq});
  match::FsModel ok_model;
  ok_model.m.assign(32, 0.9);
  ok_model.u.assign(32, 0.1);
  auto fits = PlanBuilder(data_.pair, data_.target, &ops_)
                  .WithSigma(data_.mds)
                  .WithOptions(options)
                  .WithFsBasis(match::ComparisonVector(std::move(ok)),
                               std::move(ok_model))
                  .Build();
  EXPECT_TRUE(fits.ok()) << fits.status();
}

// Rule masks are one 64-bit word: Build rejects a 65th rule. At exactly 64
// every mask bit is in use, and the plan still decides each candidate
// like the rules evaluated one by one.
TEST_F(ApiPlanTest, RejectsMoreRulesThanOneRuleMaskHolds) {
  auto base = BuildPlan();
  ASSERT_TRUE(base.ok()) << base.status();
  const ComparableLists& target = data_.target;
  const sim::SimOpId dl = ops_.Dl(0.8);
  std::vector<match::MatchRule> rules;
  for (size_t i = 0; i < 65; ++i) {
    rules.push_back(RelativeKey(
        {Conjunct{target.pair_at(i % target.size()), dl},
         Conjunct{target.pair_at((i / target.size() + i + 1) % target.size()),
                  sim::SimOpRegistry::kEq}}));
  }
  auto build = [&](std::vector<match::MatchRule> injected) {
    return PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithPrecompiledRcks((*base)->rcks())
        .WithRules(std::move(injected))
        .Build();
  };
  auto too_many = build(rules);
  EXPECT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);

  rules.pop_back();
  auto full = build(rules);
  ASSERT_TRUE(full.ok()) << full.status();
  auto run = Executor(*full).Run(data_.instance);
  ASSERT_TRUE(run.ok()) << run.status();
  size_t matches = 0;
  for (const auto& [l, r] : run->candidates.pairs()) {
    const bool naive =
        match::AnyRuleMatches(rules, ops_, data_.instance.left().tuple(l),
                              data_.instance.right().tuple(r));
    EXPECT_EQ(run->matches.Contains(l, r), naive) << l << ", " << r;
    if (naive) ++matches;
  }
  EXPECT_GT(matches, 0u);
  EXPECT_LT(matches, run->candidates.size());
}

// Regression: a window of -1 read as an unsigned count became SIZE_MAX
// and aborted one-shot windowing. Positions are uint32_t, so Build
// rejects any window wider than that before compiling anything.
TEST_F(ApiPlanTest, RejectsWindowWiderThanAnyCorpus) {
  for (const size_t window : {SIZE_MAX, size_t{UINT32_MAX} + 1}) {
    PlanOptions options;
    options.window_size = window;
    auto plan = BuildPlan(options);
    EXPECT_FALSE(plan.ok()) << window;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << window;
  }
  PlanOptions widest;
  widest.window_size = UINT32_MAX;
  auto plan = BuildPlan(widest);
  EXPECT_TRUE(plan.ok()) << plan.status();
}

// A similarity threshold is a fraction: above 1 the θ-DL edit budget
// goes negative. 0 still turns relaxation off.
TEST_F(ApiPlanTest, RejectsRelaxThetaOutsideUnitInterval) {
  for (const double theta : {1.5, -0.1, std::nan("")}) {
    PlanOptions options;
    options.relax_theta = theta;
    auto plan = BuildPlan(options);
    EXPECT_FALSE(plan.ok()) << theta;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << theta;
  }
  for (const double theta : {0.0, 1.0}) {
    PlanOptions options;
    options.relax_theta = theta;
    auto plan = BuildPlan(options);
    EXPECT_TRUE(plan.ok()) << theta << ": " << plan.status();
  }
}

TEST_F(ApiPlanTest, RejectsEmptyTarget) {
  auto empty_target = ComparableLists::Make(data_.pair, {}, {});
  ASSERT_TRUE(empty_target.ok());
  auto plan = PlanBuilder(data_.pair, *empty_target, &ops_)
                  .WithSigma(data_.mds)
                  .Build();
  EXPECT_FALSE(plan.ok());
}

TEST_F(ApiPlanTest, RejectsInvalidSigma) {
  MdSet bad = {MatchingDependency({Conjunct{{99, 0}, 0}}, {{{0, 0}}})};
  auto plan = PlanBuilder(data_.pair, data_.target, &ops_)
                  .WithSigma(bad)
                  .Build();
  EXPECT_FALSE(plan.ok());
}

TEST_F(ApiPlanTest, RejectsMismatchedBatchSchema) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();

  Schema other("other", {{"x", "string"}});
  Instance wrong{Relation(other), Relation(other)};
  auto run = Executor(*plan).Run(wrong);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ApiPlanTest, PrecompiledRcksSkipDeduction) {
  auto first = BuildPlan();
  ASSERT_TRUE(first.ok());

  const size_t deductions = FindRcksInvocationCount();
  auto second = PlanBuilder(data_.pair, data_.target, &ops_)
                    .WithSigma(data_.mds)
                    .WithPrecompiledRcks((*first)->rcks())
                    .WithQuality((*first)->quality())
                    .Build();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(FindRcksInvocationCount(), deductions)
      << "WithPrecompiledRcks must skip findRCKs";
  EXPECT_FALSE((*second)->compile_stats().deduced);

  auto run_first = Executor(*first).Run(data_.instance);
  auto run_second = Executor(*second).Run(data_.instance);
  ASSERT_TRUE(run_first.ok() && run_second.ok());
  EXPECT_EQ(SortedPairs(run_first->matches), SortedPairs(run_second->matches));
}

// A builder with injected state may Build more than once (the "share one
// deduction across plan variants" pattern); the second plan must be as
// complete as the first.
TEST_F(ApiPlanTest, BuilderMayBuildTwice) {
  auto base = BuildPlan();
  ASSERT_TRUE(base.ok());

  PlanBuilder builder(data_.pair, data_.target, &ops_);
  builder.WithSigma(data_.mds)
      .WithPrecompiledRcks((*base)->rcks())
      .WithQuality((*base)->quality())
      .WithSortKeys((*base)->sort_keys())
      .WithRules((*base)->rules());
  auto first = builder.Build();
  auto second = builder.Build();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ((*second)->sort_keys().size(), (*first)->sort_keys().size());
  EXPECT_EQ((*second)->rules().size(), (*first)->rules().size());

  auto run_first = Executor(*first).Run(data_.instance);
  auto run_second = Executor(*second).Run(data_.instance);
  ASSERT_TRUE(run_first.ok() && run_second.ok());
  EXPECT_GT(run_second->matches.size(), 0u);
  EXPECT_EQ(SortedPairs(run_first->matches), SortedPairs(run_second->matches));
}

// Migrated from the retired pipeline facade suite: the blocking path must
// keep the candidate space tiny while preserving precision.
TEST_F(ApiPlanTest, BlockingPlanKeepsReductionRatioHigh) {
  PlanOptions options;
  options.candidates = PlanOptions::Candidates::kBlocking;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto run = Executor(*plan).Run(data_.instance);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->candidate_quality.reduction_ratio, 0.99);
  EXPECT_GT(run->match_quality.precision, 0.9);
}

// Migrated from the retired pipeline facade suite: windowing keeps a high
// reduction ratio too (the candidate space stays far below |I1| x |I2|).
TEST_F(ApiPlanTest, WindowingPlanKeepsReductionRatioHigh) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto run = Executor(*plan).Run(data_.instance);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->candidate_quality.reduction_ratio, 0.9);
}

// Migrated from the retired pipeline facade suite: disabling the θ-DL
// relaxation ("=" stays strict equality) can only lower recall.
TEST_F(ApiPlanTest, NoRelaxationLowersRecall) {
  PlanOptions strict;
  strict.relax_theta = 0;
  auto strict_plan = BuildPlan(strict);
  auto relaxed_plan = BuildPlan();
  ASSERT_TRUE(strict_plan.ok() && relaxed_plan.ok());
  auto strict_run = Executor(*strict_plan).Run(data_.instance);
  auto relaxed_run = Executor(*relaxed_plan).Run(data_.instance);
  ASSERT_TRUE(strict_run.ok() && relaxed_run.ok());
  EXPECT_LE(strict_run->match_quality.recall,
            relaxed_run->match_quality.recall);
}

TEST_F(ApiPlanTest, TransitiveClosurePlanAddsImpliedPairs) {
  auto plain = BuildPlan();
  PlanOptions closed_options;
  closed_options.transitive_closure = true;
  auto closed = BuildPlan(closed_options);
  ASSERT_TRUE(plain.ok() && closed.ok());

  auto run_plain = Executor(*plain).Run(data_.instance);
  auto run_closed = Executor(*closed).Run(data_.instance);
  ASSERT_TRUE(run_plain.ok() && run_closed.ok());
  EXPECT_GE(run_closed->matches.size(), run_plain->matches.size());
  EXPECT_GE(run_closed->match_quality.recall,
            run_plain->match_quality.recall);
}

TEST_F(ApiPlanTest, StageTimingsAreReported) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  auto run = Executor(*plan).Run(data_.instance);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->pairs_compared, 0u);
  EXPECT_GE(run->timings.candidate_seconds, 0.0);
  EXPECT_GE(run->timings.match_seconds, 0.0);
  EXPECT_GE(run->timings.TotalSeconds(),
            run->timings.candidate_seconds + run->timings.match_seconds);
}

}  // namespace
}  // namespace mdmatch::api
