// Batch-vs-scalar equivalence for the SoA pair-evaluation path
// (match/compiled_eval MatchesBatch + candidate/windowing BuildStrips):
// decisions must be bit-identical to the scalar Matches reference across
// matcher modes, candidate configurations, ragged strip widths and random
// pair samples — plus the executor / session wiring (batch stats) on
// equality-only plans.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "api/session.h"
#include "candidate/windowing.h"
#include "datagen/credit_billing.h"
#include "match/compiled_eval.h"
#include "util/arena.h"
#include "util/random.h"
#include "util/simd.h"

namespace mdmatch::match {
namespace {

std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(const PairSet& set) {
  auto pairs = set.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Profiles, interner, and filled BatchColumns for both sides of an
/// instance, owned together so the column pointers stay valid.
struct BatchHarness {
  util::Arena arena;
  ValueInterner interner;
  std::vector<RecordProfile> profiles[2];
  BatchColumns cols[2];

  void Build(const CompiledEvaluator& eval, const Instance& instance) {
    for (int side = 0; side < 2; ++side) {
      const Relation& rel =
          side == 0 ? instance.left() : instance.right();
      if (eval.needs_profiles()) {
        profiles[side].reserve(rel.size());
        for (uint32_t i = 0; i < rel.size(); ++i) {
          profiles[side].push_back(eval.ProfileRecord(rel.tuple(i), side));
        }
      }
      cols[side] = eval.MakeBatchColumns(side, rel.size(), &arena);
      for (uint32_t i = 0; i < rel.size(); ++i) {
        const RecordProfile* profile =
            eval.needs_profiles() ? &profiles[side][i] : nullptr;
        eval.FillBatchRow(&cols[side], i, rel.tuple(i), profile, &interner);
      }
    }
  }

  const RecordProfile* Profile(int side, uint32_t row) const {
    return profiles[side].empty() ? nullptr : &profiles[side][row];
  }
};

class BatchEvalTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 400;
    gen.seed = 77;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
  }

  Result<api::PlanPtr> BuildPlan(api::PlanOptions options) {
    return api::PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .Build();
  }

  /// A rule plan whose basis is equality-only: the deduced rules with
  /// every conjunct op replaced by `=` (the paper's strict key matching,
  /// and the shape CompiledEvaluator::BatchProfitable accepts).
  Result<api::PlanPtr> BuildEqPlan() {
    auto base = BuildPlan(api::PlanOptions{});
    if (!base.ok()) return base.status();
    std::vector<MatchRule> eq_rules;
    for (const MatchRule& rule : (*base)->rules()) {
      std::vector<Conjunct> elems;
      for (const Conjunct& c : rule.elements()) {
        elems.push_back(Conjunct{c.attrs, sim::SimOpRegistry::kEq});
      }
      eq_rules.push_back(RelativeKey(std::move(elems)));
    }
    return api::PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(api::PlanOptions{})
        .WithTrainingInstance(&data_.instance)
        .WithRules(std::move(eq_rules))
        .Build();
  }

  /// Scalar reference decision, profiles included (the bit-identity
  /// contract is against exactly this call).
  bool Scalar(const CompiledEvaluator& eval, const BatchHarness& h,
              uint32_t l, uint32_t r) {
    return eval.Matches(data_.instance.left().tuple(l),
                        data_.instance.right().tuple(r), h.Profile(0, l),
                        h.Profile(1, r));
  }

  /// Runs the full strip pipeline (BuildStrips + MatchesBatch) over
  /// `pairs` and returns per-pair decisions aligned with the input.
  std::vector<uint8_t> BatchDecisions(
      const CompiledEvaluator& eval, const BatchHarness& h,
      const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
      BatchStats* stats) {
    util::Arena arena;
    const candidate::PairStrips strips =
        candidate::BuildStrips(pairs, &arena);
    std::vector<uint8_t> lane_dec(strips.lanes, 0xEE);
    for (size_t b = 0; b < strips.num_batches; ++b) {
      eval.MatchesBatch(h.cols[0], h.cols[1], strips.batches[b],
                        lane_dec.data() + strips.batch_first_lane[b], stats);
    }
    std::vector<uint8_t> out(pairs.size());
    for (size_t lane = 0; lane < strips.lanes; ++lane) {
      out[strips.lane_pair[lane]] = lane_dec[lane];
    }
    return out;
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

// ------------------------------------------- the bit-identity property

// ~10k random pairs plus every candidate pair the plan generates, across
// matcher x candidate configurations, through strips (shared-left runs
// and the mixed singleton batch) — every decision equals scalar Matches.
TEST_F(BatchEvalTest, StripDecisionsBitIdenticalToScalar) {
  std::vector<api::PlanOptions> configs(4);
  configs[0].matcher = api::PlanOptions::Matcher::kRuleBased;
  configs[0].candidates = api::PlanOptions::Candidates::kWindowing;
  configs[1].matcher = api::PlanOptions::Matcher::kRuleBased;
  configs[1].candidates = api::PlanOptions::Candidates::kBlocking;
  configs[2].matcher = api::PlanOptions::Matcher::kFellegiSunter;
  configs[2].candidates = api::PlanOptions::Candidates::kWindowing;
  configs[3].matcher = api::PlanOptions::Matcher::kFellegiSunter;
  configs[3].candidates = api::PlanOptions::Candidates::kBlocking;

  const Relation& left = data_.instance.left();
  const Relation& right = data_.instance.right();
  for (const api::PlanOptions& options : configs) {
    auto plan = BuildPlan(options);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const CompiledEvaluator& eval = (*plan)->evaluator();
    ASSERT_TRUE(eval.SupportsBatch());

    BatchHarness h;
    h.Build(eval, data_.instance);

    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    api::Executor executor(*plan);
    auto report = executor.Run(data_.instance);
    ASSERT_TRUE(report.ok());
    pairs = report->candidates.pairs();
    Rng rng(1234);
    for (int trial = 0; trial < 10000; ++trial) {
      pairs.emplace_back(static_cast<uint32_t>(rng.Index(left.size())),
                         static_cast<uint32_t>(rng.Index(right.size())));
    }

    BatchStats stats;
    const std::vector<uint8_t> got = BatchDecisions(eval, h, pairs, &stats);
    EXPECT_EQ(stats.lanes, pairs.size());
    EXPECT_GT(stats.strips, 0u);
    size_t matches = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const bool want = Scalar(eval, h, pairs[i].first, pairs[i].second);
      ASSERT_EQ(got[i] != 0, want)
          << "pair (" << pairs[i].first << ", " << pairs[i].second << ")";
      if (want) ++matches;
    }
    EXPECT_GT(matches, 0u);  // the sample exercised both outcomes
  }
}

// Ragged strip widths around the 64-lane chunk boundary, in both the
// shared-left strip form and the mixed per-lane form.
TEST_F(BatchEvalTest, RaggedStripWidthsBitIdenticalToScalar) {
  api::PlanOptions options;  // rule mode, windowing
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const CompiledEvaluator& eval = (*plan)->evaluator();
  ASSERT_TRUE(eval.SupportsBatch());
  BatchHarness h;
  h.Build(eval, data_.instance);
  const uint32_t rsize =
      static_cast<uint32_t>(data_.instance.right().size());
  const uint32_t lsize = static_cast<uint32_t>(data_.instance.left().size());

  for (uint32_t n : {0u, 1u, 63u, 64u, 65u}) {
    std::vector<uint32_t> rights(n);
    std::vector<uint32_t> lefts(n);
    for (uint32_t i = 0; i < n; ++i) {
      rights[i] = (i * 7 + 3) % rsize;
      lefts[i] = (i * 5 + 1) % lsize;
    }
    // Strip form: one left against the whole strip.
    PairBatch strip;
    strip.left_row = 5;
    strip.right_rows = rights.data();
    strip.size = n;
    std::vector<uint8_t> dec(n + 1, 0xEE);
    BatchStats stats;
    eval.MatchesBatch(h.cols[0], h.cols[1], strip, dec.data(), &stats);
    EXPECT_EQ(stats.lanes, n);
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(dec[i] != 0, Scalar(eval, h, 5, rights[i]))
          << "strip n=" << n << " lane " << i;
    }
    EXPECT_EQ(dec[n], 0xEE);  // no write past the batch

    // Mixed form: per-lane lefts.
    PairBatch mixed;
    mixed.left_rows = lefts.data();
    mixed.right_rows = rights.data();
    mixed.size = n;
    std::fill(dec.begin(), dec.end(), 0xEE);
    eval.MatchesBatch(h.cols[0], h.cols[1], mixed, dec.data(), nullptr);
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(dec[i] != 0, Scalar(eval, h, lefts[i], rights[i]))
          << "mixed n=" << n << " lane " << i;
    }
  }
}

// ------------------------------------------- executor / session wiring

TEST_F(BatchEvalTest, ExecutorBatchPathMatchesScalarAndReportsStats) {
  auto plan = BuildEqPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE((*plan)->evaluator().BatchProfitable());

  api::Executor batch_exec(*plan);  // batch_eval defaults on
  api::ExecutorOptions scalar_options;
  scalar_options.batch_eval = false;
  api::Executor scalar_exec(*plan, scalar_options);
  auto batch_report = batch_exec.Run(data_.instance);
  auto scalar_report = scalar_exec.Run(data_.instance);
  ASSERT_TRUE(batch_report.ok());
  ASSERT_TRUE(scalar_report.ok());

  EXPECT_EQ(SortedPairs(batch_report->matches),
            SortedPairs(scalar_report->matches));
  EXPECT_GT(batch_report->matches.size(), 0u);
  EXPECT_GT(batch_report->strips, 0u);
  EXPECT_GT(batch_report->arena_bytes, 0u);
  if (util::simd::ActiveLevel() != util::simd::Level::kScalar) {
    EXPECT_GT(batch_report->simd_lanes_evaluated, 0u);
  } else {
    EXPECT_EQ(batch_report->simd_lanes_evaluated, 0u);
  }
  EXPECT_EQ(scalar_report->strips, 0u);
  EXPECT_EQ(scalar_report->arena_bytes, 0u);
}

TEST_F(BatchEvalTest, DlHeavyPlanStaysOnScalarPathByDefault) {
  // The default relaxed rules are edit-distance-heavy: not profitable, so
  // the executor must not take the batch path even though it's supported.
  auto plan = BuildPlan(api::PlanOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE((*plan)->evaluator().SupportsBatch());
  EXPECT_FALSE((*plan)->evaluator().BatchProfitable());
  api::Executor executor(*plan);
  auto report = executor.Run(data_.instance);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->strips, 0u);
}

TEST_F(BatchEvalTest, SessionBatchPathMatchesScalarAndReportsStats) {
  auto plan = BuildEqPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE((*plan)->evaluator().BatchProfitable());

  api::SessionOptions scalar_options;
  scalar_options.batch_eval = false;
  api::MatchSession batch_session(*plan);
  api::MatchSession scalar_session(*plan, scalar_options);
  const Relation& left = data_.instance.left();
  const Relation& right = data_.instance.right();
  for (uint32_t i = 0; i < left.size(); ++i) {
    ASSERT_TRUE(batch_session.Upsert(0, left.tuple(i)).ok());
    ASSERT_TRUE(scalar_session.Upsert(0, left.tuple(i)).ok());
  }
  for (uint32_t i = 0; i < right.size(); ++i) {
    ASSERT_TRUE(batch_session.Upsert(1, right.tuple(i)).ok());
    ASSERT_TRUE(scalar_session.Upsert(1, right.tuple(i)).ok());
  }
  auto batch_report = batch_session.Flush();
  auto scalar_report = scalar_session.Flush();
  ASSERT_TRUE(batch_report.ok());
  ASSERT_TRUE(scalar_report.ok());

  EXPECT_EQ(SortedPairs(batch_session.Matches()),
            SortedPairs(scalar_session.Matches()));
  EXPECT_GT(batch_session.Matches().size(), 0u);
  EXPECT_GT(batch_report->strips, 0u);
  EXPECT_GT(batch_report->arena_bytes, 0u);
  EXPECT_EQ(scalar_report->strips, 0u);
}

}  // namespace
}  // namespace mdmatch::match
