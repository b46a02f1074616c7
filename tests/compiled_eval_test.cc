// Tests for the compiled pair-evaluation engine (match/compiled_eval):
// exact decision equivalence with the naive rule / Fellegi-Sunter paths,
// atom deduplication and short-circuiting, and per-record profiles.

#include "match/compiled_eval.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "datagen/credit_billing.h"
#include "util/random.h"

namespace mdmatch::match {
namespace {

Conjunct C(AttrId left, AttrId right, sim::SimOpId op) {
  return Conjunct{AttrPair{left, right}, op};
}

// ------------------------------------------------ dedup + short-circuit

TEST(CompiledEvaluatorTest, DeduplicatesSharedAtomsAcrossRules) {
  sim::SimOpRegistry ops;
  sim::SimOpId dl = ops.Dl(0.8);
  // Three rules sharing [0/0 =] and [1/1 dl]: 6 conjunct occurrences, but
  // only 4 unique atoms.
  std::vector<MatchRule> rules;
  rules.push_back(RelativeKey({C(0, 0, sim::SimOpRegistry::kEq),
                               C(1, 1, dl)}));
  rules.push_back(RelativeKey({C(0, 0, sim::SimOpRegistry::kEq),
                               C(2, 2, dl)}));
  rules.push_back(RelativeKey({C(1, 1, dl), C(3, 3, dl)}));
  CompiledEvaluator eval = CompiledEvaluator::ForRules(rules, ops);
  EXPECT_EQ(eval.conjunct_count(), 6u);
  EXPECT_EQ(eval.atom_count(), 4u);
}

TEST(CompiledEvaluatorTest, SharedAtomEvaluatedAtMostOncePerPair) {
  sim::SimOpRegistry ops;
  std::atomic<size_t> calls{0};
  auto counted = ops.Register(
      "counted", [&calls](std::string_view a, std::string_view b) {
        ++calls;
        return a.size() == b.size();
      });
  ASSERT_TRUE(counted.ok());
  // The counted atom occurs in every rule; naive evaluation would call it
  // once per rule.
  std::vector<MatchRule> rules;
  rules.push_back(RelativeKey({C(0, 0, *counted), C(1, 1, *counted)}));
  rules.push_back(RelativeKey({C(0, 0, *counted), C(2, 2, *counted)}));
  rules.push_back(RelativeKey({C(0, 0, *counted), C(3, 3, *counted)}));
  CompiledEvaluator eval = CompiledEvaluator::ForRules(rules, ops);
  Tuple left(1, {"aa", "bb", "cc", "dd"});
  Tuple right(2, {"xx", "y", "z", "w"});
  // All four atoms differ in value, so nothing short-circuits via the
  // registry's equality wrapper; each unique atom runs at most once.
  EXPECT_FALSE(eval.Matches(left, right));
  EXPECT_LE(calls.load(), 4u);
  EXPECT_GE(calls.load(), 1u);
}

TEST(CompiledEvaluatorTest, CheapFailingAtomShortCircuitsExpensiveOnes) {
  sim::SimOpRegistry ops;
  std::atomic<size_t> expensive_calls{0};
  auto expensive = ops.Register(
      "expensive", [&expensive_calls](std::string_view, std::string_view) {
        ++expensive_calls;
        return true;
      });
  ASSERT_TRUE(expensive.ok());
  // One rule: a failing equality (cost rank 0) plus a custom op (ranked
  // last). The equality kills the only rule, so the custom op never runs.
  std::vector<MatchRule> rules;
  rules.push_back(
      RelativeKey({C(0, 0, sim::SimOpRegistry::kEq), C(1, 1, *expensive)}));
  CompiledEvaluator eval = CompiledEvaluator::ForRules(rules, ops);
  Tuple left(1, {"alpha", "beta"});
  Tuple right(2, {"gamma", "delta"});
  EXPECT_FALSE(eval.Matches(left, right));
  EXPECT_EQ(expensive_calls.load(), 0u);
}

TEST(CompiledEvaluatorTest, EmptyRuleAlwaysMatches) {
  sim::SimOpRegistry ops;
  std::vector<MatchRule> rules;
  rules.push_back(RelativeKey({C(0, 0, sim::SimOpRegistry::kEq)}));
  rules.push_back(RelativeKey());  // vacuous conjunction
  CompiledEvaluator eval = CompiledEvaluator::ForRules(rules, ops);
  Tuple left(1, {"a"});
  Tuple right(2, {"b"});
  EXPECT_TRUE(eval.Matches(left, right));
  EXPECT_TRUE(AnyRuleMatches(rules, ops, left, right));
}

TEST(CompiledEvaluatorTest, EmptyEvaluatorAndEmptyRuleSetMatchNothing) {
  sim::SimOpRegistry ops;
  CompiledEvaluator empty;
  Tuple left(1, {"a"});
  Tuple right(2, {"a"});
  EXPECT_FALSE(empty.compiled());
  EXPECT_FALSE(empty.Matches(left, right));
  CompiledEvaluator no_rules = CompiledEvaluator::ForRules({}, ops);
  EXPECT_TRUE(no_rules.compiled());
  EXPECT_FALSE(no_rules.Matches(left, right));
}

// More than 64 rules: the mask representation falls back to verbatim rule
// evaluation, still decision-equivalent.
TEST(CompiledEvaluatorTest, ManyRulesFallbackStaysEquivalent) {
  sim::SimOpRegistry ops;
  sim::SimOpId dl = ops.Dl(0.8);
  std::vector<MatchRule> rules;
  for (int i = 0; i < 70; ++i) {
    rules.push_back(RelativeKey({C(i % 3, i % 3, dl), C((i + 1) % 3, (i + 1) % 3,
                                 sim::SimOpRegistry::kEq)}));
  }
  CompiledEvaluator eval = CompiledEvaluator::ForRules(rules, ops);
  Rng rng(99);
  std::vector<std::string> pool = {"smith", "smyth", "jones", "jonas", ""};
  for (int trial = 0; trial < 200; ++trial) {
    Tuple left(1, {pool[rng.Index(pool.size())], pool[rng.Index(pool.size())],
                   pool[rng.Index(pool.size())]});
    Tuple right(2, {pool[rng.Index(pool.size())], pool[rng.Index(pool.size())],
                    pool[rng.Index(pool.size())]});
    EXPECT_EQ(eval.Matches(left, right),
              AnyRuleMatches(rules, ops, left, right));
  }
}

// ------------------------------------------------ profile-backed atoms

TEST(CompiledEvaluatorTest, ProfileAtomsAgreeWithRegistryEvaluation) {
  sim::SimOpRegistry ops;
  sim::SimOpId soundex = ops.SoundexEq();
  sim::SimOpId nysiis = ops.NysiisEq();
  sim::SimOpId qgram = ops.QGramJaccard2(0.55);
  sim::SimOpId jaro = ops.Jaro(0.85);
  std::vector<MatchRule> rules;
  rules.push_back(RelativeKey({C(0, 0, soundex), C(1, 1, qgram)}));
  rules.push_back(RelativeKey({C(0, 0, nysiis), C(1, 1, jaro)}));
  CompiledEvaluator eval = CompiledEvaluator::ForRules(rules, ops);
  EXPECT_TRUE(eval.needs_profiles());

  Rng rng(4242);
  std::vector<std::string> pool = {"robert",  "rupert", "rubin",
                                   "ashcroft", "ashcraft", "tymczak",
                                   "pfister",  "smith",   "smyth", ""};
  for (int trial = 0; trial < 500; ++trial) {
    Tuple left(1, {pool[rng.Index(pool.size())], pool[rng.Index(pool.size())]});
    Tuple right(2,
                {pool[rng.Index(pool.size())], pool[rng.Index(pool.size())]});
    RecordProfile lp = eval.ProfileRecord(left, 0);
    RecordProfile rp = eval.ProfileRecord(right, 1);
    const bool naive = AnyRuleMatches(rules, ops, left, right);
    EXPECT_EQ(eval.Matches(left, right), naive);
    EXPECT_EQ(eval.Matches(left, right, &lp, &rp), naive);
  }
}

// ------------------------------------------------ Fellegi-Sunter mode

TEST(CompiledEvaluatorTest, FsThresholdTiesMatchNaiveDecision) {
  sim::SimOpRegistry ops;
  ComparisonVector vector(
      {C(0, 0, sim::SimOpRegistry::kEq), C(1, 1, sim::SimOpRegistry::kEq)});
  FsModel model;
  model.m = {0.9, 0.8};
  model.u = {0.1, 0.2};
  model.p = 0.25;
  // Pin the threshold to the exact score of the pattern {agree, disagree}:
  // the >= comparison must resolve the tie identically on both paths.
  const double tie_score =
      model.AgreementWeight(0) + model.DisagreementWeight(1);
  FsOptions tie_options;
  tie_options.match_threshold = tie_score;
  FellegiSunter fs_tie(vector, tie_options);
  fs_tie.SetModel(model);
  CompiledEvaluator eval = CompiledEvaluator::ForFs(
      vector, model, fs_tie.Threshold(), ops);

  Tuple agree_disagree_l(1, {"same", "one"});
  Tuple agree_disagree_r(2, {"same", "two"});
  EXPECT_EQ(eval.Matches(agree_disagree_l, agree_disagree_r),
            fs_tie.IsMatch(ops, agree_disagree_l, agree_disagree_r));
  EXPECT_TRUE(eval.Matches(agree_disagree_l, agree_disagree_r));

  Tuple disagree_l(3, {"left", "one"});
  Tuple disagree_r(4, {"right", "two"});
  EXPECT_EQ(eval.Matches(disagree_l, disagree_r),
            fs_tie.IsMatch(ops, disagree_l, disagree_r));
  EXPECT_FALSE(eval.Matches(disagree_l, disagree_r));
}

TEST(CompiledEvaluatorTest, FsDuplicateVectorElementsShareOneEvaluation) {
  sim::SimOpRegistry ops;
  std::atomic<size_t> calls{0};
  auto counted = ops.Register(
      "counted2", [&calls](std::string_view a, std::string_view b) {
        ++calls;
        return a == b;
      });
  ASSERT_TRUE(counted.ok());
  ComparisonVector vector({C(0, 0, *counted), C(0, 0, *counted)});
  FsModel model;
  model.m = {0.9, 0.9};
  model.u = {0.1, 0.1};
  model.p = 0.2;
  CompiledEvaluator eval = CompiledEvaluator::ForFs(vector, model, 0.0, ops);
  EXPECT_EQ(eval.atom_count(), 1u);
  Tuple left(1, {"abc"});
  Tuple right(2, {"abd"});
  const bool compiled = eval.Matches(left, right);
  EXPECT_LE(calls.load(), 1u);  // both vector elements share one evaluation
  FsOptions zero;
  zero.match_threshold = 0.0;
  FellegiSunter fs_zero(vector, zero);
  fs_zero.SetModel(model);
  EXPECT_EQ(compiled, fs_zero.IsMatch(ops, left, right));
}

// ------------------------------------------------ the big property suite

class CompiledEquivalenceTest : public testing::Test {
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

  /// Naive decision: exactly what MatchesPair computed before the
  /// compiled engine existed.
  bool Naive(const api::MatchPlan& plan, const Tuple& l, const Tuple& r) {
    if (plan.options().matcher == api::PlanOptions::Matcher::kRuleBased) {
      return AnyRuleMatches(plan.rules(), ops_, l, r);
    }
    return plan.fs()->IsMatch(ops_, l, r);
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

// Compiled vs naive on ~10k random noisy pairs (plus every candidate pair
// the plan itself generates), across matcher x candidate configurations.
TEST_F(CompiledEquivalenceTest, CompiledAgreesWithNaiveOnRandomPairs) {
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
    const api::MatchPlan& p = **plan;

    Rng rng(1234);
    size_t matches = 0;
    for (int trial = 0; trial < 10000; ++trial) {
      const Tuple& l = left.tuple(rng.Index(left.size()));
      const Tuple& r = right.tuple(rng.Index(right.size()));
      const bool naive = Naive(p, l, r);
      ASSERT_EQ(p.MatchesPair(l, r), naive)
          << "pair (" << l.id() << ", " << r.id() << ")";
      if (naive) ++matches;
    }
    // The generated data pairs duplicates by id: the sample must have
    // exercised both outcomes for the comparison to mean anything.
    EXPECT_GT(matches, 0u);

    api::Executor executor(*plan);
    auto report = executor.Run(data_.instance);
    ASSERT_TRUE(report.ok());
    for (const auto& [li, ri] : report->candidates.pairs()) {
      ASSERT_EQ(p.MatchesPair(left.tuple(li), right.tuple(ri)),
                Naive(p, left.tuple(li), right.tuple(ri)));
    }
  }
}

}  // namespace
}  // namespace mdmatch::match
