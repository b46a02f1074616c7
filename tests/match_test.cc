// Tests for the matching substrate: comparison vectors, pair sets,
// evaluation metrics, key functions, blocking and windowing.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/plan.h"
#include "candidate/windowing.h"
#include "datagen/credit_billing.h"
#include "match/blocking.h"
#include "match/comparison.h"
#include "match/evaluation.h"
#include "match/hs_rules.h"
#include "match/key_function.h"
#include "match/match_result.h"

namespace mdmatch::match {
namespace {

using candidate::WindowCandidates;

class MatchSubstrateTest : public testing::Test {
 protected:
  void SetUp() override {
    ops_ = sim::SimOpRegistry::Default();
    ex_ = datagen::MakeExample11(&ops_);
  }

  Conjunct C(const char* l, const char* op, const char* r) {
    return Conjunct{
        {*ex_.pair.left().Find(l), *ex_.pair.right().Find(r)},
        *ops_.Find(op)};
  }

  sim::SimOpRegistry ops_;
  datagen::Example11Data ex_;
};

// ---------------------------------------------------------------- PairSet

TEST(PairSetTest, AddDeduplicates) {
  PairSet s;
  EXPECT_TRUE(s.Add(1, 2));
  EXPECT_FALSE(s.Add(1, 2));
  EXPECT_TRUE(s.Add(2, 1));  // ordered pair: (2,1) != (1,2)
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(1, 2));
  EXPECT_FALSE(s.Contains(3, 3));
}

TEST(PairSetTest, MergeUnions) {
  PairSet a, b;
  a.Add(1, 1);
  b.Add(1, 1);
  b.Add(2, 2);
  a.Merge(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(PairSetTest, PairsPreserveInsertionOrder) {
  PairSet s;
  s.Add(5, 6);
  s.Add(1, 2);
  ASSERT_EQ(s.pairs().size(), 2u);
  EXPECT_EQ(s.pairs()[0], (std::pair<uint32_t, uint32_t>{5, 6}));
  EXPECT_EQ(s.pairs()[1], (std::pair<uint32_t, uint32_t>{1, 2}));
}

// ------------------------------------------------------- ComparisonVector

TEST_F(MatchSubstrateTest, FromKeyAndUnionOfKeys) {
  RelativeKey k1({C("email", "=", "email"), C("tel", "=", "phn")});
  RelativeKey k2({C("email", "=", "email"), C("addr", "=", "post")});
  ComparisonVector v1 = ComparisonVector::FromKey(k1);
  EXPECT_EQ(v1.size(), 2u);
  ComparisonVector u = ComparisonVector::UnionOfKeys({k1, k2}, 5);
  EXPECT_EQ(u.size(), 3u);  // email deduplicated
  ComparisonVector top1 = ComparisonVector::UnionOfKeys({k1, k2}, 1);
  EXPECT_EQ(top1.size(), 2u);
}

TEST_F(MatchSubstrateTest, AllWithOpBuildsFullTargetVector) {
  ComparisonVector v = ComparisonVector::AllWithOp(ex_.target);
  EXPECT_EQ(v.size(), ex_.target.size());
  for (const auto& e : v.elements()) {
    EXPECT_EQ(e.op, sim::SimOpRegistry::kEq);
  }
}

TEST_F(MatchSubstrateTest, ComparePatternBitsAndAllAgree) {
  ComparisonVector v(
      {C("email", "=", "email"), C("tel", "=", "phn"), C("LN", "=", "LN")});
  const Tuple& t1 = ex_.instance.left().tuple(0);
  const Tuple& t6 = ex_.instance.right().tuple(3);
  uint32_t pattern = v.ComparePattern(ops_, t1, t6);
  // t1 vs t6: email agrees, tel agrees, LN differs (Clifford vs Clivord).
  EXPECT_TRUE(pattern & 1u);
  EXPECT_TRUE(pattern & 2u);
  EXPECT_FALSE(pattern & 4u);
  EXPECT_FALSE(v.AllAgree(ops_, t1, t6));

  ComparisonVector v2({C("email", "=", "email"), C("tel", "=", "phn")});
  EXPECT_TRUE(v2.AllAgree(ops_, t1, t6));
}

TEST_F(MatchSubstrateTest, RuleMatchesIsConjunction) {
  MatchRule rule({C("email", "=", "email"), C("tel", "=", "phn")});
  const Tuple& t1 = ex_.instance.left().tuple(0);
  EXPECT_TRUE(RuleMatches(rule, ops_, t1, ex_.instance.right().tuple(3)));
  EXPECT_FALSE(RuleMatches(rule, ops_, t1, ex_.instance.right().tuple(0)));
  EXPECT_TRUE(AnyRuleMatches({rule}, ops_, t1, ex_.instance.right().tuple(3)));
  EXPECT_FALSE(AnyRuleMatches({}, ops_, t1, ex_.instance.right().tuple(3)));
}

TEST_F(MatchSubstrateTest, RelaxKeyReplacesEqualityOnly) {
  sim::SimOpId dl = *ops_.Find("dl@0.80");
  RelativeKey key({C("email", "=", "email"), C("FN", "dl@0.80", "FN")});
  RelativeKey relaxed = RelaxKeyForMatching(key, dl);
  ASSERT_EQ(relaxed.length(), 2u);
  EXPECT_EQ(relaxed.elements()[0].op, dl);
  EXPECT_EQ(relaxed.elements()[1].op, dl);
  // Relaxed rules accept near-equal values a strict rule rejects
  // ("Clifford" vs "Clivord" is 2 DL edits: within the θ = 0.75 allowance
  // of 2 for 8-character strings, but not the θ = 0.8 allowance of 1.6).
  const Tuple& t1 = ex_.instance.left().tuple(0);
  const Tuple& t5 = ex_.instance.right().tuple(2);  // Clivord
  MatchRule strict({C("LN", "=", "LN")});
  EXPECT_FALSE(RuleMatches(strict, ops_, t1, t5));
  EXPECT_FALSE(RuleMatches(RelaxKeyForMatching(strict, dl), ops_, t1, t5));
  EXPECT_TRUE(
      RuleMatches(RelaxKeyForMatching(strict, ops_.Dl(0.75)), ops_, t1, t5));
}

TEST_F(MatchSubstrateTest, RelaxRulesAndVector) {
  sim::SimOpId dl = *ops_.Find("dl@0.80");
  std::vector<MatchRule> rules = {MatchRule({C("email", "=", "email")}),
                                  MatchRule({C("tel", "=", "phn")})};
  auto relaxed = RelaxRulesForMatching(rules, dl);
  ASSERT_EQ(relaxed.size(), 2u);
  EXPECT_EQ(relaxed[0].elements()[0].op, dl);

  ComparisonVector v = ComparisonVector::AllWithOp(ex_.target);
  ComparisonVector rv = RelaxVectorForMatching(v, dl);
  for (const auto& e : rv.elements()) EXPECT_EQ(e.op, dl);
}

// -------------------------------------------------------------- Evaluation

TEST_F(MatchSubstrateTest, CountTruePairsOnExample11) {
  // Entity 1: 1 credit × 4 billing = 4 true pairs; entity 2: no billing.
  EXPECT_EQ(CountTruePairs(ex_.instance), 4u);
  EXPECT_TRUE(IsTruePair(ex_.instance, 0, 0));
  EXPECT_FALSE(IsTruePair(ex_.instance, 1, 0));
}

TEST_F(MatchSubstrateTest, EvaluatePrecisionRecallF1) {
  MatchResult result;
  result.Add(0, 0);  // true
  result.Add(0, 1);  // true
  result.Add(1, 2);  // false (t2 is not the holder of t5)
  MatchQuality q = Evaluate(result, ex_.instance);
  EXPECT_EQ(q.true_positives, 2u);
  EXPECT_EQ(q.found, 3u);
  EXPECT_EQ(q.truth, 4u);
  EXPECT_DOUBLE_EQ(q.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_GT(q.f1, 0.0);
}

TEST_F(MatchSubstrateTest, EvaluateEmptyResult) {
  MatchQuality q = Evaluate(MatchResult{}, ex_.instance);
  EXPECT_DOUBLE_EQ(q.precision, 0.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
  EXPECT_DOUBLE_EQ(q.f1, 0.0);
}

TEST_F(MatchSubstrateTest, EvaluateCandidatesPcAndRr) {
  CandidateSet candidates;
  candidates.Add(0, 0);
  candidates.Add(0, 1);
  candidates.Add(1, 3);
  CandidateQuality q = EvaluateCandidates(candidates, ex_.instance);
  EXPECT_EQ(q.true_in_candidates, 2u);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 0.5);
  // 2×4 = 8 total pairs; 3 candidates -> RR = 1 - 3/8.
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 1.0 - 3.0 / 8.0);
}

// ------------------------------------------------------------ KeyFunction

TEST_F(MatchSubstrateTest, KeyFunctionRendersBothSides) {
  KeyFunction key({{C("LN", "=", "LN").attrs, false, 0},
                   {C("FN", "=", "FN").attrs, false, 2}});
  const Tuple& t1 = ex_.instance.left().tuple(0);
  const Tuple& t3 = ex_.instance.right().tuple(0);
  EXPECT_EQ(key.Render(t1, 0), "CLIFFORD|MA|");
  EXPECT_EQ(key.Render(t3, 1), "CLIFFORD|MA|");  // Marx -> MA prefix too
}

TEST_F(MatchSubstrateTest, KeyFunctionSoundexEncodes) {
  KeyFunction key({{C("LN", "=", "LN").attrs, true, 0}});
  const Tuple& t1 = ex_.instance.left().tuple(0);
  const Tuple& t5 = ex_.instance.right().tuple(2);  // Clivord
  EXPECT_EQ(key.Render(t1, 0), key.Render(t5, 1));  // same Soundex
}

TEST_F(MatchSubstrateTest, FromKeyElementsSoundexesNameDomains) {
  RelativeKey rck({C("LN", "=", "LN"), C("addr", "=", "post")});
  KeyFunction key = KeyFunction::FromKeyElements(rck, ex_.pair, 2,
                                                 {"fname", "lname"});
  ASSERT_EQ(key.elements().size(), 2u);
  EXPECT_TRUE(key.elements()[0].soundex);   // lname domain
  EXPECT_FALSE(key.elements()[1].soundex);  // address domain
}

TEST_F(MatchSubstrateTest, FromKeyElementsRespectsMaxElems) {
  RelativeKey rck(
      {C("LN", "=", "LN"), C("addr", "=", "post"), C("FN", "=", "FN")});
  KeyFunction key = KeyFunction::FromKeyElements(rck, ex_.pair, 2);
  EXPECT_EQ(key.elements().size(), 2u);
}

// ----------------------------------------------------- blocking/windowing

TEST_F(MatchSubstrateTest, BlockCandidatesGroupByKey) {
  // Block on c#: t1 (111) blocks with t3..t6 (111); t2 (222) with nobody.
  KeyFunction key({{C("c#", "=", "c#").attrs, false, 0}});
  CandidateSet candidates = BlockCandidates(ex_.instance, key);
  EXPECT_EQ(candidates.size(), 4u);
  const auto& pairs = candidates.pairs();
  for (uint32_t r = 0; r < 4; ++r) {
    EXPECT_NE(std::find(pairs.begin(), pairs.end(), std::make_pair(0u, r)),
              pairs.end());
  }
  CandidateQuality q = EvaluateCandidates(candidates, ex_.instance);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 1.0);
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 0.5);
}

TEST_F(MatchSubstrateTest, BlockingStats) {
  KeyFunction key({{C("c#", "=", "c#").attrs, false, 0}});
  BlockingStats stats = AnalyzeBlocks(ex_.instance, key);
  EXPECT_EQ(stats.num_blocks, 2u);       // "111" and "222"
  EXPECT_EQ(stats.largest_block, 5u);    // t1 + t3..t6
  EXPECT_DOUBLE_EQ(stats.avg_block, 3.0);
}

// One-shot blocking emits its candidates in a fixed order (executors
// evaluate them in this order): block-key order, then left position,
// then right position. The reference groups by std::map.
TEST(BlockingOrderTest, CandidatesFollowKeyThenPositionOrder) {
  sim::SimOpRegistry ops = sim::SimOpRegistry::Default();
  datagen::CreditBillingOptions gen;
  gen.num_base = 150;
  gen.seed = 77;
  const datagen::CreditBillingData data =
      datagen::GenerateCreditBilling(gen, &ops);
  api::PlanOptions options;
  options.candidates = api::PlanOptions::Candidates::kBlocking;
  auto plan = api::PlanBuilder(data.pair, data.target, &ops)
                  .WithSigma(data.mds)
                  .WithOptions(options)
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status();

  const Instance& instance = data.instance;
  for (const KeyFunction& key :
       {ManualBlockingKey(data.pair), (*plan)->block_key()}) {
    struct Block {
      std::vector<uint32_t> left;
      std::vector<uint32_t> right;
    };
    std::map<std::string, Block> reference;
    for (uint32_t i = 0; i < instance.left().size(); ++i) {
      reference[key.Render(instance.left().tuple(i), 0)].left.push_back(i);
    }
    for (uint32_t i = 0; i < instance.right().size(); ++i) {
      reference[key.Render(instance.right().tuple(i), 1)].right.push_back(i);
    }
    std::vector<std::pair<uint32_t, uint32_t>> expected;
    size_t total = 0;
    size_t largest = 0;
    for (const auto& [rendered, block] : reference) {
      for (uint32_t l : block.left) {
        for (uint32_t r : block.right) expected.emplace_back(l, r);
      }
      total += block.left.size() + block.right.size();
      largest = std::max(largest, block.left.size() + block.right.size());
    }
    ASSERT_GT(reference.size(), 10u);
    ASSERT_GT(expected.size(), 100u);

    EXPECT_EQ(BlockCandidates(instance, key).pairs(), expected);
    const BlockingStats stats = AnalyzeBlocks(instance, key);
    EXPECT_EQ(stats.num_blocks, reference.size());
    EXPECT_EQ(stats.largest_block, largest);
    EXPECT_DOUBLE_EQ(stats.avg_block, static_cast<double>(total) /
                                          static_cast<double>(
                                              reference.size()));
  }
}

TEST_F(MatchSubstrateTest, WindowCandidatesRespectWindowSize) {
  KeyFunction key({{C("LN", "=", "LN").attrs, true, 0}});
  CandidateSet w2 = WindowCandidates(ex_.instance, key, 2);
  CandidateSet w4 = WindowCandidates(ex_.instance, key, 4);
  EXPECT_LE(w2.size(), w4.size());
  // Window of 1 (or 0) yields nothing.
  EXPECT_EQ(WindowCandidates(ex_.instance, key, 1).size(), 0u);
}

TEST_F(MatchSubstrateTest, WindowOnlyEmitsCrossRelationPairs) {
  KeyFunction key({{C("gender", "=", "gender").attrs, false, 0}});
  CandidateSet w = WindowCandidates(ex_.instance, key, 6);
  for (const auto& [l, r] : w.pairs()) {
    EXPECT_LT(l, ex_.instance.left().size());
    EXPECT_LT(r, ex_.instance.right().size());
  }
}

TEST_F(MatchSubstrateTest, FullWindowCoversAllCrossPairs) {
  KeyFunction key({{C("c#", "=", "c#").attrs, false, 0}});
  size_t all = ex_.instance.left().size() + ex_.instance.right().size();
  CandidateSet w = WindowCandidates(ex_.instance, key, all);
  EXPECT_EQ(w.size(), ex_.instance.NumPairs());
  CandidateQuality q = EvaluateCandidates(w, ex_.instance);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 1.0);
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 0.0);
}

// --------------------------------------------------------------- HS rules

TEST(HsRulesTest, TwentyFiveValidRules) {
  sim::SimOpRegistry ops;
  SchemaPair pair = datagen::MakeCreditBillingSchemas();
  auto rules = HernandezStolfoRules(pair, &ops);
  EXPECT_EQ(rules.size(), 25u);
  for (const auto& rule : rules) {
    EXPECT_FALSE(rule.empty());
    for (const auto& e : rule.elements()) {
      EXPECT_TRUE(pair.left().IsValid(e.attrs.left));
      EXPECT_TRUE(pair.right().IsValid(e.attrs.right));
      EXPECT_TRUE(ops.IsValid(e.op));
    }
  }
}

TEST(HsRulesTest, StandardKeysAndBlockingKey) {
  SchemaPair pair = datagen::MakeCreditBillingSchemas();
  auto keys = StandardWindowKeys(pair);
  EXPECT_EQ(keys.size(), 3u);
  KeyFunction manual = ManualBlockingKey(pair);
  EXPECT_EQ(manual.elements().size(), 3u);
  EXPECT_TRUE(manual.elements()[0].soundex);  // name attribute encoded
}

}  // namespace
}  // namespace mdmatch::match
