// End-to-end integration tests: the full pipeline of the paper — deduce
// RCKs from MDs at compile time, then use them for matching, blocking and
// windowing on generated data — plus the Example 1.1 storyline.

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "candidate/windowing.h"
#include "core/closure.h"
#include "core/enforce.h"
#include "core/find_rcks.h"
#include "datagen/credit_billing.h"
#include "match/blocking.h"
#include "match/comparison.h"
#include "match/evaluation.h"
#include "match/fellegi_sunter.h"
#include "match/hs_rules.h"

namespace mdmatch {
namespace {

using match::ComparisonVector;
using match::Evaluate;
using match::EvaluateCandidates;
using match::KeyFunction;
using match::MatchRule;

// ------------------------------------------- Example 1.1 storyline ------

TEST(Example11Integration, GivenKeyMatchesOnlyT3) {
  // The domain-expert key (rck1) matches t1 with t3 but not t4..t6.
  sim::SimOpRegistry ops = sim::SimOpRegistry::Default();
  datagen::Example11Data ex = datagen::MakeExample11(&ops);
  // "Mark" vs "Marx": DL distance 1, allowance (1-θ)*4. With the paper's
  // narrative the names are similar; that needs θ <= 0.75.
  sim::SimOpId dl75 = ops.Dl(0.75);
  auto C = [&](const char* l, sim::SimOpId op, const char* r) {
    return Conjunct{{*ex.pair.left().Find(l), *ex.pair.right().Find(r)}, op};
  };
  MatchRule rck1({C("LN", sim::SimOpRegistry::kEq, "LN"),
                  C("addr", sim::SimOpRegistry::kEq, "post"),
                  C("FN", dl75, "FN")});
  const Tuple& t1 = ex.instance.left().tuple(0);
  EXPECT_TRUE(match::RuleMatches(rck1, ops, t1, ex.instance.right().tuple(0)));
  EXPECT_FALSE(
      match::RuleMatches(rck1, ops, t1, ex.instance.right().tuple(1)));
  EXPECT_FALSE(
      match::RuleMatches(rck1, ops, t1, ex.instance.right().tuple(2)));
  EXPECT_FALSE(
      match::RuleMatches(rck1, ops, t1, ex.instance.right().tuple(3)));
}

TEST(Example11Integration, DeducedKeysMatchT4T5T6) {
  // The added value of deduction (Example 1.1): the deduced keys match the
  // tuples the given key cannot.
  sim::SimOpRegistry ops = sim::SimOpRegistry::Default();
  datagen::Example11Data ex = datagen::MakeExample11(&ops);
  auto C = [&](const char* l, sim::SimOpId op, const char* r) {
    return Conjunct{{*ex.pair.left().Find(l), *ex.pair.right().Find(r)}, op};
  };
  sim::SimOpId dl75 = ops.Dl(0.75);
  constexpr sim::SimOpId kEq = sim::SimOpRegistry::kEq;
  MatchRule rck2({C("LN", kEq, "LN"), C("tel", kEq, "phn"), C("FN", dl75, "FN")});
  MatchRule rck3({C("email", kEq, "email"), C("addr", kEq, "post")});
  MatchRule rck4({C("email", kEq, "email"), C("tel", kEq, "phn")});

  const Tuple& t1 = ex.instance.left().tuple(0);
  // Deduced from Σ (with the dl@0.75 variant for the FN conjunct, matching
  // the paper's ≈d on "Mark"/"Marx").
  MdSet sigma75;
  {
    // Rebuild ϕ1 with dl@0.75 and keep ϕ2, ϕ3.
    MdBuilder b1(ex.pair, &ops);
    b1.Lhs("LN", "=", "LN")
        .Lhs("addr", "=", "post")
        .Lhs("FN", ops.Name(dl75), "FN")
        .Rhs("FN", "FN")
        .Rhs("LN", "LN")
        .Rhs("addr", "post")
        .Rhs("tel", "phn")
        .Rhs("gender", "gender");
    auto md1 = b1.Build();
    ASSERT_TRUE(md1.ok());
    sigma75.push_back(*md1);
    sigma75.push_back(ex.mds[1]);
    sigma75.push_back(ex.mds[2]);
  }
  EXPECT_TRUE(Deduces(ex.pair, ops, sigma75, rck2.ToMd(ex.target)));
  EXPECT_TRUE(Deduces(ex.pair, ops, sigma75, rck3.ToMd(ex.target)));
  EXPECT_TRUE(Deduces(ex.pair, ops, sigma75, rck4.ToMd(ex.target)));

  // t4 via rck2 (phone + name), t5 via rck3 (email + address), t6 via rck4.
  EXPECT_TRUE(match::RuleMatches(rck2, ops, t1, ex.instance.right().tuple(1)));
  EXPECT_TRUE(match::RuleMatches(rck3, ops, t1, ex.instance.right().tuple(2)));
  EXPECT_TRUE(match::RuleMatches(rck4, ops, t1, ex.instance.right().tuple(3)));
}

// --------------------------------------- generated-data pipeline --------

class PipelineTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions options;
    options.num_base = 600;
    options.seed = 31;
    data_ = datagen::GenerateCreditBilling(options, &ops_);

    quality_ = QualityModel(1.0, 0.05, 3.0);
    quality_.EstimateLengthsFromData(data_.instance, data_.mds, data_.target);
    datagen::ApplyDefaultAccuracies(data_.pair, data_.target, &quality_);
    FindRcksOptions fopts;
    fopts.m = 10;
    rcks_ = FindRcks(data_.pair, ops_, data_.mds, data_.target, fopts,
                     &quality_)
                .rcks;
  }

  /// Runs a trained FS matcher as a compiled plan over the standard
  /// windowing keys (window 10) and scores its matches.
  void RunFsPlan(const match::FellegiSunter& fs, match::MatchQuality* q) {
    api::PlanOptions options;
    options.matcher = api::PlanOptions::Matcher::kFellegiSunter;
    auto plan = api::PlanBuilder(data_.pair, data_.target, &ops_)
                    .WithSigma(data_.mds)
                    .WithPrecompiledRcks(rcks_)
                    .WithOptions(options)
                    .WithSortKeys(match::StandardWindowKeys(data_.pair))
                    .WithFsBasis(fs.vector(), fs.model())
                    .Build();
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto run = api::Executor(*plan).Run(data_.instance);
    ASSERT_TRUE(run.ok()) << run.status();
    *q = Evaluate(run->matches, data_.instance);
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
  QualityModel quality_;
  std::vector<RelativeKey> rcks_;
};

TEST_F(PipelineTest, RckUnionVectorImprovesFsOverEmPicked) {
  // FSrck: union of top-5 RCKs, compared under the θ = 0.8 similarity test.
  ComparisonVector rck_vector = match::RelaxVectorForMatching(
      ComparisonVector::UnionOfKeys(rcks_, 5), ops_.Dl(0.8));
  match::FellegiSunter fs_rck(rck_vector);
  ASSERT_TRUE(fs_rck.Train(data_.instance, ops_).ok());
  match::MatchQuality q_rck;
  ASSERT_NO_FATAL_FAILURE(RunFsPlan(fs_rck, &q_rck));

  // FS baseline: EM-picked attributes under the same similarity test,
  // over the same windowing candidates.
  ComparisonVector em_vector = match::SelectVectorByEm(
      data_.instance, ops_, data_.target, ops_.Dl(0.8), rck_vector.size());
  match::FellegiSunter fs_em(em_vector);
  ASSERT_TRUE(fs_em.Train(data_.instance, ops_).ok());
  match::MatchQuality q_em;
  ASSERT_NO_FATAL_FAILURE(RunFsPlan(fs_em, &q_em));

  // The paper's headline: RCK vectors improve precision without losing
  // recall. Allow slack; assert the direction on F1.
  EXPECT_GE(q_rck.f1 + 0.02, q_em.f1);
  EXPECT_GT(q_rck.precision, 0.7);
}

TEST_F(PipelineTest, RckBlockingBeatsManualOnPairsCompleteness) {
  // Exp-4: blocking key from top-2 RCK attributes (name Soundex-encoded)
  // versus the manually chosen key.
  ASSERT_GE(rcks_.size(), 2u);
  RelativeKey merged;
  for (size_t i = 0; i < 2; ++i) {
    for (const auto& e : rcks_[i].elements()) merged.AddUnique(e);
  }
  KeyFunction rck_key = KeyFunction::FromKeyElementsByCost(
      merged, data_.pair, quality_, 3, {"fname", "lname", "mname"});
  KeyFunction manual_key = match::ManualBlockingKey(data_.pair);

  auto rck_q = EvaluateCandidates(
      match::BlockCandidates(data_.instance, rck_key), data_.instance);
  auto manual_q = EvaluateCandidates(
      match::BlockCandidates(data_.instance, manual_key), data_.instance);

  // The paper's Exp-4 headline: consistently above 10% PC improvement.
  EXPECT_GE(rck_q.pairs_completeness, manual_q.pairs_completeness + 0.05);
  // Both keys keep the comparison space small.
  EXPECT_GT(rck_q.reduction_ratio, 0.9);
  EXPECT_GT(manual_q.reduction_ratio, 0.9);
}

TEST_F(PipelineTest, EnforcementOnSampleSatisfiesDeducedKeys) {
  // Take a small slice of the generated instance and chase it: every
  // deduced RCK must hold on the stable result.
  Relation credit(data_.pair.left());
  Relation billing(data_.pair.right());
  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(credit.AppendTuple(data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(billing.AppendTuple(data_.instance.right().tuple(i)).ok());
  }
  Instance small(std::move(credit), std::move(billing));
  auto stable = Enforce(small, data_.mds, ops_);
  ASSERT_TRUE(stable.ok()) << stable.status();
  EXPECT_TRUE(Satisfies(small, *stable, data_.mds, ops_));
  for (const auto& key : rcks_) {
    EXPECT_TRUE(Satisfies(small, *stable, {key.ToMd(data_.target)}, ops_));
  }
}

TEST_F(PipelineTest, WindowingWithRckKeysHasHighPairsCompleteness) {
  auto rck_keys = match::SortKeysFromRules(
      std::vector<MatchRule>(rcks_.begin(), rcks_.end()), data_.pair, 3);
  auto candidates =
      candidate::WindowCandidatesMultiPass(data_.instance, rck_keys, 10);
  auto q = EvaluateCandidates(candidates, data_.instance);
  EXPECT_GT(q.pairs_completeness, 0.5);
  EXPECT_GT(q.reduction_ratio, 0.95);
}

}  // namespace
}  // namespace mdmatch
