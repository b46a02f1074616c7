// Tests for the Fellegi-Sunter matcher and its EM parameter estimation
// (paper Exp-2 substrate).

#include "match/fellegi_sunter.h"

#include <gtest/gtest.h>

#include <cmath>

#include "candidate/windowing.h"
#include "datagen/credit_billing.h"
#include "match/evaluation.h"
#include "match/hs_rules.h"

namespace mdmatch::match {
namespace {

using candidate::WindowCandidatesMultiPass;

/// The candidates `fs` declares matches, one IsMatch per pair.
MatchResult Classify(const FellegiSunter& fs, const Instance& instance,
                     const sim::SimOpRegistry& ops,
                     const CandidateSet& candidates) {
  MatchResult matches;
  for (const auto& [l, r] : candidates.pairs()) {
    if (fs.IsMatch(ops, instance.left().tuple(l), instance.right().tuple(r))) {
      matches.Add(l, r);
    }
  }
  return matches;
}

class FsTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions options;
    options.num_base = 400;
    options.seed = 7;
    data_ = datagen::GenerateCreditBilling(options, &ops_);
  }
  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

TEST_F(FsTest, ModelWeightsFollowMu) {
  FsModel model;
  model.m = {0.9};
  model.u = {0.1};
  model.p = 0.2;
  EXPECT_NEAR(model.AgreementWeight(0), std::log2(9.0), 1e-9);
  EXPECT_NEAR(model.DisagreementWeight(0), std::log2(0.1 / 0.9), 1e-9);
}

TEST_F(FsTest, TrainRejectsEmptyVector) {
  FellegiSunter fs(ComparisonVector{});
  EXPECT_FALSE(fs.Train(data_.instance, ops_).ok());
}

TEST_F(FsTest, EmSeparatesMatchAndUnmatchProbabilities) {
  sim::SimOpId dl = ops_.Dl(0.8);
  ComparisonVector vector = ComparisonVector::AllWithOp(data_.target, dl);
  FsOptions options;
  options.max_training_pairs = 20000;
  FellegiSunter fs(vector, options);
  ASSERT_TRUE(fs.Train(data_.instance, ops_).ok());
  const FsModel& model = fs.model();
  ASSERT_EQ(model.m.size(), vector.size());
  // Match proportion is small but nonzero; probabilities in (0,1).
  EXPECT_GT(model.p, 0.0);
  EXPECT_LT(model.p, 0.8);
  size_t discriminating = 0;
  for (size_t i = 0; i < model.m.size(); ++i) {
    EXPECT_GT(model.m[i], 0.0);
    EXPECT_LT(model.m[i], 1.0);
    EXPECT_GT(model.u[i], 0.0);
    EXPECT_LT(model.u[i], 1.0);
    if (model.m[i] > model.u[i] + 0.05) ++discriminating;
  }
  // Most Y attributes discriminate matches from non-matches.
  EXPECT_GE(discriminating, vector.size() / 2);
}

TEST_F(FsTest, ScoreIsMonotoneInAgreements) {
  sim::SimOpId dl = ops_.Dl(0.8);
  ComparisonVector vector = ComparisonVector::AllWithOp(data_.target, dl);
  FellegiSunter fs(vector);
  ASSERT_TRUE(fs.Train(data_.instance, ops_).ok());
  // All-agree pattern scores at least as high as any sub-pattern when each
  // attribute has m > u (agreement weights positive).
  const FsModel& model = fs.model();
  bool all_positive = true;
  for (size_t i = 0; i < vector.size(); ++i) {
    all_positive &= model.AgreementWeight(i) > model.DisagreementWeight(i);
  }
  EXPECT_TRUE(all_positive);
  uint32_t full = (1u << vector.size()) - 1;
  EXPECT_GT(fs.ScorePattern(full), fs.ScorePattern(0));
}

TEST_F(FsTest, MatchClassifiesCandidates) {
  sim::SimOpId dl = ops_.Dl(0.8);
  ComparisonVector vector = ComparisonVector::AllWithOp(data_.target, dl);
  FellegiSunter fs(vector);
  ASSERT_TRUE(fs.Train(data_.instance, ops_).ok());

  CandidateSet candidates = WindowCandidatesMultiPass(
      data_.instance, StandardWindowKeys(data_.pair), 10);
  MatchResult matches = Classify(fs, data_.instance, ops_, candidates);
  MatchQuality q = Evaluate(matches, data_.instance);
  // On this synthetic workload FS should be clearly better than chance.
  EXPECT_GT(q.precision, 0.6);
  EXPECT_GT(q.recall, 0.3);
}

TEST_F(FsTest, ExplicitThresholdOverridesMap) {
  ComparisonVector vector = ComparisonVector::AllWithOp(data_.target);
  FsOptions options;
  options.match_threshold = 123.0;  // absurdly high: nothing matches
  FellegiSunter fs(vector, options);
  ASSERT_TRUE(fs.Train(data_.instance, ops_).ok());
  EXPECT_DOUBLE_EQ(fs.Threshold(), 123.0);
  CandidateSet candidates = WindowCandidatesMultiPass(
      data_.instance, StandardWindowKeys(data_.pair), 10);
  EXPECT_EQ(Classify(fs, data_.instance, ops_, candidates).size(), 0u);
}

TEST_F(FsTest, SetModelInjectsParameters) {
  ComparisonVector vector(
      {Conjunct{{*data_.pair.left().Find("email"),
                 *data_.pair.right().Find("email")},
                sim::SimOpRegistry::kEq}});
  FsOptions options;
  options.match_threshold = 0.0;
  FellegiSunter fs(vector, options);
  FsModel model;
  model.m = {0.95};
  model.u = {0.01};
  model.p = 0.5;
  fs.SetModel(model);
  // Agreement scores positive, disagreement negative.
  EXPECT_GT(fs.ScorePattern(1), 0.0);
  EXPECT_LT(fs.ScorePattern(0), 0.0);
}

TEST_F(FsTest, SampleTrainingPairsBoundedAndEnriched) {
  ComparisonVector vector = ComparisonVector::AllWithOp(data_.target);
  CandidateSet sample =
      SampleTrainingPairs(data_.instance, vector, 5000, 11);
  EXPECT_LE(sample.size(), 5000u);
  EXPECT_GT(sample.size(), 1000u);
  // The neighbor half makes true matches far more frequent than the
  // uniform base rate.
  size_t true_pairs = 0;
  for (const auto& [l, r] : sample.pairs()) {
    if (IsTruePair(data_.instance, l, r)) ++true_pairs;
  }
  double rate =
      static_cast<double>(true_pairs) / static_cast<double>(sample.size());
  double base_rate = static_cast<double>(CountTruePairs(data_.instance)) /
                     static_cast<double>(data_.instance.NumPairs());
  EXPECT_GT(rate, 5 * base_rate);
}

TEST_F(FsTest, SelectVectorByEmPicksDiscriminatingAttrs) {
  sim::SimOpId dl = ops_.Dl(0.8);
  ComparisonVector chosen =
      SelectVectorByEm(data_.instance, ops_, data_.target, dl, 5);
  EXPECT_EQ(chosen.size(), 5u);
  // Chosen elements are target pairs.
  for (const auto& e : chosen.elements()) {
    EXPECT_TRUE(data_.target.Contains(e.attrs));
  }
}

TEST_F(FsTest, TrainingIsDeterministicForSeed) {
  ComparisonVector vector = ComparisonVector::AllWithOp(data_.target);
  FellegiSunter a(vector), b(vector);
  ASSERT_TRUE(a.Train(data_.instance, ops_).ok());
  ASSERT_TRUE(b.Train(data_.instance, ops_).ok());
  ASSERT_EQ(a.model().m.size(), b.model().m.size());
  for (size_t i = 0; i < a.model().m.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.model().m[i], b.model().m[i]);
    EXPECT_DOUBLE_EQ(a.model().u[i], b.model().u[i]);
  }
}

}  // namespace
}  // namespace mdmatch::match
