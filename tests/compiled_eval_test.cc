// Tests for the compiled pair-evaluation engine (match/compiled_eval):
// exact decision equivalence with the naive rule / Fellegi-Sunter paths,
// atom deduplication and short-circuiting, and per-record profiles.

#include "match/compiled_eval.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "datagen/credit_billing.h"
#include "sim/edit_distance.h"
#include "util/random.h"

namespace mdmatch::match {
namespace {

Conjunct C(AttrId left, AttrId right, sim::SimOpId op) {
  return Conjunct{AttrPair{left, right}, op};
}

/// The evaluator's decision on one pair, over both records' profiles.
bool Decide(const CompiledEvaluator& eval, const Tuple& left,
            const Tuple& right) {
  return eval.Matches(left, right, eval.ProfileRecord(left, 0),
                      eval.ProfileRecord(right, 1));
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
  EXPECT_FALSE(Decide(eval, left, right));
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
  EXPECT_FALSE(Decide(eval, left, right));
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
  EXPECT_TRUE(Decide(eval, left, right));
  EXPECT_TRUE(AnyRuleMatches(rules, ops, left, right));
}

TEST(CompiledEvaluatorTest, EmptyEvaluatorAndEmptyRuleSetMatchNothing) {
  sim::SimOpRegistry ops;
  CompiledEvaluator empty;
  Tuple left(1, {"a"});
  Tuple right(2, {"a"});
  EXPECT_FALSE(empty.compiled());
  EXPECT_FALSE(Decide(empty, left, right));
  CompiledEvaluator no_rules = CompiledEvaluator::ForRules({}, ops);
  EXPECT_TRUE(no_rules.compiled());
  EXPECT_FALSE(Decide(no_rules, left, right));
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
    EXPECT_EQ(eval.Matches(left, right, lp, rp), naive);
  }
}

// One θ-DL atom and one Levenshtein atom, decided over profiles, agree
// with DlSimilar / LevenshteinDistanceBounded where the longer value has
// 4, 5, 9, 10, 14 or 15 characters: the lengths at which the θ = 0.8
// budget steps from 0 to 1, 1 to 2 and 2 to 3 edits.
TEST(CompiledEvaluatorTest, ProfiledEditAtomsAgreeAtBudgetBoundaries) {
  sim::SimOpRegistry ops;
  const size_t max_dist = 2;
  CompiledEvaluator dl_eval = CompiledEvaluator::ForRules(
      {RelativeKey({C(0, 0, ops.Dl(0.8))})}, ops);
  CompiledEvaluator lev_eval = CompiledEvaluator::ForRules(
      {RelativeKey({C(0, 0, ops.Levenshtein(max_dist))})}, ops);
  Rng rng(808);
  size_t similar = 0;
  size_t dissimilar = 0;
  for (size_t longest : {4, 5, 9, 10, 14, 15}) {
    for (int trial = 0; trial < 400; ++trial) {
      // '1', 'A' and 'a' share a count class; 'b' and 'r' share another.
      std::string a;
      for (size_t i = 0; i < longest; ++i) a.push_back("1Aabr"[rng.Index(5)]);
      // Up to four substitutions, transpositions and deletions: the edited
      // copy is never longer than `a`.
      std::string b = a;
      for (size_t e = rng.Index(5); e > 0 && !b.empty(); --e) {
        const size_t at = rng.Index(b.size());
        switch (rng.Index(3)) {
          case 0:
            b[at] = "1Aabrz"[rng.Index(6)];
            break;
          case 1:
            if (at + 1 < b.size()) std::swap(b[at], b[at + 1]);
            break;
          default:
            b.erase(at, 1);
            break;
        }
      }
      if (rng.Index(2) == 1) std::swap(a, b);
      const Tuple left(1, {a});
      const Tuple right(2, {b});
      const bool dl = sim::DlSimilar(a, b, 0.8);
      const RecordProfile dl_l = dl_eval.ProfileRecord(left, 0);
      const RecordProfile dl_r = dl_eval.ProfileRecord(right, 1);
      EXPECT_EQ(dl_eval.Matches(left, right, dl_l, dl_r), dl)
          << "'" << a << "' vs '" << b << "'";
      const bool lev =
          sim::LevenshteinDistanceBounded(a, b, max_dist) <= max_dist;
      const RecordProfile lev_l = lev_eval.ProfileRecord(left, 0);
      const RecordProfile lev_r = lev_eval.ProfileRecord(right, 1);
      EXPECT_EQ(lev_eval.Matches(left, right, lev_l, lev_r), lev)
          << "'" << a << "' vs '" << b << "'";
      ++(dl ? similar : dissimilar);
    }
  }
  EXPECT_GT(similar, 0u);
  EXPECT_GT(dissimilar, 0u);
}

// A library caller may register a θ-DL operator at any θ. θ >= 1 and NaN
// allow no edit and θ <= 0 every edit, so DlSimilar, the registry's
// predicate and a compiled θ-DL atom all decide
// a == b || NormalizedDamerauLevenshtein(a, b) >= θ.
TEST(CompiledEvaluatorTest, DlThresholdsOutsideTheUnitIntervalAreDefined) {
  const std::vector<std::string> words = {
      "",      "a",     "smith",    "smyth",     "smiht",
      "jones", "jonas", "mcdonald", "macdonald", "x"};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double theta : {1.5, 1 + 1e-12, -0.5, inf, -inf, nan}) {
    sim::SimOpRegistry ops;
    const sim::SimOpId dl = ops.Dl(theta);
    const CompiledEvaluator eval =
        CompiledEvaluator::ForRules({RelativeKey({C(0, 0, dl)})}, ops);
    size_t similar = 0;
    for (const std::string& a : words) {
      for (const std::string& b : words) {
        const bool want =
            a == b || sim::NormalizedDamerauLevenshtein(a, b) >= theta;
        EXPECT_EQ(sim::DlSimilar(a, b, theta), want)
            << theta << " '" << a << "' vs '" << b << "'";
        EXPECT_EQ(ops.Eval(dl, a, b), want)
            << theta << " '" << a << "' vs '" << b << "'";
        EXPECT_EQ(Decide(eval, Tuple(1, {a}), Tuple(2, {b})), want)
            << theta << " '" << a << "' vs '" << b << "'";
        similar += want ? 1 : 0;
      }
    }
    // θ <= 0 holds for every pair; θ >= 1 and NaN only for equal values.
    EXPECT_EQ(similar, theta <= 0 ? words.size() * words.size()
                                  : words.size())
        << theta;
    EXPECT_EQ(sim::DlEditBudget(theta, 9), theta <= 0 ? 9u : 0u) << theta;
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
  EXPECT_EQ(Decide(eval, agree_disagree_l, agree_disagree_r),
            fs_tie.IsMatch(ops, agree_disagree_l, agree_disagree_r));
  EXPECT_TRUE(Decide(eval, agree_disagree_l, agree_disagree_r));

  Tuple disagree_l(3, {"left", "one"});
  Tuple disagree_r(4, {"right", "two"});
  EXPECT_EQ(Decide(eval, disagree_l, disagree_r),
            fs_tie.IsMatch(ops, disagree_l, disagree_r));
  EXPECT_FALSE(Decide(eval, disagree_l, disagree_r));
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
  const bool compiled = Decide(eval, left, right);
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

  /// A rule plan whose basis is all `=`: the deduced rules with every
  /// conjunct op replaced by `=` (the paper's strict key matching).
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

  /// Naive decision: exactly what the plan decided before the compiled
  /// engine existed.
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
// the plan itself generates), across matcher x candidate configurations
// and the all-`=` rule basis, over the record profiles Executor and
// MatchSession build.
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
  std::vector<api::PlanPtr> plans;
  for (const api::PlanOptions& options : configs) {
    auto plan = BuildPlan(options);
    ASSERT_TRUE(plan.ok()) << plan.status();
    plans.push_back(*plan);
  }
  auto eq_plan = BuildEqPlan();
  ASSERT_TRUE(eq_plan.ok()) << eq_plan.status();
  plans.push_back(*eq_plan);

  const Relation& left = data_.instance.left();
  const Relation& right = data_.instance.right();
  for (const api::PlanPtr& plan : plans) {
    const api::MatchPlan& p = *plan;
    std::vector<RecordProfile> profiles[2];
    for (int side = 0; side < 2; ++side) {
      const Relation& rel = side == 0 ? left : right;
      for (size_t i = 0; i < rel.size(); ++i) {
        profiles[side].push_back(
            p.evaluator().ProfileRecord(rel.tuple(i), side));
      }
    }

    Rng rng(1234);
    size_t matches = 0;
    for (int trial = 0; trial < 10000; ++trial) {
      const size_t li = rng.Index(left.size());
      const size_t ri = rng.Index(right.size());
      const Tuple& l = left.tuple(li);
      const Tuple& r = right.tuple(ri);
      const bool naive = Naive(p, l, r);
      ASSERT_EQ(p.evaluator().Matches(l, r, profiles[0][li], profiles[1][ri]),
                naive)
          << "profiled pair (" << l.id() << ", " << r.id() << ")";
      if (naive) ++matches;
    }
    // The generated data pairs duplicates by id: the sample must have
    // exercised both outcomes for the comparison to mean anything.
    EXPECT_GT(matches, 0u);

    api::Executor executor(plan);
    auto report = executor.Run(data_.instance);
    ASSERT_TRUE(report.ok());
    for (const auto& [li, ri] : report->candidates.pairs()) {
      const bool naive = Naive(p, left.tuple(li), right.tuple(ri));
      ASSERT_EQ(p.evaluator().Matches(left.tuple(li), right.tuple(ri),
                                      profiles[0][li], profiles[1][ri]),
                naive);
    }
  }
}

}  // namespace
}  // namespace mdmatch::match
