// Tests for the quality model, minimize, and algorithm findRCKs
// (paper Section 5), including the Example 5.1 trace and a brute-force
// completeness cross-check (Proposition 5.1).

#include "core/find_rcks.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/md_generator.h"
#include "datagen/credit_billing.h"

namespace mdmatch {
namespace {

class FindRcksTest : public testing::Test {
 protected:
  void SetUp() override {
    ops_ = sim::SimOpRegistry::Default();
    ex_ = datagen::MakeExample11(&ops_);
    dl_ = *ops_.Find("dl@0.80");
  }

  Conjunct C(const char* l, sim::SimOpId op, const char* r) {
    return Conjunct{{*ex_.pair.left().Find(l), *ex_.pair.right().Find(r)}, op};
  }

  bool ContainsKey(const std::vector<RelativeKey>& keys,
                   const RelativeKey& k) {
    return std::any_of(keys.begin(), keys.end(), [&](const RelativeKey& g) {
      return g.SameElements(k);
    });
  }

  sim::SimOpRegistry ops_;
  datagen::Example11Data ex_;
  sim::SimOpId dl_;
  static constexpr sim::SimOpId kEq = sim::SimOpRegistry::kEq;
};

// ----------------------------------------------------------- QualityModel

TEST_F(FindRcksTest, CostCombinesCountLengthAccuracy) {
  QualityModel q(2.0, 3.0, 5.0);
  AttrPair p{0, 0};
  EXPECT_DOUBLE_EQ(q.Cost(p), 5.0);  // ct=0, lt=0, ac=1 -> w3/1
  q.SetLength(p, 4.0);
  EXPECT_DOUBLE_EQ(q.Cost(p), 3.0 * 4.0 + 5.0);
  q.SetAccuracy(p, 0.5);
  EXPECT_DOUBLE_EQ(q.Cost(p), 12.0 + 10.0);
  q.IncrementCount(p);
  q.IncrementCount(p);
  EXPECT_DOUBLE_EQ(q.Cost(p), 2.0 * 2 + 12.0 + 10.0);
  EXPECT_EQ(q.Count(p), 2);
  q.ResetCounts();
  EXPECT_EQ(q.Count(p), 0);
}

TEST_F(FindRcksTest, EstimateLengthsFromData) {
  QualityModel q(0.0, 1.0, 0.0);
  q.EstimateLengthsFromData(ex_.instance, ex_.mds, ex_.target);
  // gender values are single characters / "null": much shorter than addr.
  auto gender = C("gender", kEq, "gender").attrs;
  auto addr = C("addr", kEq, "post").attrs;
  EXPECT_LT(q.Cost(gender), q.Cost(addr));
  EXPECT_GT(q.Cost(addr), 0.0);
}

TEST_F(FindRcksTest, KeyAndLhsCostSumElements) {
  QualityModel q(1.0, 0.0, 0.0);
  AttrPair p1{0, 0}, p2{1, 1};
  q.IncrementCount(p1);
  RelativeKey key({Conjunct{p1, kEq}, Conjunct{p2, kEq}});
  EXPECT_DOUBLE_EQ(q.KeyCost(key), 1.0);
  MatchingDependency md({Conjunct{p1, kEq}, Conjunct{p2, kEq}}, {{p1}});
  EXPECT_DOUBLE_EQ(q.LhsCost(md), 1.0);
}

// --------------------------------------------------------------- Minimize

TEST_F(FindRcksTest, MinimizeProducesDeducibleKey) {
  std::vector<Conjunct> identity;
  for (size_t i = 0; i < ex_.target.size(); ++i) {
    identity.push_back(Conjunct{ex_.target.pair_at(i), kEq});
  }
  QualityModel q;
  RelativeKey minimized = Minimize(ex_.pair, ops_, ex_.mds, ex_.target, q,
                                   RelativeKey(identity));
  EXPECT_LT(minimized.length(), identity.size());
  EXPECT_TRUE(Deduces(ex_.pair, ops_, ex_.mds, minimized.ToMd(ex_.target)));
}

TEST_F(FindRcksTest, MinimizeResultIsLocallyMinimal) {
  std::vector<Conjunct> identity;
  for (size_t i = 0; i < ex_.target.size(); ++i) {
    identity.push_back(Conjunct{ex_.target.pair_at(i), kEq});
  }
  QualityModel q;
  RelativeKey minimized = Minimize(ex_.pair, ops_, ex_.mds, ex_.target, q,
                                   RelativeKey(identity));
  for (size_t i = 0; i < minimized.length(); ++i) {
    RelativeKey sub = minimized.WithoutElement(i);
    EXPECT_FALSE(Deduces(ex_.pair, ops_, ex_.mds, sub.ToMd(ex_.target)))
        << "removable element survived minimize";
  }
}

TEST_F(FindRcksTest, MinimizeKeepsNonKeyUntouchedPiecesConsistent) {
  // Minimizing an already-minimal key is a no-op.
  RelativeKey rck4({C("email", kEq, "email"), C("tel", kEq, "phn")});
  QualityModel q;
  RelativeKey m = Minimize(ex_.pair, ops_, ex_.mds, ex_.target, q, rck4);
  EXPECT_TRUE(m.SameElements(rck4));
}

TEST_F(FindRcksTest, MinimizeRemovesCostliestFirst) {
  // Key = rck4 + a redundant gender element. With gender made expensive it
  // must be the removed one.
  RelativeKey key({C("email", kEq, "email"), C("tel", kEq, "phn"),
                   C("gender", kEq, "gender")});
  QualityModel q;
  q.SetLength(C("gender", kEq, "gender").attrs, 100.0);
  RelativeKey m = Minimize(ex_.pair, ops_, ex_.mds, ex_.target, q, key);
  EXPECT_EQ(m.length(), 2u);
  EXPECT_FALSE(m.Contains(C("gender", kEq, "gender")));
}

// ---------------------------------------------------------------- Pairing

TEST_F(FindRcksTest, PairingCollectsTargetAndSigmaPairs) {
  auto pairs = Pairing(ex_.mds, ex_.target);
  // Y pairs (5) + email pair (from ϕ3 LHS) = 6 distinct pairs.
  EXPECT_EQ(pairs.size(), 6u);
  EXPECT_TRUE(std::find(pairs.begin(), pairs.end(),
                        C("email", kEq, "email").attrs) != pairs.end());
}

// --------------------------------------------------------------- FindRcks

TEST_F(FindRcksTest, PaperExample51DeducesTheFourRcks) {
  // Γ must contain rck1..rck4 of Example 2.4 (modulo element order) plus
  // the minimized identity key.
  FindRcksResult result = FindRcks(ex_.pair, ops_, ex_.mds, ex_.target, 10);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.rcks.size(), 5u);

  RelativeKey rck1(
      {C("LN", kEq, "LN"), C("addr", kEq, "post"), C("FN", dl_, "FN")});
  RelativeKey rck2(
      {C("LN", kEq, "LN"), C("tel", kEq, "phn"), C("FN", dl_, "FN")});
  RelativeKey rck3({C("email", kEq, "email"), C("addr", kEq, "post")});
  RelativeKey rck4({C("email", kEq, "email"), C("tel", kEq, "phn")});
  EXPECT_TRUE(ContainsKey(result.rcks, rck1));
  EXPECT_TRUE(ContainsKey(result.rcks, rck2));
  EXPECT_TRUE(ContainsKey(result.rcks, rck3));
  EXPECT_TRUE(ContainsKey(result.rcks, rck4));
  // The minimized identity key ([FN, LN, tel] || [=,=,=]): the literal
  // pseudocode minimizes γ0 (the paper's Example 5.1 trace keeps Yc/Yb
  // atomic).
  RelativeKey rck0(
      {C("FN", kEq, "FN"), C("LN", kEq, "LN"), C("tel", kEq, "phn")});
  EXPECT_TRUE(ContainsKey(result.rcks, rck0));
}

TEST_F(FindRcksTest, AllReturnedKeysAreDeducibleAndMinimal) {
  FindRcksResult result = FindRcks(ex_.pair, ops_, ex_.mds, ex_.target, 10);
  for (const auto& key : result.rcks) {
    EXPECT_TRUE(Deduces(ex_.pair, ops_, ex_.mds, key.ToMd(ex_.target)))
        << key.ToString(ex_.pair, ops_);
    for (size_t i = 0; i < key.length(); ++i) {
      EXPECT_FALSE(Deduces(ex_.pair, ops_, ex_.mds,
                           key.WithoutElement(i).ToMd(ex_.target)))
          << "non-minimal key " << key.ToString(ex_.pair, ops_);
    }
  }
}

TEST_F(FindRcksTest, NoKeyCoversAnother) {
  FindRcksResult result = FindRcks(ex_.pair, ops_, ex_.mds, ex_.target, 10);
  for (size_t i = 0; i < result.rcks.size(); ++i) {
    for (size_t j = 0; j < result.rcks.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(Covers(result.rcks[i], result.rcks[j]))
          << i << " covers " << j;
    }
  }
}

TEST_F(FindRcksTest, MLimitStopsEarly) {
  FindRcksOptions options;
  options.m = 1;
  QualityModel q;
  FindRcksResult result =
      FindRcks(ex_.pair, ops_, ex_.mds, ex_.target, options, &q);
  // Initial key + exactly one deduced addition (Fig. 7 counts only loop
  // additions toward m).
  EXPECT_EQ(result.rcks.size(), 2u);
  EXPECT_FALSE(result.complete);
}

TEST_F(FindRcksTest, ExhaustiveAgainstBruteForceEnumeration) {
  // Proposition 5.1 speaks about the apply-reachable key space; the strict
  // subset-minimal key space can be larger by keys that are semantically
  // dominated (e.g. ([FN,LN,addr] || [=,=,=]) is dominated by rck1, which
  // compares FN with ~dl). We therefore assert:
  //  (a) every key findRCKs returns is in the brute-force minimal set, and
  //  (b) every brute-force minimal key is dominated by a returned key.
  FindRcksOptions options;
  options.exhaustive = true;
  QualityModel q;
  FindRcksResult result =
      FindRcks(ex_.pair, ops_, ex_.mds, ex_.target, options, &q);
  std::vector<RelativeKey> brute =
      EnumerateAllRcksBruteForce(ex_.pair, ops_, ex_.mds, ex_.target);
  EXPECT_TRUE(result.complete);
  EXPECT_LE(result.rcks.size(), brute.size());
  for (const auto& k : result.rcks) {
    EXPECT_TRUE(ContainsKey(brute, k))
        << "extra " << k.ToString(ex_.pair, ops_);
  }
  for (const auto& k : brute) {
    bool dominated = std::any_of(
        result.rcks.begin(), result.rcks.end(),
        [&](const RelativeKey& g) { return Dominates(g, k); });
    EXPECT_TRUE(dominated) << "undominated " << k.ToString(ex_.pair, ops_);
  }
}

TEST_F(FindRcksTest, EmptySigmaYieldsOnlyIdentityKey) {
  FindRcksResult result = FindRcks(ex_.pair, ops_, {}, ex_.target, 10);
  ASSERT_EQ(result.rcks.size(), 1u);
  EXPECT_TRUE(result.complete);
  // Identity key cannot shrink without MDs.
  EXPECT_EQ(result.rcks[0].length(), ex_.target.size());
}

TEST_F(FindRcksTest, DiversityCountersSteerSelection) {
  QualityModel q(1.0, 0.0, 0.0);
  FindRcksOptions options;
  options.m = 10;
  FindRcksResult result =
      FindRcks(ex_.pair, ops_, ex_.mds, ex_.target, options, &q);
  // After the run, counters reflect chosen keys.
  int total = 0;
  for (const auto& key : result.rcks) {
    for (const auto& e : key.elements()) total += 0 * q.Count(e.attrs);
  }
  (void)total;
  int email_count = q.Count(C("email", kEq, "email").attrs);
  EXPECT_GE(email_count, 2);  // email appears in rck3 and rck4
}

// ----------------------------------------------- randomized workload sweep

class FindRcksRandomSweep : public testing::TestWithParam<uint64_t> {};

TEST_P(FindRcksRandomSweep, KeysAreSoundMinimalAndMutuallyUncovered) {
  sim::SimOpRegistry ops;
  MdGeneratorOptions gen;
  gen.num_mds = 12;
  gen.y_length = 4;
  gen.extra_attrs = 3;
  gen.seed = GetParam();
  MdWorkload w = GenerateMdWorkload(gen, &ops);

  QualityModel q;
  FindRcksOptions options;
  options.m = 15;
  FindRcksResult result =
      FindRcks(w.pair, ops, w.sigma, w.target, options, &q);
  ASSERT_GE(result.rcks.size(), 1u);
  for (const auto& key : result.rcks) {
    EXPECT_TRUE(Deduces(w.pair, ops, w.sigma, key.ToMd(w.target)));
    for (size_t i = 0; i < key.length(); ++i) {
      EXPECT_FALSE(Deduces(w.pair, ops, w.sigma,
                           key.WithoutElement(i).ToMd(w.target)));
    }
  }
  for (size_t i = 0; i < result.rcks.size(); ++i) {
    for (size_t j = 0; j < result.rcks.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(Covers(result.rcks[i], result.rcks[j]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FindRcksRandomSweep,
                         testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace mdmatch
