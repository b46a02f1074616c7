#include "sim/edit_distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "util/random.h"

namespace mdmatch::sim {
namespace {

// ------------------------------------------------------------ Levenshtein

TEST(LevenshteinTest, IdenticalStrings) {
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
}

TEST(LevenshteinTest, EmptyVersusNonEmpty) {
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
}

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("Mark", "Marx"), 1u);
  EXPECT_EQ(LevenshteinDistance("Clifford", "Clivord"), 2u);
}

TEST(LevenshteinTest, SymmetricOnRandomInputs) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    std::string a, b;
    for (size_t j = rng.Index(12); j > 0; --j) a.push_back(rng.Letter());
    for (size_t j = rng.Index(12); j > 0; --j) b.push_back(rng.Letter());
    EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistance(b, a));
  }
}

TEST(LevenshteinTest, TriangleInequalityOnRandomInputs) {
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    std::string s[3];
    for (auto& str : s) {
      for (size_t j = 1 + rng.Index(10); j > 0; --j) {
        str.push_back(static_cast<char>('a' + rng.Index(4)));
      }
    }
    size_t ab = LevenshteinDistance(s[0], s[1]);
    size_t bc = LevenshteinDistance(s[1], s[2]);
    size_t ac = LevenshteinDistance(s[0], s[2]);
    EXPECT_LE(ac, ab + bc);
  }
}

TEST(LevenshteinTest, BoundedMatchesExactWhenWithinBound) {
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    std::string a, b;
    for (size_t j = rng.Index(10); j > 0; --j) {
      a.push_back(static_cast<char>('a' + rng.Index(5)));
    }
    for (size_t j = rng.Index(10); j > 0; --j) {
      b.push_back(static_cast<char>('a' + rng.Index(5)));
    }
    size_t exact = LevenshteinDistance(a, b);
    for (size_t bound : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
      size_t bounded = LevenshteinDistanceBounded(a, b, bound);
      if (exact <= bound) {
        EXPECT_EQ(bounded, exact) << a << " vs " << b;
      } else {
        EXPECT_EQ(bounded, bound + 1) << a << " vs " << b;
      }
    }
  }
}

TEST(LevenshteinTest, BoundedShortCircuitsOnLengthGap) {
  EXPECT_EQ(LevenshteinDistanceBounded("a", "abcdefgh", 3), 4u);
}

// ---------------------------------------------------- Myers bit-parallel

namespace {

/// Independent reference DP (the classic full-matrix recurrence), kept
/// deliberately naive: LevenshteinDistance itself now dispatches to the
/// bit-parallel kernel, so tests need a path that cannot share its bugs.
size_t ReferenceLevenshtein(std::string_view a, std::string_view b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost});
    }
  }
  return d[a.size()][b.size()];
}

std::string RandomWord(Rng* rng, size_t max_len, int alphabet) {
  std::string s;
  for (size_t j = rng->Index(max_len + 1); j > 0; --j) {
    s.push_back(static_cast<char>('a' + rng->Index(alphabet)));
  }
  return s;
}

}  // namespace

TEST(MyersTest, MatchesReferenceOnRandomStrings) {
  Rng rng(61);
  for (int i = 0; i < 2000; ++i) {
    std::string a = RandomWord(&rng, 20, 4);
    std::string b = RandomWord(&rng, 20, 4);
    EXPECT_EQ(MyersLevenshtein(a, b), ReferenceLevenshtein(a, b))
        << a << " vs " << b;
  }
}

TEST(MyersTest, HandlesWordBoundaryLengths) {
  // 63 / 64 characters sit exactly at the machine-word limit of the
  // bit-parallel kernel; 65+ on one side still works when the shorter
  // string fits the word.
  std::string s63(63, 'a'), s64(64, 'a'), s100(100, 'a');
  EXPECT_EQ(MyersLevenshtein(s63, s64), 1u);
  EXPECT_EQ(MyersLevenshtein(s64, s64), 0u);
  EXPECT_EQ(MyersLevenshtein(s64, s100), 36u);
  std::string t64 = s64;
  t64[0] = 'b';
  t64[63] = 'b';
  EXPECT_EQ(MyersLevenshtein(s64, t64), 2u);
  EXPECT_EQ(MyersLevenshtein("", s64), 64u);
}

TEST(MyersTest, BoundedDispatchAgreesWithReferenceAndClamps) {
  Rng rng(62);
  for (int i = 0; i < 1000; ++i) {
    std::string a = RandomWord(&rng, 30, 3);
    std::string b = RandomWord(&rng, 30, 3);
    size_t exact = ReferenceLevenshtein(a, b);
    for (size_t bound : {size_t{0}, size_t{1}, size_t{3}, size_t{8}}) {
      size_t got = LevenshteinDistanceBounded(a, b, bound);
      EXPECT_EQ(got, exact <= bound ? exact : bound + 1) << a << " vs " << b;
    }
  }
}

TEST(DamerauBoundedTest, MatchesFullDamerauLevenshtein) {
  Rng rng(64);
  for (int i = 0; i < 3000; ++i) {
    std::string a = RandomWord(&rng, 14, 3);
    std::string b = RandomWord(&rng, 14, 3);
    size_t exact = DamerauLevenshteinDistance(a, b);
    for (size_t bound : {size_t{0}, size_t{1}, size_t{2}, size_t{4},
                         size_t{30}}) {
      EXPECT_EQ(DamerauLevenshteinDistanceBounded(a, b, bound),
                exact <= bound ? exact : bound + 1)
          << a << " vs " << b << " bound " << bound;
    }
  }
}

TEST(DamerauBoundedTest, TranspositionHeavyCases) {
  // The famous unrestricted-DL case: "ca" -> "abc" is 2 via transposition
  // interleaved with an insertion (OSA says 3).
  EXPECT_EQ(DamerauLevenshteinDistanceBounded("ca", "abc", 2), 2u);
  EXPECT_EQ(DamerauLevenshteinDistanceBounded("ca", "abc", 1), 2u);
  EXPECT_EQ(DamerauLevenshteinDistanceBounded("ab", "ba", 1), 1u);
  EXPECT_EQ(DamerauLevenshteinDistanceBounded("abcdef", "abdcef", 1), 1u);
  EXPECT_EQ(DamerauLevenshteinDistanceBounded("", "xyz", 2), 3u);
  EXPECT_EQ(DamerauLevenshteinDistanceBounded("", "xy", 2), 2u);
}

// The banded (> 64 chars) path must agree with the bit-parallel one.
TEST(MyersTest, LongStringsUseBandedPathConsistently) {
  Rng rng(63);
  for (int i = 0; i < 50; ++i) {
    std::string a = RandomWord(&rng, 90, 3);
    std::string b = RandomWord(&rng, 90, 3);
    a.resize(std::max<size_t>(a.size(), 70), 'z');  // force both past 64
    b.resize(std::max<size_t>(b.size(), 70), 'z');
    size_t exact = ReferenceLevenshtein(a, b);
    EXPECT_EQ(LevenshteinDistance(a, b), exact);
    for (size_t bound : {size_t{2}, size_t{10}, size_t{200}}) {
      EXPECT_EQ(LevenshteinDistanceBounded(a, b, bound),
                exact <= bound ? exact : bound + 1);
    }
  }
}

// -------------------------------------------------------------------- OSA

TEST(OsaTest, CountsAdjacentTranspositionAsOne) {
  EXPECT_EQ(OsaDistance("ab", "ba"), 1u);
  EXPECT_EQ(LevenshteinDistance("ab", "ba"), 2u);
}

TEST(OsaTest, KnownValues) {
  EXPECT_EQ(OsaDistance("ca", "abc"), 3u);  // famous OSA vs DL difference
  EXPECT_EQ(OsaDistance("Mark", "Marx"), 1u);
  EXPECT_EQ(OsaDistance("Makr", "Mark"), 1u);
  EXPECT_EQ(OsaDistance("", "xyz"), 3u);
}

TEST(OsaTest, NeverExceedsLevenshtein) {
  Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    std::string a, b;
    for (size_t j = rng.Index(10); j > 0; --j) {
      a.push_back(static_cast<char>('a' + rng.Index(4)));
    }
    for (size_t j = rng.Index(10); j > 0; --j) {
      b.push_back(static_cast<char>('a' + rng.Index(4)));
    }
    EXPECT_LE(OsaDistance(a, b), LevenshteinDistance(a, b));
  }
}

// ----------------------------------------------------- Damerau-Levenshtein

TEST(DamerauTest, UnrestrictedBeatsOsaOnInterleavedEdits) {
  // "ca" -> "ac" (transpose) -> "abc" (insert) = 2 moves; OSA needs 3.
  EXPECT_EQ(DamerauLevenshteinDistance("ca", "abc"), 2u);
  EXPECT_EQ(OsaDistance("ca", "abc"), 3u);
}

TEST(DamerauTest, BasicCases) {
  EXPECT_EQ(DamerauLevenshteinDistance("", ""), 0u);
  EXPECT_EQ(DamerauLevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(DamerauLevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(DamerauLevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(DamerauLevenshteinDistance("ab", "ba"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("Mark", "Marx"), 1u);
}

TEST(DamerauTest, NeverExceedsOsa) {
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    std::string a, b;
    for (size_t j = rng.Index(9); j > 0; --j) {
      a.push_back(static_cast<char>('a' + rng.Index(4)));
    }
    for (size_t j = rng.Index(9); j > 0; --j) {
      b.push_back(static_cast<char>('a' + rng.Index(4)));
    }
    EXPECT_LE(DamerauLevenshteinDistance(a, b), OsaDistance(a, b))
        << a << " vs " << b;
  }
}

TEST(DamerauTest, SymmetricOnRandomInputs) {
  Rng rng(10);
  for (int i = 0; i < 300; ++i) {
    std::string a, b;
    for (size_t j = rng.Index(9); j > 0; --j) {
      a.push_back(static_cast<char>('a' + rng.Index(5)));
    }
    for (size_t j = rng.Index(9); j > 0; --j) {
      b.push_back(static_cast<char>('a' + rng.Index(5)));
    }
    EXPECT_EQ(DamerauLevenshteinDistance(a, b),
              DamerauLevenshteinDistance(b, a));
  }
}

TEST(DamerauTest, SingleEditAlwaysDistanceOne) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    std::string a = "abcdefgh";
    std::string b = a;
    switch (rng.Index(3)) {
      case 0:
        b.erase(rng.Index(b.size()), 1);
        break;
      case 1:
        b.insert(rng.Index(b.size()), 1, 'z');
        break;
      default:
        b[rng.Index(b.size())] = 'z';
        break;
    }
    EXPECT_EQ(DamerauLevenshteinDistance(a, b), 1u);
  }
}

// --------------------------------------------------- normalized / threshold

TEST(NormalizedDlTest, RangeAndEndpoints) {
  EXPECT_DOUBLE_EQ(NormalizedDamerauLevenshtein("", ""), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedDamerauLevenshtein("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedDamerauLevenshtein("abc", "xyz"), 0.0);
  double v = NormalizedDamerauLevenshtein("Mark", "Marx");
  EXPECT_DOUBLE_EQ(v, 0.75);
}

// The paper's predicate: DL(v,v') <= (1 - θ)·max(|v|,|v'|), θ = 0.8.
TEST(DlSimilarTest, PaperThresholdSemantics) {
  // max len 8, allowance = 1.6 -> distance 1 passes, 2 fails.
  EXPECT_TRUE(DlSimilar("Clifford", "Cliffork", 0.8));
  EXPECT_FALSE(DlSimilar("Clifford", "Cliffxyz", 0.8));
}

TEST(DlSimilarTest, EqualityAlwaysSimilar) {
  EXPECT_TRUE(DlSimilar("", "", 0.8));
  EXPECT_TRUE(DlSimilar("x", "x", 1.0));  // even at θ = 1
}

TEST(DlSimilarTest, PaperExampleNames) {
  // "Mark" ≈d "Marx" at θ = 0.75: allowance 1.0, distance 1.
  EXPECT_TRUE(DlSimilar("Mark", "Marx", 0.75));
  // At θ = 0.8 the allowance is 0.8 < 1: not similar.
  EXPECT_FALSE(DlSimilar("Mark", "Marx", 0.8));
}

// Satellite regression: the length pre-check rejects without any DP when
// the length gap alone exceeds the allowance (1 - θ) · max(|a|, |b|), and
// must NOT reject when the gap exactly equals the allowance.
TEST(DlSimilarTest, LengthGapBoundaryBehavior) {
  // θ = 0.8, max length 10 => allowance 2.0 edits.
  // Gap exactly 2 (10 vs 8): the pre-check passes and pure-deletion pairs
  // are similar (distance == gap == allowance).
  EXPECT_TRUE(DlSimilar("abcdefghij", "abcdefgh", 0.8));
  // Gap 3 (10 vs 7) > 2.0: rejected on lengths alone.
  EXPECT_FALSE(DlSimilar("abcdefghij", "abcdefg", 0.8));
  // Same boundary from the other side's length.
  EXPECT_TRUE(DlSimilar("abcdefgh", "abcdefghij", 0.8));
  EXPECT_FALSE(DlSimilar("abcdefg", "abcdefghij", 0.8));
  // θ = 0.8, max length 5 => allowance exactly 1.0: one edit passes, a
  // 2-edit pair with gap 1 passes the pre-check but fails the DP.
  EXPECT_TRUE(DlSimilar("abcde", "abcd", 0.8));
  EXPECT_FALSE(DlSimilar("abcde", "abcz", 0.8));
  // Zero edit budget (θ = 1): only equal strings are similar; unequal
  // strings of equal length exit before any DP.
  EXPECT_TRUE(DlSimilar("abc", "abc", 1.0));
  EXPECT_FALSE(DlSimilar("abc", "abd", 1.0));
  // Empty vs non-empty: gap == length, allowance scales with the longer.
  EXPECT_FALSE(DlSimilar("", "abcde", 0.8));
  EXPECT_TRUE(DlSimilar("", "", 0.8));
}

TEST(DlSimilarTest, SymmetricPredicate) {
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    std::string a, b;
    for (size_t j = rng.Index(8); j > 0; --j) a.push_back(rng.Letter());
    for (size_t j = rng.Index(8); j > 0; --j) b.push_back(rng.Letter());
    EXPECT_EQ(DlSimilar(a, b, 0.8), DlSimilar(b, a, 0.8));
  }
}

// ------------------------------------------------- EditDistanceLowerBound

// The signature bound of (a, b) is at most both exact distances.
void ExpectBoundHolds(const std::string& a, const std::string& b) {
  const size_t bound =
      EditDistanceLowerBound(MakeEditSignature(a), MakeEditSignature(b));
  EXPECT_LE(bound, DamerauLevenshteinDistance(a, b))
      << "'" << a << "' vs '" << b << "'";
  EXPECT_LE(bound, LevenshteinDistance(a, b))
      << "'" << a << "' vs '" << b << "'";
}

std::string RandomOver(Rng& rng, std::string_view alphabet, size_t max_len) {
  std::string out;
  for (size_t j = rng.Index(max_len + 1); j > 0; --j) {
    out.push_back(alphabet[rng.Index(alphabet.size())]);
  }
  return out;
}

TEST(EditLowerBoundTest, KnownValues) {
  auto bound = [](std::string_view a, std::string_view b) {
    return EditDistanceLowerBound(MakeEditSignature(a), MakeEditSignature(b));
  };
  EXPECT_EQ(bound("", ""), 0u);
  EXPECT_EQ(bound("abc", "abc"), 0u);
  EXPECT_EQ(bound("abc", "bca"), 0u);     // same counts, same presence
  EXPECT_EQ(bound("", "abc"), 3u);        // the length gap
  EXPECT_EQ(bound("12345", "67890"), 5u);  // disjoint counts: exact
  EXPECT_EQ(bound("5550101", "5550110"), 0u);  // a transposition is free
  // Count class 1 holds '1', 'A', 'Q' and 'a': the counts agree, but the
  // four presence bits differ, so two edits are still proven.
  EXPECT_EQ(bound("1A", "Qa"), 2u);
}

TEST(EditLowerBoundTest, BoundsBothDistancesOnSmallAlphabets) {
  Rng rng(2009);
  for (std::string_view alphabet : {"ab", "abc", "abcd"}) {
    for (int trial = 0; trial < 400; ++trial) {
      ExpectBoundHolds(RandomOver(rng, alphabet, 12),
                       RandomOver(rng, alphabet, 12));
    }
  }
}

TEST(EditLowerBoundTest, BoundsBothDistancesWhenCharactersShareAClass) {
  const EditSignature sig = MakeEditSignature("1AQa");
  EXPECT_EQ(sig.counts[1], 4);
  EXPECT_EQ(std::popcount(sig.presence), 4);
  Rng rng(1515);
  for (int trial = 0; trial < 800; ++trial) {
    ExpectBoundHolds(RandomOver(rng, "1AQa", 10), RandomOver(rng, "1AQa", 10));
    ExpectBoundHolds(RandomOver(rng, "1AQa2BRb", 10),
                     RandomOver(rng, "1AQa", 10));
  }
}

TEST(EditLowerBoundTest, BoundsBothDistancesOnHighBytesAndEmptyStrings) {
  // Bytes >= 0x80 fold onto the same classes as their low-half twins.
  const std::string high = {'\x80', '\xC1', '\xE9', '\xFF', 'A', 'i', '?'};
  Rng rng(4096);
  for (int trial = 0; trial < 800; ++trial) {
    ExpectBoundHolds(RandomOver(rng, high, 8), RandomOver(rng, high, 8));
    ExpectBoundHolds("", RandomOver(rng, high, 8));
    ExpectBoundHolds(RandomOver(rng, high, 8), "");
  }
  ExpectBoundHolds("", "");
}

TEST(EditLowerBoundTest, BoundsBothDistancesWhenCountsSaturate) {
  const EditSignature sig = MakeEditSignature(std::string(300, 'x'));
  EXPECT_EQ(sig.counts['x' & 15], 255);
  EXPECT_EQ(sig.length, 300u);
  // 250 against a saturated 255: the length gap still proves 10 edits.
  EXPECT_EQ(EditDistanceLowerBound(MakeEditSignature(std::string(250, 'x')),
                                   MakeEditSignature(std::string(260, 'x'))),
            10u);
  // Runs on both sides of the saturation point; 'x' and 'h' share a count
  // class but not a presence bit.
  Rng rng(255);
  for (int trial = 0; trial < 40; ++trial) {
    std::string a(230 + rng.Index(60), 'x');
    std::string b(230 + rng.Index(60), rng.Index(2) == 0 ? 'x' : 'h');
    a.insert(rng.Index(a.size() + 1), RandomOver(rng, "xhab", 6));
    b.insert(rng.Index(b.size() + 1), RandomOver(rng, "xhab", 6));
    ExpectBoundHolds(a, b);
  }
}

// Parameterized sweep: distances against a brute-force reference on short
// strings over a tiny alphabet.
class EditDistanceSweep : public testing::TestWithParam<uint64_t> {};

TEST_P(EditDistanceSweep, LevenshteinUpperBoundsAndConsistency) {
  Rng rng(GetParam());
  std::string a, b;
  for (size_t j = rng.Index(7); j > 0; --j) {
    a.push_back(static_cast<char>('a' + rng.Index(3)));
  }
  for (size_t j = rng.Index(7); j > 0; --j) {
    b.push_back(static_cast<char>('a' + rng.Index(3)));
  }
  size_t lev = LevenshteinDistance(a, b);
  size_t osa = OsaDistance(a, b);
  size_t dl = DamerauLevenshteinDistance(a, b);
  // Chain of refinements: DL <= OSA <= Lev <= max(|a|,|b|).
  EXPECT_LE(dl, osa);
  EXPECT_LE(osa, lev);
  EXPECT_LE(lev, std::max(a.size(), b.size()));
  // All are zero iff the strings are equal.
  EXPECT_EQ(lev == 0, a == b);
  EXPECT_EQ(dl == 0, a == b);
  // Distances differ by at least the length gap.
  size_t gap = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  EXPECT_GE(dl, gap);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, EditDistanceSweep,
                         testing::Range(uint64_t{100}, uint64_t{140}));

}  // namespace
}  // namespace mdmatch::sim
