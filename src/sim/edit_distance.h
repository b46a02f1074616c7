#ifndef MDMATCH_SIM_EDIT_DISTANCE_H_
#define MDMATCH_SIM_EDIT_DISTANCE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mdmatch::sim {

/// Classic Levenshtein distance: minimum number of single-character
/// insertions, deletions and substitutions transforming `a` into `b`.
/// Dispatches to the bit-parallel kernel when the shorter string fits a
/// machine word (<= 64 characters), the row DP otherwise.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// Bounded Levenshtein: returns the exact distance if it is <= `max_dist`,
/// otherwise returns `max_dist + 1`. Short-circuits on the length gap
/// (|len(a) - len(b)| > max_dist needs no DP at all), then runs Myers'
/// bit-parallel scan — O(max(|a|,|b|)) word ops with early abandon — when
/// the shorter string fits 64 characters, the O(max_dist * min(|a|,|b|))
/// banded DP otherwise.
size_t LevenshteinDistanceBounded(std::string_view a, std::string_view b,
                                  size_t max_dist);

/// Myers' bit-parallel Levenshtein (1999). Requires min(|a|,|b|) <= 64;
/// exact distance in O(max(|a|,|b|)) word operations. Exposed for tests
/// and benchmarks; normal callers go through LevenshteinDistance(Bounded),
/// which dispatch here automatically.
size_t MyersLevenshtein(std::string_view a, std::string_view b);

/// Optimal-string-alignment distance (the "restricted" Damerau-Levenshtein):
/// Levenshtein plus transposition of two adjacent characters, where no
/// substring is edited more than once.
size_t OsaDistance(std::string_view a, std::string_view b);

/// Full Damerau-Levenshtein distance (unrestricted; transpositions may be
/// interleaved with other edits). This is the "DL metric" of the paper's
/// Section 6 experimental setup [18].
size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b);

/// Bounded Damerau-Levenshtein: the exact distance if it is <= `max_dist`,
/// otherwise `max_dist + 1`. Banded Lowrance-Wagner over reused
/// thread-local scratch — O(max_dist * max(|a|,|b|)) cell work and no
/// per-call allocation, which is what makes the θ-DL similarity test
/// cheap enough for the per-pair hot path (budgets are tiny at θ = 0.8).
size_t DamerauLevenshteinDistanceBounded(std::string_view a,
                                         std::string_view b,
                                         size_t max_dist);

/// Normalized DL similarity in [0,1]: 1 - dist / max(|a|,|b|); both empty
/// strings have similarity 1.
double NormalizedDamerauLevenshtein(std::string_view a, std::string_view b);

/// The integral edit budget of the θ-DL test for strings whose longer
/// side has `longest` characters: floor((1 - theta) * longest + ε), the ε
/// absorbing binary-representation error (at θ = 0.8 and length 5 the
/// allowance must be exactly 1 edit, not 0.9999...). DlSimilar holds iff
/// the DL distance is <= this budget; exported so a caller holding only
/// the two lengths (the compiled evaluator, comparing EditSignatures)
/// rejects against the exact same number. Defined for every θ: 0 for
/// θ >= 1 and for NaN (no normalized similarity reaches them), `longest`
/// for θ <= 0 (every one does). So DlSimilar decides
/// a == b || NormalizedDamerauLevenshtein(a, b) >= θ at any θ.
size_t DlEditBudget(double theta, size_t longest);

/// \brief A 32-byte summary of one string from which
/// EditDistanceLowerBound bounds its edit distance to another string
/// without reading either.
///
/// Characters fold into classes: presence bit `c & 63`, count class
/// `c & 15` (so '1', 'A', 'Q' and 'a' share count class 1). Counts
/// saturate at 255. Folding and saturating only weaken the bound, never
/// break it.
struct EditSignature {
  size_t length = 0;
  uint64_t presence = 0;              ///< bit (c & 63) per character
  std::array<uint8_t, 16> counts{};  ///< saturating count of class c & 15
};

EditSignature MakeEditSignature(std::string_view s);

/// A lower bound on both LevenshteinDistance and
/// DamerauLevenshteinDistance of the two summarized strings: the largest
/// of the length gap, the class-count surplus and deficit (sum over
/// classes of how far one count vector exceeds the other), and
/// ceil(popcount(presence XOR) / 2). A substitution, insertion or deletion
/// moves the surplus and the deficit by at most 1 each and flips at most
/// two presence bits; a transposition moves none of them. Equal strings
/// have bound 0.
size_t EditDistanceLowerBound(const EditSignature& a, const EditSignature& b);

/// The paper's thresholded DL predicate: v ~theta v' iff
/// DL(v, v') <= (1 - theta) * max(|v|, |v'|). Section 6 fixes theta = 0.8.
bool DlSimilar(std::string_view a, std::string_view b, double theta);

}  // namespace mdmatch::sim

#endif  // MDMATCH_SIM_EDIT_DISTANCE_H_
