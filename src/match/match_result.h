#ifndef MDMATCH_MATCH_MATCH_RESULT_H_
#define MDMATCH_MATCH_MATCH_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

namespace mdmatch::match {

/// The canonical packing of a cross-relation pair into one 64-bit key —
/// shared by PairSet's hash index and PersistentPairSet's trie keys, so
/// both structures agree on identity (and on key order).
inline constexpr uint64_t PairKey(uint32_t left_index, uint32_t right_index) {
  return (static_cast<uint64_t>(left_index) << 32) | right_index;
}

/// \brief A deduplicated set of cross-relation tuple pairs, addressed by
/// tuple *positions* (index into instance.left() / instance.right()).
///
/// Used both for declared matches and for candidate pairs produced by
/// blocking / windowing (whose PC and RR metrics count distinct pairs).
class PairSet {
 public:
  /// Adds (left_index, right_index); returns true if newly inserted.
  bool Add(uint32_t left_index, uint32_t right_index);

  bool Contains(uint32_t left_index, uint32_t right_index) const;

  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  const std::vector<std::pair<uint32_t, uint32_t>>& pairs() const {
    return pairs_;
  }

  /// Inserts every pair of `other`.
  void Merge(const PairSet& other);

  /// Makes room for `n` pairs, so adding up to `n` never rehashes or
  /// reallocates.
  void Reserve(size_t n);

 private:
  static uint64_t Key(uint32_t l, uint32_t r) { return PairKey(l, r); }
  std::unordered_set<uint64_t> index_;
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
};

/// Matches declared by a matcher.
using MatchResult = PairSet;
/// Candidate pairs selected for comparison by blocking / windowing.
using CandidateSet = PairSet;

}  // namespace mdmatch::match

#endif  // MDMATCH_MATCH_MATCH_RESULT_H_
