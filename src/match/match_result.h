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
/// Used for declared matches, which callers probe and merge. pairs()
/// keeps first-insertion order.
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

 private:
  static uint64_t Key(uint32_t l, uint32_t r) { return PairKey(l, r); }
  std::unordered_set<uint64_t> index_;
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
};

/// Matches declared by a matcher.
using MatchResult = PairSet;

/// \brief Candidate pairs selected for comparison by blocking / windowing,
/// in the order the matcher evaluates them.
///
/// An index-free list: its producers emit each pair once (windowing skips
/// a pair an earlier pass already covers, a pair lies in one block, the FS
/// training sample deduplicates its draws), so PC/RR count distinct pairs
/// without a hash set.
class CandidateSet {
 public:
  /// Appends (left_index, right_index), which the caller has not added
  /// before.
  void Add(uint32_t left_index, uint32_t right_index) {
    pairs_.emplace_back(left_index, right_index);
  }

  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  const std::vector<std::pair<uint32_t, uint32_t>>& pairs() const {
    return pairs_;
  }

 private:
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
};

}  // namespace mdmatch::match

#endif  // MDMATCH_MATCH_MATCH_RESULT_H_
