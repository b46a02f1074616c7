#ifndef MDMATCH_CANDIDATE_WINDOWING_H_
#define MDMATCH_CANDIDATE_WINDOWING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "match/key_function.h"
#include "match/match_result.h"
#include "schema/instance.h"

namespace mdmatch::candidate {

/// \brief The sort-key columns of one batch: every pass's keys rendered
/// in a single scan over the tuples (cache-friendly; each tuple is
/// visited once, not once per pass). Combined index i covers the left
/// tuples in position order followed by the right tuples — the layout the
/// windowing sort order is defined on.
struct RenderedKeys {
  size_t left_size = 0;
  size_t total = 0;
  /// keys[pass][i] = rendered key of combined index i under pass `pass`.
  std::vector<std::vector<std::string>> keys;
};

RenderedKeys RenderPassKeys(const Instance& instance,
                            const std::vector<match::KeyFunction>& passes);

/// \brief A stable sort of [0, keys.size()) by key: the permutation whose
/// i-th element is the combined index of the i-th entry in windowing
/// order (ties keep index order — exactly what stable_sort over the
/// combined layout produced).
///
/// Implemented as an MSD byte radix sort over the rendered keys with a
/// comparison fallback on small buckets: one permutation array of u32 is
/// moved around instead of full (string, side, index) entry structs, and
/// most of the work is counting passes over bytes rather than string
/// comparisons.
std::vector<uint32_t> SortedKeyPermutation(
    const std::vector<std::string>& keys);

/// \brief Windowing (the sorted-neighborhood candidate generator of [20],
/// paper Section 1 "Applications"): merge the tuples of both relations,
/// sort by the key, slide a window of `window_size` tuples and emit every
/// cross-relation pair inside a window.
///
/// Each cross pair is emitted once, in window order (by first position,
/// then second); PC/RR are computed by EvaluateCandidates.
match::CandidateSet WindowCandidates(const Instance& instance,
                                     const match::KeyFunction& key,
                                     size_t window_size);

/// Multi-pass variant: union of the candidates of each pass (the paper
/// repeats blocking/windowing "multiple times, each using a different
/// key"). Keys are rendered once (RenderPassKeys) and each pass sorts one
/// permutation array — the single-sort front-end.
///
/// Each pair is emitted once, by the first pass whose window covers it:
/// a later pass skips a pair whose records sit less than `window_size`
/// apart in an earlier pass's order, which two reads of that pass's
/// inverse permutation tell. No hash set is built, and the pairs and
/// their order are those a first-insertion dedup over the passes keeps.
match::CandidateSet WindowCandidatesMultiPass(
    const Instance& instance, const std::vector<match::KeyFunction>& keys,
    size_t window_size);

}  // namespace mdmatch::candidate

#endif  // MDMATCH_CANDIDATE_WINDOWING_H_
