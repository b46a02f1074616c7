#ifndef MDMATCH_CANDIDATE_WINDOWING_H_
#define MDMATCH_CANDIDATE_WINDOWING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "match/compiled_eval.h"
#include "match/key_function.h"
#include "match/match_result.h"
#include "schema/instance.h"
#include "util/arena.h"

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
/// The returned candidate set is deduplicated; PC/RR are computed by
/// EvaluateCandidates.
match::CandidateSet WindowCandidates(const Instance& instance,
                                     const match::KeyFunction& key,
                                     size_t window_size);

/// Multi-pass variant: union of the candidates of each pass (the paper
/// repeats blocking/windowing "multiple times, each using a different
/// key"). Keys are rendered once (RenderPassKeys) and each pass sorts one
/// permutation array — the single-sort front-end.
match::CandidateSet WindowCandidatesMultiPass(
    const Instance& instance, const std::vector<match::KeyFunction>& keys,
    size_t window_size);

/// \brief A candidate pair list regrouped into batch-evaluation units.
///
/// Lanes are the pairs renumbered into batch order: batch b covers lanes
/// [batch_first_lane[b], batch_first_lane[b] + batches[b].size), and
/// lane_pair[lane] is the pair's index in the original list — the map
/// callers use to scatter decisions back out. All arrays live in the
/// arena passed to BuildStrips.
struct PairStrips {
  const match::PairBatch* batches = nullptr;
  const uint32_t* batch_first_lane = nullptr;  ///< [num_batches]
  const uint32_t* lane_pair = nullptr;         ///< [lanes] original index
  size_t num_batches = 0;
  size_t lanes = 0;  ///< == pairs.size()
};

/// \brief Groups candidate pairs into strips for batched evaluation.
///
/// Pairs sharing a left row become one strip (PairBatch in strip form,
/// one left x many rights — the dominant shape windowing and blocking
/// emit); leftover singleton pairs concatenate into one mixed-pairs
/// batch. Pair order within a left group is preserved (stable), and
/// every pair appears in exactly one lane. Row values are the pair
/// elements verbatim; callers index BatchColumns with the same rows.
PairStrips BuildStrips(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    util::Arena* arena);

}  // namespace mdmatch::candidate

#endif  // MDMATCH_CANDIDATE_WINDOWING_H_
