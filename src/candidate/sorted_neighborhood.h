#ifndef MDMATCH_CANDIDATE_SORTED_NEIGHBORHOOD_H_
#define MDMATCH_CANDIDATE_SORTED_NEIGHBORHOOD_H_

#include <vector>

#include "match/comparison.h"
#include "match/key_function.h"
#include "match/match_result.h"
#include "schema/instance.h"
#include "sim/sim_op.h"

namespace mdmatch::candidate {

/// Options of the sorted-neighborhood method [20] (paper Exp-3 fixes the
/// window size at 10).
struct SnOptions {
  size_t window_size = 10;
};

/// Result of a (multi-pass) SN run.
struct SnResult {
  match::MatchResult matches;      ///< pairs some rule declared a match
  match::CandidateSet candidates;  ///< all cross-relation pairs compared
  size_t comparisons = 0;  ///< rule evaluations: one per candidate pair
};

/// \brief The sorted-neighborhood method: for each pass, merge both
/// relations, sort by the pass's key, slide a window, and apply the
/// equational-theory rules to every cross-relation pair inside a window.
/// Matches accumulate over passes (the multi-pass strategy of [20]).
SnResult SortedNeighborhood(const Instance& instance,
                            const sim::SimOpRegistry& ops,
                            const std::vector<match::KeyFunction>& passes,
                            const std::vector<match::MatchRule>& rules,
                            const SnOptions& options = {});

/// Derives one sort key per rule/RCK from its first `max_elems` elements
/// (name-domain attributes Soundex-encoded), for use as SN passes — the
/// "(part of) RCKs suffice to serve as quality sorting keys" usage of the
/// paper.
std::vector<match::KeyFunction> SortKeysFromRules(
    const std::vector<match::MatchRule>& rules, const SchemaPair& pair,
    size_t max_passes, size_t max_elems = 3);

}  // namespace mdmatch::candidate

#endif  // MDMATCH_CANDIDATE_SORTED_NEIGHBORHOOD_H_
