#ifndef MDMATCH_MATCH_BLOCKING_H_
#define MDMATCH_MATCH_BLOCKING_H_

#include <cstddef>

#include "match/key_function.h"
#include "match/match_result.h"
#include "schema/instance.h"

namespace mdmatch::match {

/// \brief Blocking (paper Section 1 "Applications" and Exp-4): partition
/// both relations by the blocking key and emit every cross-relation pair
/// within a block. Pairs come in block-key order, then left position,
/// then right position.
CandidateSet BlockCandidates(const Instance& instance, const KeyFunction& key);

/// Block-size statistics (useful for diagnosing skewed keys).
struct BlockingStats {
  size_t num_blocks = 0;
  size_t largest_block = 0;   ///< tuples (both sides) in the largest block
  double avg_block = 0;
};
BlockingStats AnalyzeBlocks(const Instance& instance, const KeyFunction& key);

}  // namespace mdmatch::match

#endif  // MDMATCH_MATCH_BLOCKING_H_
