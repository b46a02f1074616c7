#include "match/match_result.h"

namespace mdmatch::match {

bool PairSet::Add(uint32_t left_index, uint32_t right_index) {
  auto [it, inserted] = index_.insert(Key(left_index, right_index));
  (void)it;
  if (inserted) pairs_.emplace_back(left_index, right_index);
  return inserted;
}

bool PairSet::Contains(uint32_t left_index, uint32_t right_index) const {
  return index_.count(Key(left_index, right_index)) > 0;
}

void PairSet::Merge(const PairSet& other) {
  for (const auto& [l, r] : other.pairs()) Add(l, r);
}

}  // namespace mdmatch::match
