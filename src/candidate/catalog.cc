#include "candidate/catalog.h"

#include <utility>

namespace mdmatch::candidate {

IndexCatalog::MatchStateGrant IndexCatalog::Entry::BeginMatchState(
    uint64_t base_version, uint64_t delta_fp) {
  util::MutexLock lock(state_mu_);
  const std::pair<uint64_t, uint64_t> key{base_version, delta_fp};
  for (;;) {
    if (auto found = state_memo_.find(key); found != state_memo_.end()) {
      return MatchStateGrant{found->second, 0};
    }
    if (!state_building_) {
      state_building_ = true;
      return MatchStateGrant{nullptr, next_state_version_++};
    }
    // Another session is mid-build (possibly of this very transition):
    // wait for its publication, then re-check the memo.
    state_cv_.Wait(state_mu_);
  }
}

void IndexCatalog::Entry::PublishMatchState(
    uint64_t base_version, uint64_t delta_fp,
    std::shared_ptr<const void> state) {
  util::MutexLock lock(state_mu_);
  const std::pair<uint64_t, uint64_t> key{base_version, delta_fp};
  state_memo_.emplace(key, std::move(state));
  state_memo_order_.push_back(key);
  if (state_memo_order_.size() > kMemoCapacity) {
    state_memo_.erase(state_memo_order_.front());
    state_memo_order_.pop_front();
  }
  state_building_ = false;
  state_cv_.NotifyAll();
}

size_t IndexCatalog::Entry::match_memo_size() const {
  util::MutexLock lock(state_mu_);
  return state_memo_.size();
}

IndexCatalog::EntryPtr IndexCatalog::Acquire(uint64_t plan_fingerprint,
                                             const std::string& corpus_id) {
  util::MutexLock lock(mu_);
  EntryPtr& entry = entries_[{plan_fingerprint, corpus_id}];
  if (entry == nullptr) entry = std::make_shared<Entry>();
  return entry;
}

size_t IndexCatalog::num_entries() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace mdmatch::candidate
