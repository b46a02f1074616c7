#ifndef MDMATCH_CANDIDATE_CATALOG_H_
#define MDMATCH_CANDIDATE_CATALOG_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "util/thread_annotations.h"

namespace mdmatch::candidate {

/// \brief A process-wide registry of shared match states, keyed by
/// (plan fingerprint, corpus id).
///
/// Sessions that stand on the same compiled plan and ingest the same
/// corpus (same corpus id, same delta stream) attach to one catalog
/// entry. The entry hosts a *match store*: published match states
/// (indexes + pairs + clusters + corpus maps) memoized by (base state
/// version, delta fingerprint). The first session to flush a given delta
/// builds the next state and publishes it; every other session *adopts*
/// it — the whole flush happens once per corpus instead of once per
/// session. Divergence is safe, not fatal: a session whose stream
/// differs simply misses the memo and builds privately (its versions
/// branch off; results are unaffected either way).
///
/// The state is type-erased (`shared_ptr<const void>`) because it is an
/// api-layer object (api::SharedMatchState) and the candidate layer sits
/// below api in the dependency DAG; the api layer owns the cast on both
/// ends.
///
/// Thread safety: the catalog map and each entry have their own mutex.
/// Match states are built *outside* any entry lock (the build is a whole
/// flush); the store serializes builders with a flag + condvar so a
/// racing session waits for the winner's publication and then adopts it
/// from the memo.
class IndexCatalog {
 public:
  /// What BeginMatchState granted: an already-published state to adopt
  /// (memo hit), or — when `adopted` is null — the builder role with a
  /// freshly assigned version for the state about to be built.
  struct MatchStateGrant {
    std::shared_ptr<const void> adopted;
    uint64_t build_version = 0;
  };

  /// One (plan fingerprint, corpus id) slot: the match store and the
  /// state-version counter shared by its sessions.
  class Entry {
   public:
    /// The match-store transition for (base_version, delta_fp). A memo
    /// hit returns the published state to adopt. Otherwise the caller
    /// becomes the builder (grant.adopted == nullptr) and MUST follow up
    /// with PublishMatchState for the same key once its flush completes —
    /// other sessions flushing the same transition block on the store's
    /// condvar until then. Distinct transitions still serialize on the
    /// builder flag (briefly: a woken waiter whose key is absent becomes
    /// the next builder), which is the cost of keeping version assignment
    /// race-free without building under a lock.
    MatchStateGrant BeginMatchState(uint64_t base_version, uint64_t delta_fp);

    /// Publishes the state a BeginMatchState builder grant promised and
    /// wakes every session waiting on the store.
    void PublishMatchState(uint64_t base_version, uint64_t delta_fp,
                           std::shared_ptr<const void> state);

    /// Distinct match states currently memoized (observability/tests).
    size_t match_memo_size() const;

   private:
    friend class IndexCatalog;
    /// Bounds memo memory: old transitions beyond this many are evicted
    /// FIFO — a straggler session then rebuilds them privately, which is
    /// correct, just unshared.
    static constexpr size_t kMemoCapacity = 16;

    mutable util::Mutex state_mu_;
    util::CondVar state_cv_;
    bool state_building_ GUARDED_BY(state_mu_) = false;
    /// Shared state-version counter. Starts above 0 because every session
    /// numbers its initial empty state 0.
    uint64_t next_state_version_ GUARDED_BY(state_mu_) = 1;
    std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<const void>>
        state_memo_ GUARDED_BY(state_mu_);
    std::deque<std::pair<uint64_t, uint64_t>> state_memo_order_
        GUARDED_BY(state_mu_);  // FIFO
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// The entry for (plan_fingerprint, corpus_id), created on first use.
  /// Entries live as long as the catalog. Memory note: the memo retains
  /// up to kMemoCapacity states; every published state is persistent, so
  /// each memoized transition shares all untouched structure with its
  /// base and costs O(delta · log n) memory.
  EntryPtr Acquire(uint64_t plan_fingerprint, const std::string& corpus_id);

  size_t num_entries() const;

 private:
  mutable util::Mutex mu_;
  std::map<std::pair<uint64_t, std::string>, EntryPtr> entries_
      GUARDED_BY(mu_);
};

}  // namespace mdmatch::candidate

#endif  // MDMATCH_CANDIDATE_CATALOG_H_
