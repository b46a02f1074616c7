#include "candidate/snapshot.h"

#include <cassert>
#include <utility>

namespace mdmatch::candidate {

IndexSnapshotPtr IndexSnapshot::Empty(size_t passes, bool blocking) {
  // mdmatch-lint: allow(naked-new) private ctor (factory-only
  // construction): make_shared cannot reach it.
  auto snapshot = std::shared_ptr<IndexSnapshot>(new IndexSnapshot());
  snapshot->window_.resize(passes);
  if (blocking) snapshot->block_ = std::make_unique<BlockIndex>();
  return snapshot;
}

IndexSnapshotPtr IndexSnapshot::Advance(
    IndexSnapshotPtr base,
    const std::vector<std::vector<IndexedEntry>>& pass_removes,
    std::vector<std::vector<IndexedEntry>> pass_inserts,
    const std::vector<IndexedEntry>& block_removes,
    const std::vector<IndexedEntry>& block_inserts) {
  assert(base != nullptr && "Advance requires a base snapshot");
  assert(pass_removes.size() == base->window_.size() &&
         pass_inserts.size() == base->window_.size() &&
         "delta pass count must match the snapshot");

  // Recycle the base object when the caller moved in the only reference:
  // nobody can observe it, so mutating in place is safe and skips the
  // block-index clone. Every IndexSnapshot is created non-const (Empty /
  // here), so the const_cast does not touch a const object.
  std::shared_ptr<IndexSnapshot> next;
  if (base.use_count() == 1) {
    // mdmatch-lint: allow(const-escape) sole-owner recycle; see above.
    next = std::const_pointer_cast<IndexSnapshot>(std::move(base));
  } else {
    // mdmatch-lint: allow(naked-new) private ctor; see Empty().
    next = std::shared_ptr<IndexSnapshot>(new IndexSnapshot());
    next->window_ = base->window_;  // O(passes): treap roots are shared
    if (base->block_ != nullptr) {
      // O(1): the persistent block index shares all nodes with the frozen
      // base; mutations below path-copy only what the delta touches.
      next->block_ = std::make_unique<BlockIndex>(*base->block_);
    }
    base.reset();
  }

  for (size_t p = 0; p < next->window_.size(); ++p) {
    next->window_[p].Apply(pass_removes[p], std::move(pass_inserts[p]));
  }
  if (next->block_ != nullptr) {
    for (const IndexedEntry& e : block_removes) {
      next->block_->Remove(e.side, e.seq, e.key);
    }
    for (const IndexedEntry& e : block_inserts) {
      next->block_->Add(e.side, e.seq, e.key);
    }
  }
  return next;
}

}  // namespace mdmatch::candidate
