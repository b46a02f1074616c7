#ifndef MDMATCH_CANDIDATE_SNAPSHOT_H_
#define MDMATCH_CANDIDATE_SNAPSHOT_H_

#include <memory>
#include <vector>

#include "candidate/block_index.h"
#include "candidate/indexed_entry.h"
#include "candidate/sorted_index.h"

namespace mdmatch::candidate {

class IndexSnapshot;
/// The form a snapshot is shared in: deeply immutable, reference-counted.
/// Concurrent queries and other sessions (through an
/// IndexCatalog) all read through one of these while the owning session
/// keeps advancing — an advance never mutates a snapshot someone else can
/// still see.
using IndexSnapshotPtr = std::shared_ptr<const IndexSnapshot>;

/// \brief One immutable version of a corpus's candidate-generation
/// indexes: the per-pass sorted windowing indexes, or the blocking index.
///
/// Versions form a chain (or, when sessions diverge, a tree): each
/// Advance applies one flush's delta and yields the next snapshot. Both
/// index kinds are persistent — windowing indexes are order-statistic
/// treaps, the blocking index a per-block key treap — so an advance costs
/// O(delta · log n) and shares all untouched nodes (and untouched blocks)
/// with its parent, regardless of how many frozen versions are still
/// alive. A parent nobody else references is recycled in place.
class IndexSnapshot {
 public:
  /// The starting snapshot: empty indexes, `passes` windowing passes
  /// (0 for blocking plans).
  static IndexSnapshotPtr Empty(size_t passes, bool blocking);

  /// Applies one delta to `base` and returns the resulting snapshot.
  /// `base` is passed by value on purpose: a
  /// caller that moves in its only reference lets Advance recycle the
  /// object in place; otherwise the result is a fresh snapshot — an O(1)
  /// structural copy of the persistent indexes — and `base` survives
  /// untouched for its remaining holders (api::MatchSession publishes
  /// every flushed snapshot inside a SessionGeneration, so its advances
  /// always take this path).
  ///
  /// `pass_removes` / `pass_inserts` are per windowing pass (must match
  /// the snapshot's pass count); `block_removes` / `block_inserts` feed
  /// the blocking index. A windowing snapshot ignores the block lists and
  /// vice versa.
  static IndexSnapshotPtr Advance(
      IndexSnapshotPtr base,
      const std::vector<std::vector<IndexedEntry>>& pass_removes,
      std::vector<std::vector<IndexedEntry>> pass_inserts,
      const std::vector<IndexedEntry>& block_removes,
      const std::vector<IndexedEntry>& block_inserts);

  /// The windowing indexes, one per pass (empty for blocking snapshots).
  const std::vector<SortedKeyIndex>& window_passes() const {
    return window_;
  }

  /// The blocking index, or nullptr for windowing snapshots. Deeply
  /// const: no mutable path into the index or its blocks is reachable
  /// from a snapshot.
  const BlockIndex* block() const { return block_.get(); }

 private:
  IndexSnapshot() = default;

  std::vector<SortedKeyIndex> window_;
  /// Owned per snapshot; copying the pointee is O(1) (persistent treap),
  /// so a non-recycled Advance copies instead of sharing a mutable index.
  std::unique_ptr<BlockIndex> block_;
};

}  // namespace mdmatch::candidate

#endif  // MDMATCH_CANDIDATE_SNAPSHOT_H_
