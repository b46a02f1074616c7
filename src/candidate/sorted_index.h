#ifndef MDMATCH_CANDIDATE_SORTED_INDEX_H_
#define MDMATCH_CANDIDATE_SORTED_INDEX_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "candidate/indexed_entry.h"

namespace mdmatch::candidate {

/// \brief A persistent order-statistic index over one windowing sort key.
///
/// Implemented as an immutable treap with subtree counts: ranked insert /
/// remove and rank queries are O(log n) expected, and every mutation
/// path-copies, so *copying a SortedKeyIndex is O(1)* — the copy is a
/// frozen snapshot that structurally shares all untouched nodes with the
/// evolving original. api::MatchSession keeps one per windowing pass: a
/// flush merges a delta in O(delta · log n) instead of the O(corpus)
/// rebuild a flat sorted vector costs, and readers (queries, other
/// sessions via candidate::IndexCatalog) scan an earlier snapshot without
/// locks while the owner keeps inserting.
///
/// Treap priorities are deterministic hashes of (key, side, seq), so the
/// tree shape — and therefore every traversal — is a pure function of the
/// contents. Entries are heap-allocated once on insert and shared by all
/// versions that contain them: pointers returned by Span stay valid as
/// long as any snapshot containing the entry is alive.
class SortedKeyIndex {
 public:
  SortedKeyIndex() = default;

  /// Copying is the snapshot operation: O(1), both sides keep the same
  /// nodes. It also flips both indexes into persistent (path-copying)
  /// mutation mode for good — an index that was *never* copied owns every
  /// node uniquely and mutates destructively instead, with no path copies
  /// at all (the unshared fast path a lone MatchSession runs on).
  SortedKeyIndex(const SortedKeyIndex& other);
  SortedKeyIndex& operator=(const SortedKeyIndex& other);
  SortedKeyIndex(SortedKeyIndex&& other) noexcept;
  SortedKeyIndex& operator=(SortedKeyIndex&& other) noexcept;

  /// Inserts one entry, O(log n) expected. An entry equal to a present
  /// one lands immediately after it (the stable position a duplicate
  /// would get from a stable sort).
  void Insert(IndexedEntry entry);

  /// Removes the entry matched exactly by key/side/seq; returns false
  /// when it was not present. O(log n) expected.
  bool Remove(const IndexedEntry& entry);

  /// Applies one batch of mutations: every entry of `removes` (matched
  /// exactly) leaves the index, every entry of `inserts` enters it.
  /// Either list may be empty; entries never present are ignored.
  /// Inserts are bulk-merged — the batch becomes a treap in O(m) (a
  /// Cartesian-tree build over the sorted batch) and is unioned in, for
  /// O(m · log(n/m)) expected instead of m separate root-to-leaf
  /// insertions.
  void Apply(const std::vector<IndexedEntry>& removes,
             std::vector<IndexedEntry> inserts);

  size_t size() const { return Count(root_.get()); }
  bool empty() const { return root_ == nullptr; }

  /// Rank query: the number of entries ordered strictly before `e` —
  /// the position of `e` when present, otherwise the position it would
  /// occupy (the gap a removed entry left behind). O(log n) expected.
  size_t LowerBound(const IndexedEntry& e) const;

  /// The entry at rank `pos` (0-based). O(log n) expected; scans over a
  /// rank range should use Span instead.
  const IndexedEntry& at(size_t pos) const;

  /// The entries of ranks [lo, min(hi, size())) in order, as stable
  /// pointers. O(log n + length) expected — the treap walk is amortized
  /// O(1) per step.
  std::vector<const IndexedEntry*> Span(size_t lo, size_t hi) const;

  /// Span into a caller-owned buffer (cleared first): the allocation-free
  /// variant for hot scan loops that walk many small windows.
  void SpanInto(size_t lo, size_t hi,
                std::vector<const IndexedEntry*>* out) const;

  /// All entries in order (test / debug helper). O(n).
  std::vector<IndexedEntry> Entries() const;

 private:
  using EntryPtr = std::shared_ptr<const IndexedEntry>;
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;
  struct Node {
    EntryPtr entry;
    uint64_t priority = 0;  ///< deterministic hash of the entry
    size_t count = 1;       ///< subtree size (this node included)
    NodePtr left;
    NodePtr right;
  };

  static size_t Count(const Node* n) { return n == nullptr ? 0 : n->count; }
  static NodePtr MakeNode(EntryPtr entry, uint64_t priority, NodePtr left,
                          NodePtr right);
  /// `n` with different children (path-copy step: the entry is shared).
  static NodePtr WithChildren(const Node& n, NodePtr left, NodePtr right);
  /// Splits into (entries < e, entries >= e).
  static void Split(const NodePtr& t, const IndexedEntry& e, NodePtr* less,
                    NodePtr* rest);
  /// Joins two treaps where every entry of `a` precedes every entry of
  /// `b`.
  static NodePtr Join(NodePtr a, NodePtr b);
  static NodePtr InsertNode(const NodePtr& t, EntryPtr entry,
                            uint64_t priority);
  static NodePtr RemoveNode(const NodePtr& t, const IndexedEntry& e,
                            bool* removed);
  /// Union of the (possibly shared) index with a freshly built (uniquely
  /// owned, mutable) batch treap: O(m · log(n/m)) expected, path-copying
  /// only nodes of the shared side — batch nodes are spliced in place and
  /// batch splits mutate destructively, so the allocation count tracks
  /// the split boundaries, not the batch size.
  static NodePtr UnionFresh(NodePtr shared, std::shared_ptr<Node> fresh);
  /// Destructive split of a uniquely owned treap into (< e, >= e).
  static void SplitFresh(std::shared_ptr<Node> t, const IndexedEntry& e,
                         std::shared_ptr<Node>* less,
                         std::shared_ptr<Node>* rest);
  /// Builds a treap from entries already in key order, O(m) (Cartesian
  /// tree over the deterministic priorities).
  static std::shared_ptr<Node> BuildFromSorted(
      std::vector<IndexedEntry> sorted);
  // Destructive counterparts for the unshared fast path: every node is
  // uniquely owned, so mutation needs no copies at all.
  static std::shared_ptr<Node> Mutable(NodePtr t) {
    // mdmatch-lint: allow(const-escape) the one sanctioned escape hatch:
    // callers hold the unshared fast path's uniqueness proof.
    return std::const_pointer_cast<Node>(std::move(t));
  }
  static std::shared_ptr<Node> JoinMut(std::shared_ptr<Node> a,
                                       std::shared_ptr<Node> b);
  static std::shared_ptr<Node> UnionMut(std::shared_ptr<Node> a,
                                        std::shared_ptr<Node> b);
  static std::shared_ptr<Node> InsertMut(std::shared_ptr<Node> t,
                                         std::shared_ptr<Node> node);
  static std::shared_ptr<Node> RemoveMut(std::shared_ptr<Node> t,
                                         const IndexedEntry& e,
                                         bool* removed);

  NodePtr root_;
  /// True once any copy of this index was ever taken: nodes may be
  /// reachable from that copy, so mutations must path-copy from then on.
  /// `mutable` because taking a snapshot of a const index still commits
  /// the source to persistent mode; atomic because two readers may
  /// snapshot one index concurrently (relaxed is enough — the flag only
  /// ever goes false -> true, and mutations are externally serialized
  /// with snapshotting by the owner's lock).
  mutable std::atomic<bool> shared_{false};
};

}  // namespace mdmatch::candidate

#endif  // MDMATCH_CANDIDATE_SORTED_INDEX_H_
