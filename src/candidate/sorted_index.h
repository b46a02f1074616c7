#ifndef MDMATCH_CANDIDATE_SORTED_INDEX_H_
#define MDMATCH_CANDIDATE_SORTED_INDEX_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "candidate/indexed_entry.h"

namespace mdmatch::candidate {

/// \brief A persistent order-statistic index over one windowing sort key.
///
/// Implemented as an immutable treap with subtree counts: batch updates,
/// removals and rank queries are O(log n) expected per entry, and every
/// mutation path-copies, so *copying a SortedKeyIndex is O(1)* — the copy
/// is a frozen snapshot that structurally shares all untouched nodes with
/// the evolving original. api::MatchSession keeps one per windowing pass:
/// a flush merges a delta in O(delta · log n) instead of the O(corpus)
/// rebuild a flat sorted vector costs, and readers (queries, other
/// sessions via candidate::IndexCatalog) scan an earlier snapshot without
/// locks while the owner keeps advancing.
///
/// Treap priorities are deterministic hashes of (key, side, seq), so the
/// tree shape — and therefore every traversal — is a pure function of the
/// contents. Entries are heap-allocated once on insert and shared by all
/// versions that contain them: pointers returned by SpanInto stay valid
/// as long as any snapshot containing the entry is alive.
class SortedKeyIndex {
 public:
  /// Removes the entry matched exactly by key/side/seq; returns false
  /// when it was not present. O(log n) expected.
  bool Remove(const IndexedEntry& entry);

  /// Where one Apply batch sits in the order after it.
  struct BatchRanks {
    /// The ranks of the inserted entries, ascending.
    std::vector<size_t> inserted;
    /// Per removed entry, its LowerBound after the batch — the gap it
    /// left, or its own rank when the batch inserted it again — ascending.
    std::vector<size_t> gaps;
  };

  /// Applies one batch of mutations: every entry of `removes` (matched
  /// exactly) leaves the index, every entry of `inserts` enters it.
  /// Either list may be empty; entries never present are ignored.
  /// Inserted entries must differ from each other and from every entry
  /// left after the removals (a session's (side, seq) handles are
  /// unique); otherwise the reported ranks are unspecified.
  /// Inserts are bulk-merged — the batch becomes a treap in O(m) (a
  /// Cartesian-tree build over the sorted batch) and is unioned in, for
  /// O(m · log(n/m)) expected instead of m separate root-to-leaf
  /// insertions. The returned ranks come from one walk of the merged
  /// treap per list, O(m · log(n/m)) node visits instead of one
  /// LowerBound per entry; into an empty index they are 0..m-1, read off
  /// without a comparison.
  BatchRanks Apply(const std::vector<IndexedEntry>& removes,
                   std::vector<IndexedEntry> inserts);

  size_t size() const { return Count(root_.get()); }
  bool empty() const { return root_ == nullptr; }

  /// Rank query: the number of entries ordered strictly before `e` —
  /// the position of `e` when present, otherwise the position it would
  /// occupy (the gap a removed entry left behind). O(log n) expected.
  size_t LowerBound(const IndexedEntry& e) const;

  /// The entries of ranks [lo, min(hi, size())) in order, as stable
  /// pointers, into a caller-owned buffer (cleared first, so hot scan
  /// loops that walk many small windows reuse one allocation).
  /// O(log n + length) expected — the treap walk is amortized O(1) per
  /// step.
  void SpanInto(size_t lo, size_t hi,
                std::vector<const IndexedEntry*>* out) const;

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
  static NodePtr RemoveNode(const NodePtr& t, const IndexedEntry& e,
                            bool* removed);
  /// Union of the (shared) index with a freshly built (uniquely owned,
  /// mutable) batch treap: O(m · log(n/m)) expected, path-copying
  /// only nodes of the shared side — batch nodes are spliced in place and
  /// batch splits mutate destructively, so the allocation count tracks
  /// the split boundaries, not the batch size.
  static NodePtr UnionFresh(NodePtr shared, std::shared_ptr<Node> fresh);
  /// Destructive split of a uniquely owned treap into (< e, >= e).
  static void SplitFresh(std::shared_ptr<Node> t, const IndexedEntry& e,
                         std::shared_ptr<Node>* less,
                         std::shared_ptr<Node>* rest);
  /// Builds a treap from entries already in key order, O(m) (Cartesian
  /// tree over the deterministic priorities), and appends the stored
  /// entries to `placed` in that order.
  static std::shared_ptr<Node> BuildFromSorted(
      std::vector<IndexedEntry> sorted,
      std::vector<const IndexedEntry*>* placed);
  /// Writes base + LowerBound(*probe) within subtree `n` for each probe
  /// of the sorted [first, last) to out[0..]: one descent that splits
  /// the probes at each node it visits. `present` promises that every
  /// probe is a distinct entry of the subtree, so a subtree holding as
  /// many entries as probes is ranked without comparing.
  static void RankSorted(const Node* n, size_t base,
                         const IndexedEntry* const* first,
                         const IndexedEntry* const* last, bool present,
                         size_t* out);

  NodePtr root_;
};

}  // namespace mdmatch::candidate

#endif  // MDMATCH_CANDIDATE_SORTED_INDEX_H_
