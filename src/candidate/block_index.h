#ifndef MDMATCH_CANDIDATE_BLOCK_INDEX_H_
#define MDMATCH_CANDIDATE_BLOCK_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mdmatch::candidate {

/// \brief A persistent blocking index: records grouped by their rendered
/// blocking key.
///
/// Two records are blocking candidates iff their keys are equal — a
/// property of the pair alone, independent of every other record. That
/// makes blocking exactly incremental: adding or removing a record never
/// changes the candidacy of any other pair, which is why the
/// api::MatchSession keeps one BlockIndex alive across ingests instead of
/// re-blocking the corpus.
///
/// Like candidate::SortedKeyIndex, the index is persistent with per-block
/// structural sharing: internally a treap keyed by block key whose nodes
/// hold reference-counted Block payloads. *Copying a BlockIndex is O(1)*
/// — the copy is a frozen snapshot sharing every node — and every
/// mutation path-copies O(log #blocks) nodes and clones only the one
/// touched Block, so advancing a frozen snapshot costs
/// O(delta · (log n + block)) instead of the O(corpus) whole-map clone
/// the pre-persistent implementation paid.
///
/// Blocks reachable from a frozen copy are immutable — no method hands
/// out a mutable reference into a snapshot; iteration goes through the
/// const visitor ForEachBlock.
///
/// Records are opaque (side, id) handles: sessions use ingestion
/// sequence numbers.
class BlockIndex {
 public:
  struct Block {
    std::vector<uint32_t> left;   ///< side-0 record ids, insertion order
    std::vector<uint32_t> right;  ///< side-1 record ids, insertion order
  };

  /// Adds a record under its rendered key. O(log #blocks) expected.
  void Add(uint8_t side, uint32_t id, const std::string& key);

  /// Removes a record from its key's block (the key it was added under);
  /// returns false when it was not present. Empty blocks are dropped.
  /// O(log #blocks + block) expected.
  bool Remove(uint8_t side, uint32_t id, const std::string& key);

  /// The block of `key`, or nullptr when no record rendered it. The
  /// pointee is shared with snapshots and must not be mutated; it stays
  /// valid as long as any index version containing it is alive.
  const Block* Find(const std::string& key) const;

  /// Visits every block in key order.
  void ForEachBlock(
      const std::function<void(const std::string& key, const Block& block)>&
          visit) const;

 private:
  using BlockPtr = std::shared_ptr<const Block>;
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;
  struct Node {
    std::string key;
    uint64_t priority = 0;  ///< deterministic hash of the key
    BlockPtr block;
    NodePtr left;
    NodePtr right;
  };

  /// A copy of `n` (sharing its Block and children) that this index may
  /// mutate: the path-copy step.
  static std::shared_ptr<Node> Own(const NodePtr& n);

  const Node* FindNode(const std::string& key) const;
  /// Splits into (keys < key, keys > key); `key` must not be present.
  static void SplitKey(const NodePtr& t, const std::string& key,
                       NodePtr* less, NodePtr* greater);
  /// Joins two treaps where every key of `a` precedes every key of `b`.
  static NodePtr JoinNodes(NodePtr a, NodePtr b);
  /// Single-descent add: splices a fresh node where `priority` outranks
  /// the subtree (the key then cannot exist below it — priorities are a
  /// deterministic function of the key and heap-ordered), otherwise
  /// descends to the equal key and appends to a clone of its block.
  static NodePtr UpsertRec(const NodePtr& t, const std::string& key,
                           uint64_t priority, uint8_t side, uint32_t id);
  /// Single-descent removal: path-copies only when the id was actually
  /// found (sets *removed); a block that empties leaves the tree.
  static NodePtr RemoveRec(const NodePtr& t, const std::string& key,
                           uint8_t side, uint32_t id, bool* removed);

  NodePtr root_;
};

}  // namespace mdmatch::candidate

#endif  // MDMATCH_CANDIDATE_BLOCK_INDEX_H_
