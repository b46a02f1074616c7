#include "candidate/block_index.h"

#include <algorithm>
#include <utility>

#include "util/fnv.h"

namespace mdmatch::candidate {

namespace {

/// Deterministic treap priority: FNV-1a over the key bytes through a
/// splitmix64 finalizer, so the tree shape is a pure function of the key
/// set. Keys are unique within the tree, so no tie-breaking is needed.
uint64_t KeyPriority(const std::string& key) {
  return Mix64(FnvMixString(kFnvOffsetBasis, key));
}

}  // namespace

std::shared_ptr<BlockIndex::Node> BlockIndex::Own(const NodePtr& n) {
  return std::make_shared<Node>(*n);
}

const BlockIndex::Node* BlockIndex::FindNode(const std::string& key) const {
  const Node* n = root_.get();
  while (n != nullptr) {
    if (key < n->key) {
      n = n->left.get();
    } else if (n->key < key) {
      n = n->right.get();
    } else {
      return n;
    }
  }
  return nullptr;
}

const BlockIndex::Block* BlockIndex::Find(const std::string& key) const {
  const Node* n = FindNode(key);
  return n == nullptr ? nullptr : n->block.get();
}

void BlockIndex::SplitKey(const NodePtr& t, const std::string& key,
                          NodePtr* less, NodePtr* greater) {
  if (t == nullptr) {
    *less = nullptr;
    *greater = nullptr;
    return;
  }
  std::shared_ptr<Node> n = Own(t);
  if (n->key < key) {
    NodePtr right_less;
    SplitKey(n->right, key, &right_less, greater);
    n->right = std::move(right_less);
    *less = std::move(n);
  } else {
    NodePtr left_greater;
    SplitKey(n->left, key, less, &left_greater);
    n->left = std::move(left_greater);
    *greater = std::move(n);
  }
}

BlockIndex::NodePtr BlockIndex::JoinNodes(NodePtr a, NodePtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (a->priority > b->priority) {
    std::shared_ptr<Node> n = Own(a);
    n->right = JoinNodes(n->right, std::move(b));
    return n;
  }
  std::shared_ptr<Node> n = Own(b);
  n->left = JoinNodes(std::move(a), n->left);
  return n;
}

BlockIndex::NodePtr BlockIndex::UpsertRec(const NodePtr& t,
                                          const std::string& key,
                                          uint64_t priority, uint8_t side,
                                          uint32_t id) {
  if (t == nullptr || priority > t->priority) {
    // Heap order puts every node below `t` at priority <= t->priority <
    // priority, and the key's node would carry exactly `priority` — so
    // the key is absent here and the new node splices in. (An equal
    // priority — the key's own node or a hash-colliding key — falls
    // through to the key descent.)
    auto node = std::make_shared<Node>();
    node->key = key;
    node->priority = priority;
    auto block = std::make_shared<Block>();
    (side == 0 ? block->left : block->right).push_back(id);
    node->block = std::move(block);
    SplitKey(t, key, &node->left, &node->right);
    return node;
  }
  std::shared_ptr<Node> n = Own(t);
  if (key < n->key) {
    n->left = UpsertRec(n->left, key, priority, side, id);
  } else if (n->key < key) {
    n->right = UpsertRec(n->right, key, priority, side, id);
  } else {
    // The block stays reachable from `t` (held by the pre-mutation
    // version): clone it.
    auto block = std::make_shared<Block>(*n->block);
    (side == 0 ? block->left : block->right).push_back(id);
    n->block = std::move(block);
  }
  return n;
}

BlockIndex::NodePtr BlockIndex::RemoveRec(const NodePtr& t,
                                          const std::string& key,
                                          uint8_t side, uint32_t id,
                                          bool* removed) {
  if (t == nullptr) return t;
  if (key < t->key || t->key < key) {
    const bool go_left = key < t->key;
    NodePtr child =
        RemoveRec(go_left ? t->left : t->right, key, side, id, removed);
    if (!*removed) return t;  // untouched: no path copy for a failed remove
    std::shared_ptr<Node> n = Own(t);
    (go_left ? n->left : n->right) = std::move(child);
    return n;
  }
  const std::vector<uint32_t>& ids =
      side == 0 ? t->block->left : t->block->right;
  if (std::find(ids.begin(), ids.end(), id) == ids.end()) return t;
  *removed = true;
  if (t->block->left.size() + t->block->right.size() == 1) {
    return JoinNodes(t->left, t->right);
  }
  std::shared_ptr<Node> n = Own(t);
  auto block = std::make_shared<Block>(*n->block);
  std::vector<uint32_t>& mutable_ids =
      side == 0 ? block->left : block->right;
  mutable_ids.erase(std::find(mutable_ids.begin(), mutable_ids.end(), id));
  n->block = std::move(block);
  return n;
}

void BlockIndex::Add(uint8_t side, uint32_t id, const std::string& key) {
  root_ = UpsertRec(root_, key, KeyPriority(key), side, id);
}

bool BlockIndex::Remove(uint8_t side, uint32_t id, const std::string& key) {
  bool removed = false;
  NodePtr next = RemoveRec(root_, key, side, id, &removed);
  if (!removed) return false;
  root_ = std::move(next);
  return true;
}

void BlockIndex::ForEachBlock(
    const std::function<void(const std::string& key, const Block& block)>&
        visit) const {
  // Iterative in-order walk (expected depth is O(log #blocks), but the
  // explicit stack keeps worst-case inputs off the call stack).
  std::vector<const Node*> stack;
  const Node* cur = root_.get();
  while (cur != nullptr || !stack.empty()) {
    while (cur != nullptr) {
      stack.push_back(cur);
      cur = cur->left.get();
    }
    cur = stack.back();
    stack.pop_back();
    visit(cur->key, *cur->block);
    cur = cur->right.get();
  }
}

}  // namespace mdmatch::candidate
