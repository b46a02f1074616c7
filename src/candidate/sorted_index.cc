#include "candidate/sorted_index.h"

#include <algorithm>
#include <utility>

#include "candidate/radix.h"
#include "util/fnv.h"

namespace mdmatch::candidate {

namespace {

/// Deterministic treap priority: FNV-1a over the key bytes, then the
/// (side, seq) handle folded in through a splitmix64 finalizer. Hash
/// quality matters — the expected O(log n) bounds assume priorities act
/// like independent uniform draws.
uint64_t EntryPriority(const IndexedEntry& e) {
  const uint64_t hash = FnvMixString(kFnvOffsetBasis, e.key);
  return Mix64(hash ^ (static_cast<uint64_t>(e.side) << 32) ^ e.seq);
}

}  // namespace

SortedKeyIndex::NodePtr SortedKeyIndex::MakeNode(EntryPtr entry,
                                                 uint64_t priority,
                                                 NodePtr left, NodePtr right) {
  auto node = std::make_shared<Node>();
  node->entry = std::move(entry);
  node->priority = priority;
  node->left = std::move(left);
  node->right = std::move(right);
  node->count = 1 + Count(node->left.get()) + Count(node->right.get());
  return node;
}

SortedKeyIndex::NodePtr SortedKeyIndex::WithChildren(const Node& n,
                                                     NodePtr left,
                                                     NodePtr right) {
  return MakeNode(n.entry, n.priority, std::move(left), std::move(right));
}

void SortedKeyIndex::Split(const NodePtr& t, const IndexedEntry& e,
                           NodePtr* less, NodePtr* rest) {
  if (t == nullptr) {
    *less = nullptr;
    *rest = nullptr;
    return;
  }
  if (*t->entry < e) {
    NodePtr right_less;
    Split(t->right, e, &right_less, rest);
    *less = WithChildren(*t, t->left, std::move(right_less));
  } else {
    NodePtr left_rest;
    Split(t->left, e, less, &left_rest);
    *rest = WithChildren(*t, std::move(left_rest), t->right);
  }
}

SortedKeyIndex::NodePtr SortedKeyIndex::Join(NodePtr a, NodePtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (a->priority > b->priority) {
    return WithChildren(*a, a->left, Join(a->right, std::move(b)));
  }
  return WithChildren(*b, Join(std::move(a), b->left), b->right);
}

SortedKeyIndex::NodePtr SortedKeyIndex::RemoveNode(const NodePtr& t,
                                                   const IndexedEntry& e,
                                                   bool* removed) {
  if (t == nullptr) return nullptr;
  if (e < *t->entry) {
    NodePtr left = RemoveNode(t->left, e, removed);
    return *removed ? WithChildren(*t, std::move(left), t->right) : t;
  }
  if (*t->entry < e) {
    NodePtr right = RemoveNode(t->right, e, removed);
    return *removed ? WithChildren(*t, t->left, std::move(right)) : t;
  }
  *removed = true;
  return Join(t->left, t->right);
}

bool SortedKeyIndex::Remove(const IndexedEntry& entry) {
  bool removed = false;
  NodePtr next = RemoveNode(root_, entry, &removed);
  if (removed) root_ = std::move(next);
  return removed;
}

void SortedKeyIndex::SplitFresh(std::shared_ptr<Node> t,
                                const IndexedEntry& e,
                                std::shared_ptr<Node>* less,
                                std::shared_ptr<Node>* rest) {
  if (t == nullptr) {
    *less = nullptr;
    *rest = nullptr;
    return;
  }
  if (*t->entry < e) {
    std::shared_ptr<Node> right_less;
    // mdmatch-lint: allow(const-escape) SplitFresh precondition: every
    // node of `t` is uniquely owned (fresh batch), never published.
    SplitFresh(std::const_pointer_cast<Node>(t->right), e, &right_less,
               rest);
    t->right = std::move(right_less);
    t->count = 1 + Count(t->left.get()) + Count(t->right.get());
    *less = std::move(t);
  } else {
    std::shared_ptr<Node> left_rest;
    // mdmatch-lint: allow(const-escape) see above.
    SplitFresh(std::const_pointer_cast<Node>(t->left), e, less, &left_rest);
    t->left = std::move(left_rest);
    t->count = 1 + Count(t->left.get()) + Count(t->right.get());
    *rest = std::move(t);
  }
}

SortedKeyIndex::NodePtr SortedKeyIndex::UnionFresh(
    NodePtr shared, std::shared_ptr<Node> fresh) {
  if (fresh == nullptr) return shared;
  if (shared == nullptr) return fresh;
  if (fresh->priority >= shared->priority) {
    // The fresh root outranks the shared one: split the shared side
    // around it (path-copying) and splice the fresh node in place.
    NodePtr less;
    NodePtr rest;
    Split(shared, *fresh->entry, &less, &rest);
    // `fresh` subtrees are uniquely owned batch nodes (see SplitFresh).
    // mdmatch-lint: allow(const-escape)
    fresh->left = UnionFresh(std::move(less),
                             std::const_pointer_cast<Node>(fresh->left));
    // mdmatch-lint: allow(const-escape) see above.
    fresh->right = UnionFresh(std::move(rest),
                              std::const_pointer_cast<Node>(fresh->right));
    fresh->count =
        1 + Count(fresh->left.get()) + Count(fresh->right.get());
    return fresh;
  }
  // The shared root stays: one copied node, the fresh treap split
  // destructively across its children.
  std::shared_ptr<Node> fresh_less;
  std::shared_ptr<Node> fresh_rest;
  SplitFresh(std::move(fresh), *shared->entry, &fresh_less, &fresh_rest);
  return MakeNode(shared->entry, shared->priority,
                  UnionFresh(shared->left, std::move(fresh_less)),
                  UnionFresh(shared->right, std::move(fresh_rest)));
}

std::shared_ptr<SortedKeyIndex::Node> SortedKeyIndex::BuildFromSorted(
    std::vector<IndexedEntry> sorted,
    std::vector<const IndexedEntry*>* placed) {
  // Cartesian-tree build over the rightmost spine: each entry joins as
  // the spine's new tail, adopting as left child everything it outranks.
  // Nodes are freshly allocated and unpublished, so mutating them here is
  // safe; counts are settled in one bottom-up pass at the end.
  std::vector<std::shared_ptr<Node>> spine;
  std::shared_ptr<Node> root;
  for (IndexedEntry& entry : sorted) {
    auto node = std::make_shared<Node>();
    node->priority = EntryPriority(entry);
    node->entry = std::make_shared<const IndexedEntry>(std::move(entry));
    placed->push_back(node->entry.get());
    std::shared_ptr<Node> displaced;
    while (!spine.empty() && spine.back()->priority < node->priority) {
      displaced = std::move(spine.back());
      spine.pop_back();
      // A popped node's subtree is final: its left was settled when it
      // was displaced itself, its right is the node popped just before.
      displaced->count = 1 + Count(displaced->left.get()) +
                         Count(displaced->right.get());
    }
    node->left = std::move(displaced);
    if (spine.empty()) {
      root = node;
    } else {
      spine.back()->right = node;
    }
    spine.push_back(std::move(node));
  }
  // The remaining spine is the tree's right edge; counts settle deepest
  // first (each node's right child is the spine node after it).
  for (size_t i = spine.size(); i-- > 0;) {
    Node& n = *spine[i];
    n.count = 1 + Count(n.left.get()) + Count(n.right.get());
  }
  return root;
}

void SortedKeyIndex::RankSorted(const Node* n, size_t base,
                                const IndexedEntry* const* first,
                                const IndexedEntry* const* last,
                                bool present, size_t* out) {
  while (first != last) {
    const auto probes = static_cast<size_t>(last - first);
    if (n == nullptr) {
      std::fill(out, out + probes, base);
      return;
    }
    if (present && probes == n->count) {
      for (size_t i = 0; i < probes; ++i) out[i] = base + i;
      return;
    }
    const IndexedEntry& x = *n->entry;
    const size_t left = Count(n->left.get());
    if (x < **first) {  // every probe ranks right of x
      base += left + 1;
      n = n->right.get();
      continue;
    }
    if (*last[-1] < x) {  // every probe ranks left of x
      n = n->left.get();
      continue;
    }
    // x splits the probes: those below it rank in the left subtree, one
    // equal to it at x itself, the rest in the right subtree.
    const IndexedEntry* const* below = std::partition_point(
        first, last, [&x](const IndexedEntry* e) { return *e < x; });
    RankSorted(n->left.get(), base, first, below, present, out);
    out += below - first;
    first = below;
    base += left;
    for (; first != last && !(x < **first); ++first) *out++ = base;
    base += 1;
    n = n->right.get();
  }
}

SortedKeyIndex::BatchRanks SortedKeyIndex::Apply(
    const std::vector<IndexedEntry>& removes,
    std::vector<IndexedEntry> inserts) {
  for (const IndexedEntry& e : removes) Remove(e);
  // Sort the batch into (key, side, seq) order without a full-string
  // comparison sort: an integer sort on (side, seq) first, then a stable
  // byte radix on the keys — profiling showed the comparison sort of the
  // batch costing more string compares than the union merge itself.
  std::sort(inserts.begin(), inserts.end(),
            [](const IndexedEntry& a, const IndexedEntry& b) {
              if (a.side != b.side) return a.side < b.side;
              return a.seq < b.seq;
            });
  std::vector<uint32_t> perm(inserts.size());
  for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  StableRadixSortByKey(perm,
                       [&](uint32_t i) -> const std::string& {
                         return inserts[i].key;
                       });
  std::vector<IndexedEntry> sorted;
  sorted.reserve(inserts.size());
  for (uint32_t i : perm) sorted.push_back(std::move(inserts[i]));
  std::vector<const IndexedEntry*> placed;
  placed.reserve(sorted.size());
  std::shared_ptr<Node> batch = BuildFromSorted(std::move(sorted), &placed);
  root_ = UnionFresh(std::move(root_), std::move(batch));
  std::vector<const IndexedEntry*> gone;
  gone.reserve(removes.size());
  for (const IndexedEntry& e : removes) gone.push_back(&e);
  std::sort(gone.begin(), gone.end(),
            [](const IndexedEntry* a, const IndexedEntry* b) {
              return *a < *b;
            });
  BatchRanks ranks;
  ranks.inserted.resize(placed.size());
  RankSorted(root_.get(), 0, placed.data(), placed.data() + placed.size(),
             /*present=*/true, ranks.inserted.data());
  ranks.gaps.resize(gone.size());
  RankSorted(root_.get(), 0, gone.data(), gone.data() + gone.size(),
             /*present=*/false, ranks.gaps.data());
  return ranks;
}

size_t SortedKeyIndex::LowerBound(const IndexedEntry& e) const {
  size_t rank = 0;
  const Node* n = root_.get();
  while (n != nullptr) {
    if (*n->entry < e) {
      rank += Count(n->left.get()) + 1;
      n = n->right.get();
    } else {
      n = n->left.get();
    }
  }
  return rank;
}

void SortedKeyIndex::SpanInto(size_t lo, size_t hi,
                              std::vector<const IndexedEntry*>* out_ptr)
    const {
  std::vector<const IndexedEntry*>& out = *out_ptr;
  out.clear();
  const size_t n = size();
  if (hi > n) hi = n;
  if (lo >= hi) return;
  out.reserve(hi - lo);

  // Descend to rank `lo`, stacking the nodes still to be visited (a node
  // is pushed when the walk goes left of it — it comes after its left
  // subtree — or when it is the target itself).
  std::vector<const Node*> stack;
  const Node* cur = root_.get();
  size_t skip = lo;
  while (cur != nullptr) {
    const size_t left_count = Count(cur->left.get());
    if (skip < left_count) {
      stack.push_back(cur);
      cur = cur->left.get();
    } else if (skip == left_count) {
      stack.push_back(cur);
      break;
    } else {
      skip -= left_count + 1;
      cur = cur->right.get();
    }
  }

  while (!stack.empty() && out.size() < hi - lo) {
    const Node* node = stack.back();
    stack.pop_back();
    out.push_back(node->entry.get());
    const Node* next = node->right.get();
    while (next != nullptr) {
      stack.push_back(next);
      next = next->left.get();
    }
  }
}

}  // namespace mdmatch::candidate
