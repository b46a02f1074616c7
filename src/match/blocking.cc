#include "match/blocking.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

namespace mdmatch::match {

namespace {

/// The tuple positions of one block, each side in position order.
struct Block {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
};

using Blocks = std::unordered_map<std::string, Block>;

Blocks GroupByKey(const Instance& instance, const KeyFunction& key) {
  Blocks blocks;
  for (uint32_t i = 0; i < instance.left().size(); ++i) {
    blocks[key.Render(instance.left().tuple(i), 0)].left.push_back(i);
  }
  for (uint32_t i = 0; i < instance.right().size(); ++i) {
    blocks[key.Render(instance.right().tuple(i), 1)].right.push_back(i);
  }
  return blocks;
}

}  // namespace

CandidateSet BlockCandidates(const Instance& instance,
                             const KeyFunction& key) {
  const Blocks blocks = GroupByKey(instance, key);
  // Emit blocks in key order (std::string's unsigned-byte order), so the
  // candidate order is a function of the data alone, not of the hash map.
  std::vector<const Blocks::value_type*> ordered;
  ordered.reserve(blocks.size());
  for (const auto& entry : blocks) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const Blocks::value_type* a, const Blocks::value_type* b) {
              return a->first < b->first;
            });
  CandidateSet out;
  for (const Blocks::value_type* entry : ordered) {
    for (uint32_t l : entry->second.left) {
      for (uint32_t r : entry->second.right) out.Add(l, r);
    }
  }
  return out;
}

BlockingStats AnalyzeBlocks(const Instance& instance, const KeyFunction& key) {
  const Blocks blocks = GroupByKey(instance, key);
  BlockingStats stats;
  stats.num_blocks = blocks.size();
  size_t total = 0;
  for (const auto& [rendered, block] : blocks) {
    const size_t size = block.left.size() + block.right.size();
    total += size;
    stats.largest_block = std::max(stats.largest_block, size);
  }
  stats.avg_block = blocks.empty() ? 0.0
                                   : static_cast<double>(total) /
                                         static_cast<double>(blocks.size());
  return stats;
}

}  // namespace mdmatch::match
