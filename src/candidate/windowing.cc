#include "candidate/windowing.h"

#include <algorithm>

#include "candidate/radix.h"

namespace mdmatch::candidate {

namespace {

/// Emits every cross-relation pair within `window_size` of each other in
/// the order `perm` (combined indices, left block first), except the pairs
/// an earlier pass already emitted. `earlier[q][c]` is the position of
/// combined index c in pass q's order, and pass q emitted a pair exactly
/// when its records sit less than `window_size` apart there.
void EmitWindows(const std::vector<uint32_t>& perm, size_t left_size,
                 size_t window_size,
                 const std::vector<std::vector<uint32_t>>& earlier,
                 match::CandidateSet* out) {
  const size_t n = perm.size();
  auto covered = [&](uint32_t a, uint32_t b) {
    for (const std::vector<uint32_t>& rank : earlier) {
      const uint32_t ra = rank[a];
      const uint32_t rb = rank[b];
      if ((ra > rb ? ra - rb : rb - ra) < window_size) return true;
    }
    return false;
  };
  for (size_t i = 0; i < n; ++i) {
    const size_t hi = i + std::min(window_size, n - i);
    const uint32_t a = perm[i];
    const bool a_right = a >= left_size;
    for (size_t j = i + 1; j < hi; ++j) {
      const uint32_t b = perm[j];
      if ((b >= left_size) == a_right) continue;  // only cross-relation pairs
      if (covered(a, b)) continue;
      if (a_right) {
        out->Add(b, a - static_cast<uint32_t>(left_size));
      } else {
        out->Add(a, b - static_cast<uint32_t>(left_size));
      }
    }
  }
}

}  // namespace

RenderedKeys RenderPassKeys(const Instance& instance,
                            const std::vector<match::KeyFunction>& passes) {
  RenderedKeys out;
  out.left_size = instance.left().size();
  out.total = out.left_size + instance.right().size();
  out.keys.resize(passes.size());
  for (auto& column : out.keys) column.reserve(out.total);
  for (uint32_t i = 0; i < instance.left().size(); ++i) {
    const Tuple& tuple = instance.left().tuple(i);
    for (size_t p = 0; p < passes.size(); ++p) {
      out.keys[p].push_back(passes[p].Render(tuple, 0));
    }
  }
  for (uint32_t i = 0; i < instance.right().size(); ++i) {
    const Tuple& tuple = instance.right().tuple(i);
    for (size_t p = 0; p < passes.size(); ++p) {
      out.keys[p].push_back(passes[p].Render(tuple, 1));
    }
  }
  return out;
}

std::vector<uint32_t> SortedKeyPermutation(
    const std::vector<std::string>& keys) {
  std::vector<uint32_t> perm(keys.size());
  for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  StableRadixSortByKey(perm,
                       [&](uint32_t i) -> const std::string& {
                         return keys[i];
                       });
  return perm;
}

match::CandidateSet WindowCandidates(const Instance& instance,
                                     const match::KeyFunction& key,
                                     size_t window_size) {
  return WindowCandidatesMultiPass(instance, {key}, window_size);
}

match::CandidateSet WindowCandidatesMultiPass(
    const Instance& instance, const std::vector<match::KeyFunction>& keys,
    size_t window_size) {
  match::CandidateSet out;
  if (window_size < 2 || keys.empty()) return out;
  const RenderedKeys rendered = RenderPassKeys(instance, keys);
  // ranks[q][c]: the position of combined index c in pass q's order.
  std::vector<std::vector<uint32_t>> ranks;
  ranks.reserve(rendered.keys.size());
  for (const auto& column : rendered.keys) {
    const std::vector<uint32_t> perm = SortedKeyPermutation(column);
    EmitWindows(perm, rendered.left_size, window_size, ranks, &out);
    std::vector<uint32_t>& rank = ranks.emplace_back(perm.size());
    for (uint32_t i = 0; i < perm.size(); ++i) rank[perm[i]] = i;
  }
  return out;
}

}  // namespace mdmatch::candidate
