#include "candidate/windowing.h"

#include <algorithm>

#include "candidate/radix.h"

namespace mdmatch::candidate {

namespace {

/// Emits every cross-relation pair within `window_size` of each other in
/// the order `perm` (combined indices, left block first).
void EmitWindows(const std::vector<uint32_t>& perm, size_t left_size,
                 size_t window_size, match::CandidateSet* out) {
  const size_t n = perm.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t hi = std::min(n, i + window_size);
    const bool a_right = perm[i] >= left_size;
    for (size_t j = i + 1; j < hi; ++j) {
      const bool b_right = perm[j] >= left_size;
      if (a_right == b_right) continue;  // only cross-relation pairs
      if (a_right) {
        out->Add(perm[j], perm[i] - static_cast<uint32_t>(left_size));
      } else {
        out->Add(perm[i], perm[j] - static_cast<uint32_t>(left_size));
      }
    }
  }
}

/// The number of pairs EmitWindows emits for `perm`, duplicates included:
/// for each entry, the opposite-side entries among the next
/// `window_size - 1`, read off a running count of right-side entries.
size_t CountWindowPairs(const std::vector<uint32_t>& perm, size_t left_size,
                        size_t window_size) {
  const size_t n = perm.size();
  std::vector<uint32_t> rights_before(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    rights_before[i + 1] = rights_before[i] + (perm[i] >= left_size ? 1 : 0);
  }
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t hi = std::min(n, i + window_size);
    const size_t rights = rights_before[hi] - rights_before[i + 1];
    count += perm[i] >= left_size ? (hi - i - 1) - rights : rights;
  }
  return count;
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
  // Every pass is sorted before any is emitted, so the set is sized once
  // for all the pairs the passes emit instead of rehashing as it grows.
  std::vector<std::vector<uint32_t>> perms;
  perms.reserve(rendered.keys.size());
  size_t emitted = 0;
  for (const auto& column : rendered.keys) {
    perms.push_back(SortedKeyPermutation(column));
    emitted += CountWindowPairs(perms.back(), rendered.left_size, window_size);
  }
  out.Reserve(emitted);
  for (const auto& perm : perms) {
    EmitWindows(perm, rendered.left_size, window_size, &out);
  }
  return out;
}

}  // namespace mdmatch::candidate
