#include "candidate/sorted_neighborhood.h"

#include "candidate/windowing.h"

namespace mdmatch::candidate {

SnResult SortedNeighborhood(const Instance& instance,
                            const sim::SimOpRegistry& ops,
                            const std::vector<match::KeyFunction>& passes,
                            const std::vector<match::MatchRule>& rules,
                            const SnOptions& options) {
  SnResult result;
  // Each pair comes once, from the first pass whose window covers it.
  result.candidates =
      WindowCandidatesMultiPass(instance, passes, options.window_size);
  for (const auto& [l, r] : result.candidates.pairs()) {
    ++result.comparisons;
    if (match::AnyRuleMatches(rules, ops, instance.left().tuple(l),
                              instance.right().tuple(r))) {
      result.matches.Add(l, r);
    }
  }
  return result;
}

std::vector<match::KeyFunction> SortKeysFromRules(
    const std::vector<match::MatchRule>& rules, const SchemaPair& pair,
    size_t max_passes, size_t max_elems) {
  std::vector<match::KeyFunction> keys;
  for (const auto& rule : rules) {
    if (keys.size() >= max_passes) break;
    if (rule.empty()) continue;
    keys.push_back(match::KeyFunction::FromKeyElements(
        rule, pair, max_elems, {"fname", "lname", "name"}));
  }
  return keys;
}

}  // namespace mdmatch::candidate
