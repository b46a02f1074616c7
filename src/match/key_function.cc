#include "match/key_function.h"

#include <algorithm>

#include "sim/phonetic.h"
#include "util/string_util.h"

namespace mdmatch::match {

KeyFunction KeyFunction::FromKeyElements(
    const RelativeKey& key, const SchemaPair& pair, size_t max_elems,
    const std::vector<std::string>& soundex_domains) {
  std::vector<Element> elems;
  for (const auto& e : key.elements()) {
    if (elems.size() >= max_elems) break;
    Element el;
    el.attrs = e.attrs;
    const std::string& domain = pair.left().attribute(e.attrs.left).domain;
    el.soundex = std::find(soundex_domains.begin(), soundex_domains.end(),
                           domain) != soundex_domains.end();
    elems.push_back(el);
  }
  return KeyFunction(std::move(elems));
}

KeyFunction KeyFunction::FromKeyElementsByCost(
    const RelativeKey& key, const SchemaPair& pair,
    const QualityModel& quality, size_t max_elems,
    const std::vector<std::string>& soundex_domains) {
  std::vector<Conjunct> ordered = key.elements();
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const Conjunct& a, const Conjunct& b) {
                     return quality.Cost(a.attrs) < quality.Cost(b.attrs);
                   });
  return FromKeyElements(RelativeKey(std::move(ordered)), pair, max_elems,
                         soundex_domains);
}

std::vector<KeyFunction> SortKeysFromRules(
    const std::vector<RelativeKey>& rules, const SchemaPair& pair,
    size_t max_passes, size_t max_elems) {
  std::vector<KeyFunction> keys;
  for (const auto& rule : rules) {
    if (keys.size() >= max_passes) break;
    if (rule.empty()) continue;
    keys.push_back(KeyFunction::FromKeyElements(rule, pair, max_elems,
                                                {"fname", "lname", "name"}));
  }
  return keys;
}

std::string KeyFunction::Render(const Tuple& tuple, int side) const {
  std::string out;
  std::string encoded;
  for (const auto& e : elements_) {
    AttrId a = side == 0 ? e.attrs.left : e.attrs.right;
    const std::string& v = tuple.value(a);
    encoded = e.soundex ? sim::Soundex(v) : ToUpper(v);
    if (e.prefix > 0 && encoded.size() > e.prefix) {
      encoded.resize(e.prefix);
    }
    out += encoded;
    out.push_back('|');  // field separator keeps keys prefix-unambiguous
  }
  return out;
}

}  // namespace mdmatch::match
