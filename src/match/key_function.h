#ifndef MDMATCH_MATCH_KEY_FUNCTION_H_
#define MDMATCH_MATCH_KEY_FUNCTION_H_

#include <string>
#include <vector>

#include "core/quality.h"
#include "core/rck.h"
#include "schema/schema.h"
#include "schema/tuple.h"

namespace mdmatch::match {

/// \brief A blocking / sorting key: projects a tuple (of either relation)
/// to a string by concatenating encoded attribute values.
///
/// Built from comparable attribute pairs so it can be rendered on both
/// sides of the schema pair; per-element options control Soundex encoding
/// (the paper's Exp-4 Soundex-encodes the name attribute before blocking)
/// and prefix truncation (standard for sort keys).
class KeyFunction {
 public:
  struct Element {
    AttrPair attrs;
    bool soundex = false;   ///< encode with Soundex before concatenation
    size_t prefix = 0;      ///< keep only the first `prefix` chars (0 = all)
  };

  KeyFunction() = default;
  explicit KeyFunction(std::vector<Element> elements)
      : elements_(std::move(elements)) {}

  /// Builds from the first `max_elems` elements of a relative key (the
  /// "(part of) RCKs" blocking keys of Exp-4); `soundex_domains` lists the
  /// left-schema domains to Soundex-encode (e.g. {"fname","lname"}).
  static KeyFunction FromKeyElements(
      const RelativeKey& key, const SchemaPair& pair, size_t max_elems,
      const std::vector<std::string>& soundex_domains = {});

  /// Like FromKeyElements, but picks the `max_elems` *lowest-cost*
  /// elements under the quality model instead of the first ones — when ac
  /// encodes attribute reliability, the blocking key is built from the
  /// attributes least likely to be dirty.
  static KeyFunction FromKeyElementsByCost(
      const RelativeKey& key, const SchemaPair& pair,
      const QualityModel& quality, size_t max_elems,
      const std::vector<std::string>& soundex_domains = {});

  /// Renders the key of a tuple; `side` selects which attribute of each
  /// pair to read (0 = left relation, 1 = right relation). Values are
  /// upper-cased so sort order ignores case.
  std::string Render(const Tuple& tuple, int side) const;

  const std::vector<Element>& elements() const { return elements_; }
  bool empty() const { return elements_.empty(); }

 private:
  std::vector<Element> elements_;
};

/// Derives one sort key per rule/RCK from its first `max_elems` elements
/// (name-domain attributes Soundex-encoded), at most `max_passes` keys,
/// for use as windowing passes — the "(part of) RCKs suffice to serve as
/// quality sorting keys" usage of the paper. Empty rules are skipped.
std::vector<KeyFunction> SortKeysFromRules(
    const std::vector<RelativeKey>& rules, const SchemaPair& pair,
    size_t max_passes, size_t max_elems = 3);

}  // namespace mdmatch::match

#endif  // MDMATCH_MATCH_KEY_FUNCTION_H_
