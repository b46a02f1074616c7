#ifndef MDMATCH_MATCH_COMPILED_EVAL_H_
#define MDMATCH_MATCH_COMPILED_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "match/comparison.h"
#include "match/fellegi_sunter.h"
#include "schema/instance.h"
#include "schema/tuple.h"
#include "sim/edit_distance.h"
#include "sim/sim_op.h"

namespace mdmatch::match {

/// Per-record derived values for the atoms that benefit from them:
/// phonetic codes, q-gram sets and edit signatures are functions of one
/// attribute value, so they are computed once per record (columnar, per
/// side) instead of once per candidate pair. Slot layout is owned by the
/// CompiledEvaluator that produced the profile; profiles from one
/// evaluator must not be fed to another.
struct RecordProfile {
  std::vector<std::string> codes;            ///< phonetic code slots
  std::vector<std::vector<uint16_t>> grams;  ///< sorted unique 2-gram slots
  /// One sim::EditSignature per edit-distance (θ-DL, Levenshtein) slot:
  /// the value's length gives the θ-DL budget, and
  /// sim::EditDistanceLowerBound rejects a pair whose bound exceeds it
  /// before either string is read.
  std::vector<sim::EditSignature> signatures;
};

/// \brief The compiled per-pair decision kernel of a MatchPlan.
///
/// The naive evaluation the paper describes re-dispatches every conjunct
/// of every rule through the SimOpRegistry, recomputing any similarity
/// shared between rules (the top-k RCKs overlap heavily by construction).
/// This evaluator flattens the rule set (or the Fellegi-Sunter comparison
/// vector) at plan-compile time into a deduplicated table of unique atoms
/// (left-attr, right-attr, op); rules become bitmasks over atom ids. Per
/// pair, atoms are evaluated lazily at most once each, ordered
/// cheapest-and-most-selective first, short-circuiting as soon as every
/// rule is dead or one rule is satisfied (for FS: as soon as the score
/// bounds of the partially known agreement pattern decide the threshold
/// comparison).
///
/// The contract is exact equivalence: Matches() returns precisely what
/// AnyRuleMatches / FsModel::IsMatch return on the same inputs, for every
/// pair — the compiled path changes cost, never decisions.
///
/// Matches() is const and thread-safe; Compile-time setup (ForRules /
/// ForFs / SeedSelectivity) is not.
class CompiledEvaluator {
 public:
  /// An empty evaluator matches nothing; real ones come from ForRules /
  /// ForFs.
  CompiledEvaluator() = default;

  /// Rule masks are one machine word, so a rule basis holds at most
  /// this many rules (PlanBuilder::Build rejects larger ones).
  static constexpr size_t kMaxRules = 64;

  /// Compiles a rule-based basis: dedup the conjuncts of `rules` into the
  /// atom table, rules become masks. At most kMaxRules rules (asserted).
  /// `ops` must outlive the evaluator.
  static CompiledEvaluator ForRules(const std::vector<MatchRule>& rules,
                                    const sim::SimOpRegistry& ops);

  /// Compiles a Fellegi-Sunter basis: the comparison vector's elements
  /// dedup into atoms (duplicate elements share one evaluation), and the
  /// decision "Score >= threshold" is reached through monotone score
  /// bounds over the partially evaluated pattern. `model` must be the
  /// trained model, `threshold` the decision threshold in effect.
  static CompiledEvaluator ForFs(const ComparisonVector& vector,
                                 const FsModel& model, double threshold,
                                 const sim::SimOpRegistry& ops);

  /// Estimates per-atom agree rates on a deterministic training-pair
  /// sample (match-enriched neighbors + uniform pairs, like FS training)
  /// and re-orders atom evaluation cheapest-and-most-selective first.
  /// Optional — without it atoms are ordered by static cost alone. Rule
  /// mode only (FS atoms are ordered by weight span instead; this is a
  /// no-op there). Call before sharing the evaluator across threads.
  void SeedSelectivity(const Instance& instance, size_t max_pairs,
                       uint64_t seed);

  /// Derived values of one record; `side` 0 = left relation, 1 = right.
  /// An evaluator without profile slots returns three empty vectors,
  /// which allocate nothing.
  RecordProfile ProfileRecord(const Tuple& tuple, int side) const;

  /// The per-pair decision. Both profiles must come from this
  /// evaluator's ProfileRecord, of `left` on side 0 and `right` on side 1.
  bool Matches(const Tuple& left, const Tuple& right,
               const RecordProfile& left_profile,
               const RecordProfile& right_profile) const;

  /// Unique atoms in the table (0 for an empty evaluator).
  size_t atom_count() const { return atoms_.size(); }
  /// Total conjunct occurrences the atoms were deduplicated from.
  size_t conjunct_count() const { return conjunct_count_; }
  bool compiled() const { return mode_ != Mode::kNone; }

 private:
  enum class Mode { kNone, kRules, kFs };

  struct Atom {
    Conjunct conjunct;
    sim::SimOpInfo info;
    int cost = 0;             ///< static rank: equality first, DL last
    double agree_rate = 0.5;  ///< sampled P(atom holds); selectivity seed
    uint64_t rules = 0;       ///< rule mode: rules containing this atom
    uint32_t fs_bits = 0;     ///< FS mode: vector positions this atom fills
    int code_slot[2] = {-1, -1};  ///< phonetic profile slots per side
    int gram_slot[2] = {-1, -1};  ///< q-gram profile slots per side
    int sig_slot[2] = {-1, -1};   ///< edit-signature slots per side
  };

  /// What one profile slot stores: the value of `attr` under `kind`.
  struct SlotSpec {
    AttrId attr = 0;
    sim::SimOpKind kind = sim::SimOpKind::kCustom;
  };

  static int CostRank(const sim::SimOpInfo& info);

  void AddConjunct(const Conjunct& conjunct, size_t origin,
                   const sim::SimOpRegistry& ops);
  void AssignProfileSlots();
  void SortAtoms();

  bool EvalAtom(const Atom& atom, const Tuple& left, const Tuple& right,
                const RecordProfile& left_profile,
                const RecordProfile& right_profile) const;

  bool MatchesRules(const Tuple& left, const Tuple& right,
                    const RecordProfile& left_profile,
                    const RecordProfile& right_profile) const;
  bool MatchesFs(const Tuple& left, const Tuple& right,
                 const RecordProfile& left_profile,
                 const RecordProfile& right_profile) const;

  /// Score of a complete agreement pattern, summed in vector-element order
  /// exactly like FellegiSunter::ScorePattern (bit-identical decisions).
  double ScorePattern(uint32_t pattern) const;

  Mode mode_ = Mode::kNone;
  const sim::SimOpRegistry* ops_ = nullptr;
  std::vector<Atom> atoms_;  ///< in evaluation order
  size_t conjunct_count_ = 0;

  // Rule mode.
  size_t num_rules_ = 0;
  std::vector<uint16_t> rule_sizes_;  ///< atoms per rule (pending counts)
  bool always_match_ = false;         ///< some rule has no conjuncts

  // FS mode.
  size_t fs_width_ = 0;
  std::vector<double> agree_weight_;
  std::vector<double> disagree_weight_;
  double threshold_ = 0;
  uint32_t agree_minimizes_ = 0;  ///< bits where agreeing lowers the score

  // Profile slot layouts, per side.
  std::vector<SlotSpec> code_slots_[2];
  std::vector<AttrId> gram_slots_[2];
  std::vector<AttrId> sig_slots_[2];
};

}  // namespace mdmatch::match

#endif  // MDMATCH_MATCH_COMPILED_EVAL_H_
