#ifndef MDMATCH_MATCH_COMPILED_EVAL_H_
#define MDMATCH_MATCH_COMPILED_EVAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "match/comparison.h"
#include "match/fellegi_sunter.h"
#include "schema/instance.h"
#include "schema/tuple.h"
#include "sim/edit_distance.h"
#include "sim/sim_op.h"
#include "util/arena.h"

namespace mdmatch::match {

/// Per-record derived values for the atoms that benefit from them:
/// phonetic codes and q-gram sets are functions of one attribute value, so
/// they are computed once per record (columnar, per side) instead of once
/// per candidate pair. Slot layout is owned by the CompiledEvaluator that
/// produced the profile; profiles from one evaluator must not be fed to
/// another.
struct RecordProfile {
  std::vector<std::string> codes;            ///< phonetic code slots
  std::vector<std::vector<uint16_t>> grams;  ///< sorted unique 2-gram slots
  /// Character-presence signatures (one bit per folded character class)
  /// for edit-distance atoms: one unit-cost edit flips at most two
  /// presence bits, so popcount(sig_a XOR sig_b) > 2*budget proves the
  /// distance exceeds the budget without touching the strings.
  std::vector<uint64_t> signatures;
};

/// \brief Interns attribute values to dense ids for batch equality atoms.
///
/// Both sides of a match job share one interner, so two values carry the
/// same id iff the strings are equal — interned-id comparison is exact
/// string equality, which is what lets the batch path test equality atoms
/// as a SIMD compare over u32 columns. Views handed to Intern must
/// outlive the interner (batch columns reference corpus-owned tuples).
class ValueInterner {
 public:
  uint32_t Intern(std::string_view value) {
    auto [it, inserted] =
        ids_.try_emplace(value, static_cast<uint32_t>(ids_.size()));
    return it->second;
  }
  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string_view, uint32_t> ids_;
};

/// \brief One unit of batched pair evaluation.
///
/// Two forms share the struct: a *strip* (left_rows == nullptr) pairs the
/// single row `left_row` with `size` right rows — the windowing shape,
/// where SIMD kernels broadcast the left value; *mixed pairs*
/// (left_rows != nullptr) carry both row arrays, the shape blocking and
/// leftover singleton pairs produce. Row indices address BatchColumns.
struct PairBatch {
  const uint32_t* left_rows = nullptr;  ///< null => strip form
  uint32_t left_row = 0;                ///< strip form's shared left row
  const uint32_t* right_rows = nullptr;
  uint32_t size = 0;
};

/// Counters the batch path accumulates for ExecutionReport / IngestReport.
struct BatchStats {
  uint64_t strips = 0;  ///< batches evaluated (strip or mixed)
  uint64_t lanes = 0;   ///< pairs routed through MatchesBatch
  uint64_t simd_lanes_evaluated = 0;  ///< lanes whose atom ran a SIMD kernel
};

/// \brief Columnar (SoA) view of one side's records for batch evaluation.
///
/// Built by CompiledEvaluator::MakeBatchColumns into an Arena and filled
/// row by row with FillBatchRow; layout (which equality/length/signature
/// slots exist) is owned by the evaluator that made it, like
/// RecordProfile. Storage is row-major: slot s of row r lives at
/// [r * width + s], so one strip lane's slots for every atom share a
/// cache line or two — batch evaluation re-reads the same rows once per
/// atom, and row-major keeps those re-reads hot on corpora whose columns
/// outgrow the cache.
class BatchColumns {
 public:
  size_t rows() const { return rows_; }

 private:
  friend class CompiledEvaluator;
  const Tuple** tuples_ = nullptr;            ///< [rows]
  const RecordProfile** profiles_ = nullptr;  ///< [rows], entries may be null
  uint32_t* eq_ids_ = nullptr;    ///< [eq_width * rows] interned value ids
  uint32_t* lengths_ = nullptr;   ///< [len_width * rows] value lengths
  uint64_t* sigs_ = nullptr;      ///< [sig_width * rows] presence signatures
  size_t rows_ = 0;
  size_t eq_width_ = 0;
  size_t len_width_ = 0;
  size_t sig_width_ = 0;
  int side_ = 0;
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

  /// Compiles a rule-based basis: dedup the conjuncts of `rules` into the
  /// atom table, rules become masks. `ops` must outlive the evaluator.
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

  /// True when some atom has per-record derived values worth precomputing
  /// (phonetic codes, q-gram sets). When false, ProfileRecord returns an
  /// empty profile and passing profiles is pointless.
  bool needs_profiles() const {
    return !code_slots_[0].empty() || !code_slots_[1].empty() ||
           !gram_slots_[0].empty() || !gram_slots_[1].empty() ||
           !sig_slots_[0].empty() || !sig_slots_[1].empty();
  }

  /// Derived values of one record; `side` 0 = left relation, 1 = right.
  RecordProfile ProfileRecord(const Tuple& tuple, int side) const;

  /// The per-pair decision, computing derived values on the fly.
  bool Matches(const Tuple& left, const Tuple& right) const {
    return Matches(left, right, nullptr, nullptr);
  }

  /// The per-pair decision over precomputed profiles (either may be null).
  bool Matches(const Tuple& left, const Tuple& right,
               const RecordProfile* left_profile,
               const RecordProfile* right_profile) const;

  /// True when MatchesBatch supports this evaluator: FS mode always, rule
  /// mode when the rule set compiled into masks (<= 64 rules, no
  /// fallback) and the atom table fits the per-lane atom-index mask.
  /// kNone never (an empty evaluator has no batch path to take).
  bool SupportsBatch() const {
    switch (mode_) {
      case Mode::kNone:
        return false;
      case Mode::kRules:
        return fallback_rules_.empty() && atoms_.size() <= 64;
      case Mode::kFs:
        return true;
    }
    return false;
  }

  /// True when the batch path is expected to beat the scalar one: every
  /// atom must be an equality, so the whole evaluation runs on interned
  /// value ids and SIMD lane masks with no per-lane string residual.
  /// Edit-distance-heavy bases spend their time in the exact bounded
  /// kernels either way, and the scalar path's per-pair ordering plus
  /// profile gates already serve those better on large corpora (measured
  /// in BENCH_pairs.json) — executor and session consult this and leave
  /// such plans on the scalar path.
  bool BatchProfitable() const;

  /// Allocates a BatchColumns for `rows` records of `side` (0 = left,
  /// 1 = right) out of `arena`. Rows start unfilled; fill each row the
  /// batch will touch with FillBatchRow before evaluating.
  BatchColumns MakeBatchColumns(int side, size_t rows,
                                util::Arena* arena) const;

  /// Fills row `row` of `cols` from `tuple` (+ optional precomputed
  /// profile; pass null to derive signatures on the fly). `interner` must
  /// be the one shared interner of the whole batch job — both sides.
  void FillBatchRow(BatchColumns* cols, uint32_t row, const Tuple& tuple,
                    const RecordProfile* profile,
                    ValueInterner* interner) const;

  /// \brief Batched Matches over one PairBatch.
  ///
  /// Writes decisions[i] = 1/0 for lane i of `batch`. Decisions are
  /// bit-identical to Matches on the same (tuple, profile)
  /// inputs — the strip layout, SIMD kernels and prefilters change cost,
  /// never bits. Requires SupportsBatch(). Const and thread-safe; stats
  /// may be null.
  void MatchesBatch(const BatchColumns& left, const BatchColumns& right,
                    const PairBatch& batch, uint8_t* decisions,
                    BatchStats* stats) const;

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
    int sig_slot[2] = {-1, -1};   ///< presence-signature slots per side
    int eq_slot[2] = {-1, -1};    ///< interned-id column slots per side
    int len_slot[2] = {-1, -1};   ///< value-length column slots per side
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
  /// Rule mode: rebuilds rule_atom_masks_ (per rule, the mask of atom
  /// *indices* in current evaluation order that the rule needs). Must run
  /// after any atom reorder — compile and SeedSelectivity both call it.
  void ComputeRuleAtomMasks();

  bool EvalAtom(const Atom& atom, const Tuple& left, const Tuple& right,
                const RecordProfile* left_profile,
                const RecordProfile* right_profile) const;

  bool MatchesRules(const Tuple& left, const Tuple& right,
                    const RecordProfile* left_profile,
                    const RecordProfile* right_profile) const;
  bool MatchesFs(const Tuple& left, const Tuple& right,
                 const RecordProfile* left_profile,
                 const RecordProfile* right_profile) const;

  /// Score of a complete agreement pattern, summed in vector-element order
  /// exactly like FellegiSunter::ScorePattern (bit-identical decisions).
  double ScorePattern(uint32_t pattern) const;

  Mode mode_ = Mode::kNone;
  const sim::SimOpRegistry* ops_ = nullptr;
  std::vector<Atom> atoms_;  ///< in evaluation order
  size_t conjunct_count_ = 0;

  /// One atom evaluated across the active lanes of one <= 64-lane chunk;
  /// returns the lane mask where the atom holds. Only `eval` bits are
  /// meaningful in the result.
  uint64_t EvalAtomChunk(const Atom& atom, const BatchColumns& left,
                         const BatchColumns& right, const PairBatch& batch,
                         uint32_t base, uint32_t count, uint64_t eval,
                         sim::MyersPattern* scratch,
                         BatchStats* stats) const;

  // Rule mode.
  size_t num_rules_ = 0;
  std::vector<uint16_t> rule_sizes_;  ///< atoms per rule (pending counts)
  /// Per rule, the atom-index mask the batch path tests satisfaction
  /// against; valid only when SupportsBatch() (atom count <= 64).
  std::vector<uint64_t> rule_atom_masks_;
  /// Per rule, the highest atom index the rule needs (the evaluation step
  /// at which the rule can complete); UINT32_MAX for empty rules, which
  /// the batch path never completes (always_match_ short-circuits first).
  std::vector<uint32_t> rule_last_atom_;
  uint64_t all_rules_mask_ = 0;  ///< low num_rules_ bits set
  bool always_match_ = false;         ///< some rule has no conjuncts
  /// Rule masks are one machine word; the (absurd) >64-rule case keeps the
  /// rules verbatim and evaluates them naively.
  std::vector<MatchRule> fallback_rules_;

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

  // Batch column layouts, per side (slot s stores the attribute's
  // interned id / length in BatchColumns column s).
  std::vector<AttrId> eq_slots_[2];
  std::vector<AttrId> len_slots_[2];
};

}  // namespace mdmatch::match

#endif  // MDMATCH_MATCH_COMPILED_EVAL_H_
