#include "match/compiled_eval.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "sim/edit_distance.h"
#include "sim/jaro.h"
#include "sim/phonetic.h"
#include "sim/qgram.h"
#include "util/simd.h"

namespace mdmatch::match {

namespace {

/// Sorted unique 2-gram codes of `s`, padded like sim::QGrams: each gram
/// is two bytes, packed into one uint16. The *set* (not multiset) is kept,
/// because QGramJaccard compares gram sets.
std::vector<uint16_t> GramSet2(std::string_view s) {
  std::vector<uint16_t> out;
  if (s.empty()) return out;
  out.reserve(s.size() + 1);
  auto code = [](char hi, char lo) {
    return static_cast<uint16_t>(
        (static_cast<uint16_t>(static_cast<unsigned char>(hi)) << 8) |
        static_cast<unsigned char>(lo));
  };
  out.push_back(code('#', s.front()));
  for (size_t i = 0; i + 1 < s.size(); ++i) out.push_back(code(s[i], s[i + 1]));
  out.push_back(code(s.back(), '#'));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Jaccard of two precomputed gram sets, with exactly the special cases of
/// sim::QGramJaccard (both empty => 1.0).
double GramSetJaccard(const std::vector<uint16_t>& a,
                      const std::vector<uint16_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

std::string PhoneticCode(sim::SimOpKind kind, std::string_view value) {
  return kind == sim::SimOpKind::kSoundex ? sim::Soundex(value)
                                          : sim::Nysiis(value);
}

/// Character-presence signature: bit (c & 63) per character. Folding
/// classes together only weakens the filter, never the bound — an edit
/// still flips at most two (folded) presence bits.
uint64_t PresenceSignature(std::string_view value) {
  uint64_t sig = 0;
  for (unsigned char c : value) sig |= uint64_t{1} << (c & 63);
  return sig;
}

}  // namespace

int CompiledEvaluator::CostRank(const sim::SimOpInfo& info) {
  switch (info.kind) {
    case sim::SimOpKind::kEquality:
      return 0;
    case sim::SimOpKind::kPrefix:
      return 1;
    case sim::SimOpKind::kSoundex:
    case sim::SimOpKind::kNysiis:
      return 2;  // code compare once profiles exist
    case sim::SimOpKind::kJaro:
    case sim::SimOpKind::kJaroWinkler:
      return 3;
    case sim::SimOpKind::kQGram2:
      return 4;
    case sim::SimOpKind::kLevenshtein:
      return 5;
    case sim::SimOpKind::kDl:
      return 6;
    case sim::SimOpKind::kCustom:
      return 7;  // unknown cost: evaluate last
  }
  return 7;
}

void CompiledEvaluator::AddConjunct(const Conjunct& conjunct, size_t origin,
                                    const sim::SimOpRegistry& ops) {
  ++conjunct_count_;
  Atom* atom = nullptr;
  for (Atom& existing : atoms_) {
    if (existing.conjunct == conjunct) {
      atom = &existing;
      break;
    }
  }
  if (atom == nullptr) {
    atoms_.push_back(Atom{});
    atom = &atoms_.back();
    atom->conjunct = conjunct;
    atom->info = ops.Info(conjunct.op);
    atom->cost = CostRank(atom->info);
  }
  if (mode_ == Mode::kRules) {
    atom->rules |= uint64_t{1} << origin;
  } else {
    atom->fs_bits |= uint32_t{1} << origin;
  }
}

CompiledEvaluator CompiledEvaluator::ForRules(
    const std::vector<MatchRule>& rules, const sim::SimOpRegistry& ops) {
  CompiledEvaluator eval;
  eval.mode_ = Mode::kRules;
  eval.ops_ = &ops;
  eval.num_rules_ = rules.size();
  if (rules.size() > 64) {
    eval.fallback_rules_ = rules;
    for (const MatchRule& rule : rules) {
      eval.conjunct_count_ += rule.elements().size();
      if (rule.elements().empty()) eval.always_match_ = true;
    }
    return eval;
  }
  for (size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].elements().empty()) eval.always_match_ = true;
    for (const Conjunct& conjunct : rules[r].elements()) {
      eval.AddConjunct(conjunct, r, ops);
    }
  }
  eval.SortAtoms();
  // Conjuncts within one rule may repeat (injected rule sets); the pending
  // count must be the number of *distinct* atoms, which is what the
  // per-atom rule masks encode.
  eval.rule_sizes_.assign(rules.size(), 0);
  for (const Atom& atom : eval.atoms_) {
    for (size_t r = 0; r < rules.size(); ++r) {
      if (atom.rules & (uint64_t{1} << r)) ++eval.rule_sizes_[r];
    }
  }
  eval.AssignProfileSlots();
  eval.ComputeRuleAtomMasks();
  return eval;
}

CompiledEvaluator CompiledEvaluator::ForFs(const ComparisonVector& vector,
                                           const FsModel& model,
                                           double threshold,
                                           const sim::SimOpRegistry& ops) {
  assert(vector.size() <= 32 && "comparison vector too wide for patterns");
  CompiledEvaluator eval;
  eval.mode_ = Mode::kFs;
  eval.ops_ = &ops;
  eval.fs_width_ = vector.size();
  eval.threshold_ = threshold;
  for (size_t i = 0; i < vector.size(); ++i) {
    eval.AddConjunct(vector.elements()[i], i, ops);
    eval.agree_weight_.push_back(model.AgreementWeight(i));
    eval.disagree_weight_.push_back(model.DisagreementWeight(i));
    if (eval.agree_weight_.back() < eval.disagree_weight_.back()) {
      eval.agree_minimizes_ |= uint32_t{1} << i;
    }
  }
  eval.SortAtoms();
  eval.AssignProfileSlots();
  return eval;
}

void CompiledEvaluator::SortAtoms() {
  if (mode_ == Mode::kFs) {
    // FS decides by score bounds: the atoms that move the bounds the most
    // (largest summed weight span across their vector positions) settle
    // the threshold comparison in the fewest evaluations.
    std::vector<double> span(atoms_.size(), 0);
    for (size_t i = 0; i < atoms_.size(); ++i) {
      for (size_t e = 0; e < fs_width_; ++e) {
        if (atoms_[i].fs_bits & (uint32_t{1} << e)) {
          span[i] += std::abs(agree_weight_[e] - disagree_weight_[e]);
        }
      }
      atoms_[i].agree_rate = -span[i];  // reuse the sort key slot
    }
  }
  std::stable_sort(atoms_.begin(), atoms_.end(),
                   [](const Atom& a, const Atom& b) {
                     if (a.cost != b.cost) return a.cost < b.cost;
                     return a.agree_rate < b.agree_rate;
                   });
}

void CompiledEvaluator::AssignProfileSlots() {
  for (int side = 0; side < 2; ++side) {
    code_slots_[side].clear();
    gram_slots_[side].clear();
    sig_slots_[side].clear();
    eq_slots_[side].clear();
    len_slots_[side].clear();
  }
  auto attr_slot = [](std::vector<AttrId>& slots, AttrId attr) {
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i] == attr) return static_cast<int>(i);
    }
    slots.push_back(attr);
    return static_cast<int>(slots.size() - 1);
  };
  auto code_slot = [&](int side, AttrId attr, sim::SimOpKind kind) {
    auto& slots = code_slots_[side];
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].attr == attr && slots[i].kind == kind) {
        return static_cast<int>(i);
      }
    }
    slots.push_back(SlotSpec{attr, kind});
    return static_cast<int>(slots.size() - 1);
  };
  auto gram_slot = [&](int side, AttrId attr) {
    auto& slots = gram_slots_[side];
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i] == attr) return static_cast<int>(i);
    }
    slots.push_back(attr);
    return static_cast<int>(slots.size() - 1);
  };
  auto sig_slot = [&](int side, AttrId attr) {
    auto& slots = sig_slots_[side];
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i] == attr) return static_cast<int>(i);
    }
    slots.push_back(attr);
    return static_cast<int>(slots.size() - 1);
  };
  for (Atom& atom : atoms_) {
    switch (atom.info.kind) {
      case sim::SimOpKind::kSoundex:
      case sim::SimOpKind::kNysiis:
        atom.code_slot[0] =
            code_slot(0, atom.conjunct.attrs.left, atom.info.kind);
        atom.code_slot[1] =
            code_slot(1, atom.conjunct.attrs.right, atom.info.kind);
        break;
      case sim::SimOpKind::kQGram2:
        atom.gram_slot[0] = gram_slot(0, atom.conjunct.attrs.left);
        atom.gram_slot[1] = gram_slot(1, atom.conjunct.attrs.right);
        break;
      case sim::SimOpKind::kDl:
      case sim::SimOpKind::kLevenshtein:
        atom.sig_slot[0] = sig_slot(0, atom.conjunct.attrs.left);
        atom.sig_slot[1] = sig_slot(1, atom.conjunct.attrs.right);
        atom.len_slot[0] = attr_slot(len_slots_[0], atom.conjunct.attrs.left);
        atom.len_slot[1] = attr_slot(len_slots_[1], atom.conjunct.attrs.right);
        break;
      case sim::SimOpKind::kEquality:
        atom.eq_slot[0] = attr_slot(eq_slots_[0], atom.conjunct.attrs.left);
        atom.eq_slot[1] = attr_slot(eq_slots_[1], atom.conjunct.attrs.right);
        break;
      default:
        break;
    }
  }
}

void CompiledEvaluator::SeedSelectivity(const Instance& instance,
                                        size_t max_pairs, uint64_t seed) {
  // FS atoms are ordered by weight span (SortAtoms overwrites the sampled
  // rates); sampling would be paid and discarded.
  if (mode_ != Mode::kRules) return;
  if (atoms_.empty() || max_pairs == 0) return;
  std::vector<Conjunct> elements;
  elements.reserve(atoms_.size());
  for (const Atom& atom : atoms_) elements.push_back(atom.conjunct);
  CandidateSet sample = SampleTrainingPairs(
      instance, ComparisonVector(std::move(elements)), max_pairs, seed);
  if (sample.empty()) return;
  std::vector<size_t> agree(atoms_.size(), 0);
  for (const auto& [l, r] : sample.pairs()) {
    const Tuple& left = instance.left().tuple(l);
    const Tuple& right = instance.right().tuple(r);
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (EvalAtom(atoms_[i], left, right, nullptr, nullptr)) ++agree[i];
    }
  }
  for (size_t i = 0; i < atoms_.size(); ++i) {
    atoms_[i].agree_rate =
        static_cast<double>(agree[i]) / static_cast<double>(sample.size());
  }
  SortAtoms();
  AssignProfileSlots();
  ComputeRuleAtomMasks();
}

void CompiledEvaluator::ComputeRuleAtomMasks() {
  if (mode_ != Mode::kRules) return;
  all_rules_mask_ = num_rules_ == 0 ? 0
                    : num_rules_ >= 64
                        ? ~uint64_t{0}
                        : (uint64_t{1} << num_rules_) - 1;
  rule_atom_masks_.assign(num_rules_, 0);
  rule_last_atom_.assign(num_rules_, UINT32_MAX);
  if (!fallback_rules_.empty() || atoms_.size() > 64) return;
  for (size_t ai = 0; ai < atoms_.size(); ++ai) {
    uint64_t rules = atoms_[ai].rules;
    while (rules != 0) {
      const int r = std::countr_zero(rules);
      rules &= rules - 1;
      rule_atom_masks_[r] |= uint64_t{1} << ai;
      rule_last_atom_[r] = static_cast<uint32_t>(ai);
    }
  }
}

bool CompiledEvaluator::BatchProfitable() const {
  if (!SupportsBatch()) return false;
  if (atoms_.empty()) return false;
  for (const Atom& atom : atoms_) {
    if (atom.info.kind != sim::SimOpKind::kEquality) return false;
  }
  return true;
}

RecordProfile CompiledEvaluator::ProfileRecord(const Tuple& tuple,
                                               int side) const {
  RecordProfile profile;
  profile.codes.reserve(code_slots_[side].size());
  for (const SlotSpec& slot : code_slots_[side]) {
    profile.codes.push_back(PhoneticCode(slot.kind, tuple.value(slot.attr)));
  }
  profile.grams.reserve(gram_slots_[side].size());
  for (AttrId attr : gram_slots_[side]) {
    profile.grams.push_back(GramSet2(tuple.value(attr)));
  }
  profile.signatures.reserve(sig_slots_[side].size());
  for (AttrId attr : sig_slots_[side]) {
    profile.signatures.push_back(PresenceSignature(tuple.value(attr)));
  }
  return profile;
}

bool CompiledEvaluator::EvalAtom(const Atom& atom, const Tuple& left,
                                 const Tuple& right,
                                 const RecordProfile* left_profile,
                                 const RecordProfile* right_profile) const {
  const std::string& a = left.value(atom.conjunct.attrs.left);
  const std::string& b = right.value(atom.conjunct.attrs.right);
  if (atom.info.kind == sim::SimOpKind::kEquality) return a == b;
  // Registered predicates are wrapped so equality short-circuits to true
  // (the subsumption axiom); mirror that here.
  if (a == b) return true;
  switch (atom.info.kind) {
    case sim::SimOpKind::kDl: {
      if (left_profile != nullptr && right_profile != nullptr) {
        const uint64_t differing =
            left_profile->signatures[atom.sig_slot[0]] ^
            right_profile->signatures[atom.sig_slot[1]];
        const size_t budget = sim::DlEditBudget(atom.info.threshold,
                                                std::max(a.size(), b.size()));
        if (static_cast<size_t>(std::popcount(differing)) > 2 * budget) {
          return false;  // dist >= popcount/2 > budget
        }
      }
      return sim::DlSimilar(a, b, atom.info.threshold);
    }
    case sim::SimOpKind::kLevenshtein: {
      if (left_profile != nullptr && right_profile != nullptr) {
        const uint64_t differing =
            left_profile->signatures[atom.sig_slot[0]] ^
            right_profile->signatures[atom.sig_slot[1]];
        if (static_cast<size_t>(std::popcount(differing)) >
            2 * atom.info.param) {
          return false;
        }
      }
      return sim::LevenshteinDistanceBounded(a, b, atom.info.param) <=
             atom.info.param;
    }
    case sim::SimOpKind::kJaro:
      return sim::JaroSimilarity(a, b) >= atom.info.threshold;
    case sim::SimOpKind::kJaroWinkler:
      return sim::JaroWinklerSimilarity(a, b) >= atom.info.threshold;
    case sim::SimOpKind::kPrefix: {
      const size_t k = atom.info.param;
      return std::string_view(a).substr(0, std::min(k, a.size())) ==
             std::string_view(b).substr(0, std::min(k, b.size()));
    }
    case sim::SimOpKind::kSoundex:
    case sim::SimOpKind::kNysiis: {
      if (left_profile != nullptr && right_profile != nullptr) {
        return left_profile->codes[atom.code_slot[0]] ==
               right_profile->codes[atom.code_slot[1]];
      }
      return PhoneticCode(atom.info.kind, a) == PhoneticCode(atom.info.kind, b);
    }
    case sim::SimOpKind::kQGram2: {
      if (left_profile != nullptr && right_profile != nullptr) {
        return GramSetJaccard(left_profile->grams[atom.gram_slot[0]],
                              right_profile->grams[atom.gram_slot[1]]) >=
               atom.info.threshold;
      }
      return sim::QGramJaccard(a, b, 2) >= atom.info.threshold;
    }
    case sim::SimOpKind::kEquality:
    case sim::SimOpKind::kCustom:
      // Eval's wrapped predicate also short-circuits a == b, so reaching it
      // only for a != b is equivalent.
      return ops_->Eval(atom.conjunct.op, a, b);
  }
  return ops_->Eval(atom.conjunct.op, a, b);
}

bool CompiledEvaluator::MatchesRules(const Tuple& left, const Tuple& right,
                                     const RecordProfile* left_profile,
                                     const RecordProfile* right_profile) const {
  if (always_match_) return true;
  if (!fallback_rules_.empty()) {
    return AnyRuleMatches(fallback_rules_, *ops_, left, right);
  }
  if (num_rules_ == 0) return false;
  uint64_t alive = num_rules_ == 64 ? ~uint64_t{0}
                                    : (uint64_t{1} << num_rules_) - 1;
  uint16_t pending[64];
  for (size_t r = 0; r < num_rules_; ++r) pending[r] = rule_sizes_[r];
  for (const Atom& atom : atoms_) {
    const uint64_t needed = atom.rules & alive;
    if (needed == 0) continue;
    if (EvalAtom(atom, left, right, left_profile, right_profile)) {
      uint64_t bits = needed;
      while (bits != 0) {
        const int r = std::countr_zero(bits);
        bits &= bits - 1;
        if (--pending[r] == 0) return true;
      }
    } else {
      alive &= ~atom.rules;
      if (alive == 0) return false;
    }
  }
  return false;
}

double CompiledEvaluator::ScorePattern(uint32_t pattern) const {
  double score = 0;
  for (size_t i = 0; i < fs_width_; ++i) {
    score += ((pattern >> i) & 1u) ? agree_weight_[i] : disagree_weight_[i];
  }
  return score;
}

bool CompiledEvaluator::MatchesFs(const Tuple& left, const Tuple& right,
                                  const RecordProfile* left_profile,
                                  const RecordProfile* right_profile) const {
  uint32_t agree = 0;
  uint32_t unknown =
      fs_width_ >= 32 ? ~uint32_t{0} : (uint32_t{1} << fs_width_) - 1;
  for (const Atom& atom : atoms_) {
    if ((unknown & atom.fs_bits) == 0) continue;
    if (EvalAtom(atom, left, right, left_profile, right_profile)) {
      agree |= atom.fs_bits;
    }
    unknown &= ~atom.fs_bits;
    // Monotone bounds: resolving the unknown elements toward their
    // smaller (resp. larger) weight brackets the final score. Summation
    // happens in element order either way, and floating-point addition is
    // weakly monotone, so these early exits reproduce the full
    // Score >= threshold comparison exactly.
    if (ScorePattern(agree | (unknown & agree_minimizes_)) >= threshold_) {
      return true;
    }
    if (ScorePattern(agree | (unknown & ~agree_minimizes_)) < threshold_) {
      return false;
    }
  }
  return ScorePattern(agree) >= threshold_;
}

bool CompiledEvaluator::Matches(const Tuple& left, const Tuple& right,
                                const RecordProfile* left_profile,
                                const RecordProfile* right_profile) const {
  switch (mode_) {
    case Mode::kNone:
      return false;
    case Mode::kRules:
      return MatchesRules(left, right, left_profile, right_profile);
    case Mode::kFs:
      return MatchesFs(left, right, left_profile, right_profile);
  }
  return false;
}

BatchColumns CompiledEvaluator::MakeBatchColumns(int side, size_t rows,
                                                 util::Arena* arena) const {
  BatchColumns cols;
  cols.side_ = side;
  cols.rows_ = rows;
  cols.eq_width_ = eq_slots_[side].size();
  cols.len_width_ = len_slots_[side].size();
  cols.sig_width_ = sig_slots_[side].size();
  if (rows == 0) return cols;
  cols.tuples_ = arena->AllocateArrayOf<const Tuple*>(rows);
  cols.profiles_ = arena->AllocateArrayOf<const RecordProfile*>(rows);
  if (cols.eq_width_ > 0) {
    cols.eq_ids_ = arena->AllocateArrayOf<uint32_t>(cols.eq_width_ * rows);
  }
  if (cols.len_width_ > 0) {
    cols.lengths_ = arena->AllocateArrayOf<uint32_t>(cols.len_width_ * rows);
  }
  if (cols.sig_width_ > 0) {
    cols.sigs_ = arena->AllocateArrayOf<uint64_t>(cols.sig_width_ * rows);
  }
  return cols;
}

void CompiledEvaluator::FillBatchRow(BatchColumns* cols, uint32_t row,
                                     const Tuple& tuple,
                                     const RecordProfile* profile,
                                     ValueInterner* interner) const {
  const int side = cols->side_;
  cols->tuples_[row] = &tuple;
  cols->profiles_[row] = profile;
  for (size_t s = 0; s < cols->eq_width_; ++s) {
    cols->eq_ids_[row * cols->eq_width_ + s] =
        interner->Intern(tuple.value(eq_slots_[side][s]));
  }
  for (size_t s = 0; s < cols->len_width_; ++s) {
    const size_t len = tuple.value(len_slots_[side][s]).size();
    // Clamped lengths only weaken the batch length gates (they pass more
    // lanes to the exact residual), never flip a decision.
    cols->lengths_[row * cols->len_width_ + s] =
        len > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(len);
  }
  for (size_t s = 0; s < cols->sig_width_; ++s) {
    cols->sigs_[row * cols->sig_width_ + s] =
        profile != nullptr && s < profile->signatures.size()
            ? profile->signatures[s]
            : PresenceSignature(tuple.value(sig_slots_[side][s]));
  }
}

uint64_t CompiledEvaluator::EvalAtomChunk(const Atom& atom,
                                          const BatchColumns& left,
                                          const BatchColumns& right,
                                          const PairBatch& batch,
                                          uint32_t base, uint32_t count,
                                          uint64_t eval,
                                          sim::MyersPattern* scratch,
                                          BatchStats* stats) const {
  namespace simd = util::simd;
  const bool is_strip = batch.left_rows == nullptr;
  const simd::Level level = simd::ActiveLevel();
  const uint32_t* lrows = batch.left_rows;  // null on strips
  const uint32_t* rrows = batch.right_rows + base;
  auto lrow = [&](uint32_t i) { return is_strip ? batch.left_row : lrows[base + i]; };
  auto count_simd = [&] {
    if (stats != nullptr && level != simd::Level::kScalar) {
      stats->simd_lanes_evaluated +=
          static_cast<uint64_t>(std::popcount(eval));
    }
  };
  // When few lanes are live (late atoms of mostly-decided chunks), the
  // full-width gathers cost more than they save; walk the live lanes
  // scalar instead. The gates and exact kernels are the same, so the
  // returned mask is identical either way.
  const bool sparse =
      static_cast<uint32_t>(std::popcount(eval)) * 4 < count;
  switch (atom.info.kind) {
    case sim::SimOpKind::kEquality: {
      // Interned ids: equal ids <=> equal strings (one shared interner).
      const size_t ls = static_cast<size_t>(atom.eq_slot[0]);
      const size_t rs = static_cast<size_t>(atom.eq_slot[1]);
      auto lid_of = [&](uint32_t row) {
        return left.eq_ids_[row * left.eq_width_ + ls];
      };
      auto rid_of = [&](uint32_t row) {
        return right.eq_ids_[row * right.eq_width_ + rs];
      };
      if (sparse) {
        uint64_t result = 0;
        uint64_t bits = eval;
        while (bits != 0) {
          const int i = std::countr_zero(bits);
          bits &= bits - 1;
          if (lid_of(lrow(i)) == rid_of(rrows[i])) result |= uint64_t{1} << i;
        }
        return result;
      }
      alignas(32) uint32_t rids[64];
      for (uint32_t i = 0; i < count; ++i) rids[i] = rid_of(rrows[i]);
      uint64_t mask;
      if (is_strip) {
        mask = simd::EqMaskU32(level, rids, lid_of(batch.left_row), count);
      } else {
        alignas(32) uint32_t lids[64];
        for (uint32_t i = 0; i < count; ++i) lids[i] = lid_of(lrows[base + i]);
        mask = simd::EqMaskU32(level, lids, rids, count);
      }
      count_simd();
      return mask & eval;
    }
    case sim::SimOpKind::kLevenshtein: {
      const size_t param = atom.info.param;
      const uint32_t gap_limit =
          param > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(param);
      const uint32_t sig_limit =
          param >= 32 ? 64 : static_cast<uint32_t>(2 * param);
      auto llen_of = [&](uint32_t row) {
        return left.lengths_[row * left.len_width_ +
                             static_cast<size_t>(atom.len_slot[0])];
      };
      auto rlen_of = [&](uint32_t row) {
        return right.lengths_[row * right.len_width_ +
                              static_cast<size_t>(atom.len_slot[1])];
      };
      auto lsig_of = [&](uint32_t row) {
        return left.sigs_[row * left.sig_width_ +
                          static_cast<size_t>(atom.sig_slot[0])];
      };
      auto rsig_of = [&](uint32_t row) {
        return right.sigs_[row * right.sig_width_ +
                           static_cast<size_t>(atom.sig_slot[1])];
      };
      if (sparse) {
        uint64_t result = 0;
        uint64_t bits = eval;
        bool prepared = false;
        while (bits != 0) {
          const int i = std::countr_zero(bits);
          bits &= bits - 1;
          const uint32_t lr = lrow(i);
          const uint32_t rr = rrows[i];
          const uint32_t ll = llen_of(lr);
          const uint32_t rl = rlen_of(rr);
          const uint32_t gap = ll > rl ? ll - rl : rl - ll;
          if (gap > gap_limit) continue;
          if (std::popcount(lsig_of(lr) ^ rsig_of(rr)) >
              static_cast<int>(sig_limit)) {
            continue;
          }
          const Tuple& lt = *left.tuples_[lr];
          const Tuple& rt = *right.tuples_[rr];
          const std::string& a = lt.value(atom.conjunct.attrs.left);
          const std::string& b = rt.value(atom.conjunct.attrs.right);
          if (a == b) {
            result |= uint64_t{1} << i;
            continue;
          }
          bool holds;
          if (is_strip && a.size() <= 64) {
            if (!prepared) {
              scratch->Reset(a);
              prepared = true;
            }
            holds = scratch->BoundedDistance(b, param) <= param;
          } else {
            holds = sim::LevenshteinDistanceBounded(a, b, param) <= param;
          }
          if (holds) result |= uint64_t{1} << i;
        }
        return result;
      }
      alignas(32) uint32_t rlen[64];
      alignas(32) uint64_t rsig[64];
      for (uint32_t i = 0; i < count; ++i) {
        rlen[i] = rlen_of(rrows[i]);
        rsig[i] = rsig_of(rrows[i]);
      }
      uint64_t pass;
      if (is_strip) {
        pass = simd::AbsDiffLeMaskU32(level, rlen, llen_of(batch.left_row),
                                      gap_limit, count) &
               simd::XorPopcountLeMaskU64(level, rsig, lsig_of(batch.left_row),
                                          sig_limit, count);
      } else {
        alignas(32) uint32_t llen[64];
        alignas(32) uint64_t lsig[64];
        alignas(32) uint32_t gap_limits[64];
        alignas(32) uint32_t sig_limits[64];
        for (uint32_t i = 0; i < count; ++i) {
          llen[i] = llen_of(lrows[base + i]);
          lsig[i] = lsig_of(lrows[base + i]);
          gap_limits[i] = gap_limit;
          sig_limits[i] = sig_limit;
        }
        pass = simd::AbsDiffLeMaskU32(level, rlen, llen, gap_limits, count) &
               simd::XorPopcountLeMaskU64(level, rsig, lsig, sig_limits,
                                          count);
      }
      count_simd();
      // Survivors take the exact bounded kernel; on strips the left
      // pattern's Peq tables build once and scan every lane.
      uint64_t result = 0;
      uint64_t residual = eval & pass;
      bool prepared = false;
      while (residual != 0) {
        const int i = std::countr_zero(residual);
        residual &= residual - 1;
        const Tuple& lt = *left.tuples_[lrow(i)];
        const Tuple& rt = *right.tuples_[rrows[i]];
        const std::string& a = lt.value(atom.conjunct.attrs.left);
        const std::string& b = rt.value(atom.conjunct.attrs.right);
        if (a == b) {
          result |= uint64_t{1} << i;
          continue;
        }
        bool holds;
        if (is_strip && a.size() <= 64) {
          if (!prepared) {
            scratch->Reset(a);
            prepared = true;
          }
          holds = scratch->BoundedDistance(b, param) <= param;
        } else {
          holds = sim::LevenshteinDistanceBounded(a, b, param) <= param;
        }
        if (holds) result |= uint64_t{1} << i;
      }
      return result;
    }
    case sim::SimOpKind::kDl: {
      const double theta = atom.info.threshold;
      auto llen_of = [&](uint32_t row) {
        return left.lengths_[row * left.len_width_ +
                             static_cast<size_t>(atom.len_slot[0])];
      };
      auto rlen_of = [&](uint32_t row) {
        return right.lengths_[row * right.len_width_ +
                              static_cast<size_t>(atom.len_slot[1])];
      };
      auto lsig_of = [&](uint32_t row) {
        return left.sigs_[row * left.sig_width_ +
                          static_cast<size_t>(atom.sig_slot[0])];
      };
      auto rsig_of = [&](uint32_t row) {
        return right.sigs_[row * right.sig_width_ +
                           static_cast<size_t>(atom.sig_slot[1])];
      };
      if (sparse) {
        uint64_t result = 0;
        uint64_t bits = eval;
        bool prepared = false;
        while (bits != 0) {
          const int i = std::countr_zero(bits);
          bits &= bits - 1;
          const uint32_t lr = lrow(i);
          const uint32_t rr = rrows[i];
          const uint32_t ll = llen_of(lr);
          const uint32_t rl = rlen_of(rr);
          const size_t budget =
              sim::DlEditBudget(theta, std::max<uint32_t>(ll, rl));
          const uint32_t gap = ll > rl ? ll - rl : rl - ll;
          if (gap > budget) continue;
          if (budget < 32 &&
              std::popcount(lsig_of(lr) ^ rsig_of(rr)) >
                  static_cast<int>(2 * budget)) {
            continue;
          }
          const Tuple& lt = *left.tuples_[lr];
          const Tuple& rt = *right.tuples_[rr];
          const std::string& a = lt.value(atom.conjunct.attrs.left);
          const std::string& b = rt.value(atom.conjunct.attrs.right);
          bool holds;
          if (is_strip && a.size() <= 64) {
            if (!prepared) {
              scratch->Reset(a);
              prepared = true;
            }
            holds = sim::DlSimilarPrepared(*scratch, a, b, theta);
          } else {
            holds = sim::DlSimilar(a, b, theta);
          }
          if (holds) result |= uint64_t{1} << i;
        }
        return result;
      }
      alignas(32) uint32_t rlen[64];
      alignas(32) uint64_t rsig[64];
      alignas(32) uint32_t llen[64];
      alignas(32) uint64_t lsig[64];
      alignas(32) uint32_t budgets[64];
      alignas(32) uint32_t sig_limits[64];
      for (uint32_t i = 0; i < count; ++i) {
        rlen[i] = rlen_of(rrows[i]);
        rsig[i] = rsig_of(rrows[i]);
        const uint32_t ll = llen_of(lrow(i));
        llen[i] = ll;
        lsig[i] = lsig_of(lrow(i));
        const size_t budget =
            sim::DlEditBudget(theta, std::max<uint32_t>(ll, rlen[i]));
        budgets[i] =
            budget > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(budget);
        sig_limits[i] = budget >= 32 ? 64 : static_cast<uint32_t>(2 * budget);
      }
      // gap > budget => DL > budget; popcount(sig xor) > 2*budget likewise
      // (one DL edit flips at most two presence bits). Both only prove
      // false where the exact test is false.
      const uint64_t pass =
          simd::AbsDiffLeMaskU32(level, rlen, llen, budgets, count) &
          simd::XorPopcountLeMaskU64(level, rsig, lsig, sig_limits, count);
      count_simd();
      uint64_t result = 0;
      uint64_t residual = eval & pass;
      bool prepared = false;
      while (residual != 0) {
        const int i = std::countr_zero(residual);
        residual &= residual - 1;
        const Tuple& lt = *left.tuples_[lrow(i)];
        const Tuple& rt = *right.tuples_[rrows[i]];
        const std::string& a = lt.value(atom.conjunct.attrs.left);
        const std::string& b = rt.value(atom.conjunct.attrs.right);
        bool holds;
        if (is_strip && a.size() <= 64) {
          if (!prepared) {
            scratch->Reset(a);
            prepared = true;
          }
          holds = sim::DlSimilarPrepared(*scratch, a, b, theta);
        } else {
          holds = sim::DlSimilar(a, b, theta);
        }
        if (holds) result |= uint64_t{1} << i;
      }
      return result;
    }
    default: {
      // Phonetic / q-gram / Jaro / prefix / custom atoms take the scalar
      // kernel lane by lane (profiles still apply).
      uint64_t result = 0;
      uint64_t bits = eval;
      while (bits != 0) {
        const int i = std::countr_zero(bits);
        bits &= bits - 1;
        const uint32_t lr = lrow(i);
        const uint32_t rr = rrows[i];
        if (EvalAtom(atom, *left.tuples_[lr], *right.tuples_[rr],
                     left.profiles_[lr], right.profiles_[rr])) {
          result |= uint64_t{1} << i;
        }
      }
      return result;
    }
  }
}

void CompiledEvaluator::MatchesBatch(const BatchColumns& left,
                                     const BatchColumns& right,
                                     const PairBatch& batch,
                                     uint8_t* decisions,
                                     BatchStats* stats) const {
  assert(SupportsBatch());
  if (stats != nullptr) ++stats->strips;
  const bool rules_trivial =
      mode_ == Mode::kRules && (always_match_ || num_rules_ == 0);
  for (uint32_t base = 0; base < batch.size; base += 64) {
    const uint32_t count = std::min<uint32_t>(64, batch.size - base);
    const uint64_t active =
        count == 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
    if (stats != nullptr) {
      stats->lanes += static_cast<uint64_t>(std::popcount(active));
    }
    if (rules_trivial) {
      uint64_t bits = active;
      while (bits != 0) {
        const int i = std::countr_zero(bits);
        bits &= bits - 1;
        decisions[base + i] = always_match_ ? 1 : 0;
      }
      continue;
    }
    sim::MyersPattern scratch;
    if (mode_ == Mode::kRules) {
      // Transposed rule state: per RULE, the mask of lanes for which every
      // atom of the rule seen so far held (rule_ok). A lane matches once
      // the rule's last atom (in evaluation order) is reached with the
      // lane still in rule_ok — the same condition as MatchesRules'
      // pending count hitting zero — and fails once it drops out of every
      // rule. Bookkeeping is O(rules-per-atom) mask ops per atom instead
      // of per-lane scans; the atoms evaluated per lane are exactly the
      // scalar path's (eval = undecided lanes with the atom in some
      // still-alive rule).
      uint64_t rule_ok[64];
      for (size_t r = 0; r < num_rules_; ++r) rule_ok[r] = active;
      uint64_t bits = active;
      while (bits != 0) {
        const int i = std::countr_zero(bits);
        bits &= bits - 1;
        decisions[base + i] = 0;
      }
      uint64_t undecided = active;
      for (size_t ai = 0; ai < atoms_.size() && undecided != 0; ++ai) {
        const Atom& atom = atoms_[ai];
        uint64_t possible = 0;
        uint64_t rules = atom.rules;
        while (rules != 0) {
          const int r = std::countr_zero(rules);
          rules &= rules - 1;
          possible |= rule_ok[r];
        }
        const uint64_t eval = undecided & possible;
        if (eval == 0) continue;
        const uint64_t holds =
            EvalAtomChunk(atom, left, right, batch, base, count, eval,
                          &scratch, stats);
        const uint64_t kill = eval & ~holds;
        uint64_t satisfied = 0;
        rules = atom.rules;
        while (rules != 0) {
          const int r = std::countr_zero(rules);
          rules &= rules - 1;
          rule_ok[r] &= ~kill;
          if (rule_last_atom_[r] == ai) satisfied |= rule_ok[r];
        }
        uint64_t won = satisfied & undecided;
        if (won != 0) {
          undecided &= ~won;
          while (won != 0) {
            const int i = std::countr_zero(won);
            won &= won - 1;
            decisions[base + i] = 1;
          }
        }
        if (kill != 0) {
          uint64_t any = 0;
          for (size_t r = 0; r < num_rules_; ++r) any |= rule_ok[r];
          undecided &= any;
        }
      }
      // Lanes still undecided exhausted the atom table without
      // satisfying a rule; their 0 is already written.
    } else {
      // FS: per-lane agreement pattern with exactly MatchesFs' bound
      // checks after each atom, in the same atom and element order. The
      // unknown mask evolves identically on every lane (the &= ~fs_bits
      // update does not depend on the atom's outcome, and applying it
      // when the intersection is empty is a no-op), so it is hoisted out
      // of the lanes, atoms are skipped all-or-nothing, and the two bound
      // scores are pure functions of the lane's agree pattern — memoized
      // per atom step, since most lanes of a chunk share few distinct
      // patterns. Memoization returns the identical double for an
      // identical pattern, so decisions stay exactly MatchesFs'.
      uint32_t agree[64];
      const uint32_t full = fs_width_ >= 32 ? ~uint32_t{0}
                                            : (uint32_t{1} << fs_width_) - 1;
      uint64_t bits = active;
      while (bits != 0) {
        const int i = std::countr_zero(bits);
        bits &= bits - 1;
        agree[i] = 0;
      }
      uint32_t unknown = full;
      uint64_t undecided = active;
      for (size_t ai = 0; ai < atoms_.size() && undecided != 0; ++ai) {
        const Atom& atom = atoms_[ai];
        if ((unknown & atom.fs_bits) == 0) continue;
        const uint64_t eval = undecided;
        const uint64_t holds =
            EvalAtomChunk(atom, left, right, batch, base, count, eval,
                          &scratch, stats);
        unknown &= ~atom.fs_bits;
        const uint32_t up_mask = unknown & agree_minimizes_;
        const uint32_t lo_mask = unknown & ~agree_minimizes_;
        uint32_t memo_pattern[8];
        double memo_up[8];
        double memo_lo[8];
        int memo_size = 0;
        uint64_t lanes = eval;
        while (lanes != 0) {
          const int i = std::countr_zero(lanes);
          lanes &= lanes - 1;
          const uint64_t lane_bit = uint64_t{1} << i;
          if ((holds & lane_bit) != 0) agree[i] |= atom.fs_bits;
          const uint32_t pattern = agree[i];
          double up;
          double lo;
          int m = 0;
          while (m < memo_size && memo_pattern[m] != pattern) ++m;
          if (m < memo_size) {
            up = memo_up[m];
            lo = memo_lo[m];
          } else {
            up = ScorePattern(pattern | up_mask);
            lo = ScorePattern(pattern | lo_mask);
            if (memo_size < 8) {
              memo_pattern[memo_size] = pattern;
              memo_up[memo_size] = up;
              memo_lo[memo_size] = lo;
              ++memo_size;
            }
          }
          if (up >= threshold_) {
            decisions[base + i] = 1;
            undecided &= ~lane_bit;
          } else if (lo < threshold_) {
            decisions[base + i] = 0;
            undecided &= ~lane_bit;
          }
        }
      }
      uint64_t leftover = undecided;
      while (leftover != 0) {
        const int i = std::countr_zero(leftover);
        leftover &= leftover - 1;
        decisions[base + i] = ScorePattern(agree[i]) >= threshold_ ? 1 : 0;
      }
    }
  }
}

}  // namespace mdmatch::match
