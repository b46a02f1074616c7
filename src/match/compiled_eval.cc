#include "match/compiled_eval.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "sim/edit_distance.h"
#include "sim/jaro.h"
#include "sim/phonetic.h"

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

}  // namespace

int CompiledEvaluator::CostRank(const sim::SimOpInfo& info) {
  switch (info.kind) {
    case sim::SimOpKind::kEquality:
      return 0;
    case sim::SimOpKind::kPrefix:
      return 1;
    case sim::SimOpKind::kSoundex:
    case sim::SimOpKind::kNysiis:
      return 2;  // code compare over the profiles
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
  assert(rules.size() <= kMaxRules && "rule set too large for rule masks");
  CompiledEvaluator eval;
  eval.mode_ = Mode::kRules;
  eval.ops_ = &ops;
  eval.num_rules_ = rules.size();
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
  }
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
    const RecordProfile left_profile = ProfileRecord(left, 0);
    const RecordProfile right_profile = ProfileRecord(right, 1);
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (EvalAtom(atoms_[i], left, right, left_profile, right_profile)) {
        ++agree[i];
      }
    }
  }
  for (size_t i = 0; i < atoms_.size(); ++i) {
    atoms_[i].agree_rate =
        static_cast<double>(agree[i]) / static_cast<double>(sample.size());
  }
  SortAtoms();
  AssignProfileSlots();
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
    profile.signatures.push_back(sim::MakeEditSignature(tuple.value(attr)));
  }
  return profile;
}

bool CompiledEvaluator::EvalAtom(const Atom& atom, const Tuple& left,
                                 const Tuple& right,
                                 const RecordProfile& left_profile,
                                 const RecordProfile& right_profile) const {
  // Edit-distance atoms consult the profiles before the tuples: the stored
  // lengths give the budget and the signature bound rejects most pairs
  // without reading either string. Equal values have bound 0, so every
  // pair the a == b short-circuit below accepts gets past this check.
  if (atom.sig_slot[0] >= 0) {
    const sim::EditSignature& sa = left_profile.signatures[atom.sig_slot[0]];
    const sim::EditSignature& sb = right_profile.signatures[atom.sig_slot[1]];
    const size_t budget =
        atom.info.kind == sim::SimOpKind::kDl
            ? sim::DlEditBudget(atom.info.threshold,
                                std::max(sa.length, sb.length))
            : atom.info.param;
    if (sim::EditDistanceLowerBound(sa, sb) > budget) return false;
  }
  const std::string& a = left.value(atom.conjunct.attrs.left);
  const std::string& b = right.value(atom.conjunct.attrs.right);
  if (atom.info.kind == sim::SimOpKind::kEquality) return a == b;
  // Registered predicates are wrapped so equality short-circuits to true
  // (the subsumption axiom); mirror that here.
  if (a == b) return true;
  switch (atom.info.kind) {
    case sim::SimOpKind::kDl:
      return sim::DlSimilar(a, b, atom.info.threshold);
    case sim::SimOpKind::kLevenshtein:
      return sim::LevenshteinDistanceBounded(a, b, atom.info.param) <=
             atom.info.param;
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
    case sim::SimOpKind::kNysiis:
      return left_profile.codes[atom.code_slot[0]] ==
             right_profile.codes[atom.code_slot[1]];
    case sim::SimOpKind::kQGram2:
      return GramSetJaccard(left_profile.grams[atom.gram_slot[0]],
                            right_profile.grams[atom.gram_slot[1]]) >=
             atom.info.threshold;
    case sim::SimOpKind::kEquality:
    case sim::SimOpKind::kCustom:
      // Eval's wrapped predicate also short-circuits a == b, so reaching it
      // only for a != b is equivalent.
      return ops_->Eval(atom.conjunct.op, a, b);
  }
  return ops_->Eval(atom.conjunct.op, a, b);
}

bool CompiledEvaluator::MatchesRules(const Tuple& left, const Tuple& right,
                                     const RecordProfile& left_profile,
                                     const RecordProfile& right_profile) const {
  if (always_match_) return true;
  if (num_rules_ == 0) return false;
  uint64_t alive = num_rules_ == kMaxRules ? ~uint64_t{0}
                                           : (uint64_t{1} << num_rules_) - 1;
  uint16_t pending[kMaxRules];
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
                                  const RecordProfile& left_profile,
                                  const RecordProfile& right_profile) const {
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
                                const RecordProfile& left_profile,
                                const RecordProfile& right_profile) const {
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

}  // namespace mdmatch::match
