#include "api/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "core/find_rcks.h"
#include "match/comparison.h"
#include "util/stopwatch.h"

namespace mdmatch::api {

namespace {

std::string RenderKeyFunction(const match::KeyFunction& key,
                              const SchemaPair& pair) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < key.elements().size(); ++i) {
    const auto& e = key.elements()[i];
    if (i > 0) out << ", ";
    out << pair.left().attribute(e.attrs.left).name << "/"
        << pair.right().attribute(e.attrs.right).name;
    if (e.soundex) out << "~soundex";
    if (e.prefix > 0) out << "~prefix" << e.prefix;
  }
  out << "]";
  return out.str();
}

}  // namespace

std::string MatchPlan::Describe() const {
  std::ostringstream out;
  out << "MatchPlan: "
      << (options_.matcher == PlanOptions::Matcher::kRuleBased
              ? "rule-based"
              : "fellegi-sunter")
      << " matcher over "
      << (options_.candidates == PlanOptions::Candidates::kWindowing
              ? "windowing"
              : "blocking")
      << " candidates\n";
  out << "  schema pair: " << pair_.left().name() << "("
      << pair_.left().arity() << ") / " << pair_.right().name() << "("
      << pair_.right().arity()
      << "), |Y| = " << target_.size() << ", card(Sigma) = " << sigma_.size()
      << "\n";
  out << "  RCKs (" << rcks_.size() << "):\n";
  for (const auto& key : rcks_) {
    out << "    " << key.ToString(pair_, *ops_) << "\n";
  }
  if (options_.candidates == PlanOptions::Candidates::kWindowing) {
    out << "  sort keys (window = " << options_.window_size << "):\n";
    for (const auto& key : sort_keys_) {
      out << "    " << RenderKeyFunction(key, pair_) << "\n";
    }
  } else {
    out << "  blocking key: " << RenderKeyFunction(block_key_, pair_) << "\n";
  }
  if (!rules_.empty()) {
    out << "  match rules (" << rules_.size() << "):\n";
    for (const auto& rule : rules_) {
      out << "    " << rule.ToString(pair_, *ops_) << "\n";
    }
  }
  if (fs_) {
    out << "  fellegi-sunter: " << fs_->vector().size()
        << "-element vector, threshold " << fs_->Threshold() << "\n";
  }
  out << "  compile: deduce " << stats_.deduce_seconds << "s ("
      << stats_.closure_calls << " closure calls), derive "
      << stats_.derive_seconds << "s, train " << stats_.train_seconds
      << "s\n";
  return out.str();
}

PlanBuilder::PlanBuilder(SchemaPair pair, ComparableLists target,
                         sim::SimOpRegistry* ops)
    : pair_(std::move(pair)), target_(std::move(target)), ops_(ops) {}

PlanBuilder& PlanBuilder::WithSigma(MdSet sigma) {
  sigma_ = std::move(sigma);
  return *this;
}

PlanBuilder& PlanBuilder::WithOptions(PlanOptions options) {
  options_ = std::move(options);
  return *this;
}

PlanBuilder& PlanBuilder::WithQuality(QualityModel quality) {
  quality_ = std::move(quality);
  return *this;
}

PlanBuilder& PlanBuilder::WithTrainingInstance(const Instance* instance,
                                               bool estimate_lengths) {
  training_ = instance;
  estimate_lengths_ = estimate_lengths;
  return *this;
}

PlanBuilder& PlanBuilder::WithPrecompiledRcks(std::vector<RelativeKey> rcks) {
  injected_rcks_ = std::move(rcks);
  return *this;
}

PlanBuilder& PlanBuilder::WithRules(std::vector<match::MatchRule> rules) {
  injected_rules_ = std::move(rules);
  return *this;
}

PlanBuilder& PlanBuilder::WithSortKeys(std::vector<match::KeyFunction> keys) {
  injected_sort_keys_ = std::move(keys);
  return *this;
}

PlanBuilder& PlanBuilder::WithBlockKey(match::KeyFunction key) {
  injected_block_key_ = std::move(key);
  return *this;
}

PlanBuilder& PlanBuilder::WithFsBasis(match::ComparisonVector vector,
                                      match::FsModel model) {
  injected_fs_ = std::make_pair(std::move(vector), std::move(model));
  return *this;
}

Result<PlanPtr> PlanBuilder::Build() {
  if (ops_ == nullptr) {
    return Status::InvalidArgument("PlanBuilder requires a SimOpRegistry");
  }
  if (target_.size() == 0) {
    return Status::InvalidArgument("empty target lists (Y1, Y2)");
  }
  if (options_.matcher == PlanOptions::Matcher::kFellegiSunter &&
      !injected_fs_ && training_ == nullptr) {
    // Checked before the (expensive) deduction below, not in compile
    // step 3 where the basis is assembled.
    return Status::InvalidArgument(
        "Fellegi-Sunter plans need a training instance "
        "(WithTrainingInstance) or an injected model (WithFsBasis)");
  }
  if (options_.window_size > UINT32_MAX) {
    // Record positions are uint32_t, so no corpus is wider than this.
    return Status::InvalidArgument(
        "window_size " + std::to_string(options_.window_size) + " exceeds " +
        std::to_string(UINT32_MAX) + ": corpus positions are 32-bit");
  }
  if (!std::isfinite(options_.relax_theta) || options_.relax_theta < 0 ||
      options_.relax_theta > 1) {
    // A similarity threshold is a fraction; above 1 the θ-DL edit budget
    // goes negative.
    return Status::InvalidArgument(
        "relax_theta " + std::to_string(options_.relax_theta) +
        " is not a similarity threshold in [0, 1]");
  }
  MDMATCH_RETURN_NOT_OK(ValidateSet(pair_, sigma_));

  // MatchPlan's constructor is private (builder-only construction), so
  // make_shared cannot reach it; the pointer goes straight into a
  // shared_ptr. mdmatch-lint: allow(naked-new)
  std::shared_ptr<MatchPlan> plan(new MatchPlan());
  plan->pair_ = pair_;
  plan->target_ = target_;
  plan->sigma_ = sigma_;
  plan->options_ = options_;
  plan->ops_ = ops_;

  if (training_ != nullptr && estimate_lengths_) {
    quality_.EstimateLengthsFromData(*training_, sigma_, target_);
  }

  CompileStats stats;

  // --- compile step 1: deduce the RCK set Γ (findRCKs, Fig. 7) ---
  if (injected_rcks_) {
    plan->rcks_ = *injected_rcks_;
  } else {
    ScopedTimer timer(&stats.deduce_seconds);
    FindRcksOptions fopt;
    fopt.m = options_.num_rcks;
    FindRcksResult found =
        FindRcks(pair_, *ops_, sigma_, target_, fopt, &quality_);
    plan->rcks_ = std::move(found.rcks);
    stats.closure_calls = found.closure_calls;
    stats.deduced = true;
  }
  if (plan->rcks_.empty()) {
    return Status::FailedPrecondition("no RCK deducible from Σ");
  }

  const size_t top_k = std::min(options_.top_k, plan->rcks_.size());
  std::vector<RelativeKey> top(plan->rcks_.begin(),
                               plan->rcks_.begin() + top_k);

  // --- compile step 2: derive candidate-generation keys and the match
  // basis from (part of) the RCKs ---
  {
    ScopedTimer timer(&stats.derive_seconds);
    if (options_.candidates == PlanOptions::Candidates::kWindowing) {
      if (injected_sort_keys_) {
        plan->sort_keys_ = *injected_sort_keys_;
      } else {
        for (const auto& key : top) {
          plan->sort_keys_.push_back(match::KeyFunction::FromKeyElementsByCost(
              key, pair_, quality_, options_.key_attrs,
              options_.soundex_domains));
        }
      }
    } else {
      if (injected_block_key_) {
        plan->block_key_ = *injected_block_key_;
      } else {
        RelativeKey merged;
        for (size_t i = 0; i < top.size() && i < 2; ++i) {
          for (const auto& e : top[i].elements()) merged.AddUnique(e);
        }
        plan->block_key_ = match::KeyFunction::FromKeyElementsByCost(
            merged, pair_, quality_, options_.key_attrs,
            options_.soundex_domains);
      }
    }

    if (options_.matcher == PlanOptions::Matcher::kRuleBased) {
      if (injected_rules_) {
        plan->rules_ = *injected_rules_;
      } else {
        plan->rules_.assign(top.begin(), top.end());
        if (options_.relax_theta > 0) {
          plan->rules_ = match::RelaxRulesForMatching(
              plan->rules_, ops_->Dl(options_.relax_theta));
        }
      }
      if (plan->rules_.size() > match::CompiledEvaluator::kMaxRules) {
        return Status::InvalidArgument(
            std::to_string(plan->rules_.size()) + " match rules exceed the " +
            std::to_string(match::CompiledEvaluator::kMaxRules) +
            " a compiled rule mask holds");
      }
    }
  }

  // --- compile step 3: assemble (and train) the Fellegi-Sunter basis ---
  if (options_.matcher == PlanOptions::Matcher::kFellegiSunter) {
    if (injected_fs_) {
      // Injected bases skip Train() and with it its width validation; the
      // pattern-word limit must still hold (silent truncation otherwise).
      MDMATCH_RETURN_NOT_OK(injected_fs_->first.CheckPatternWidth());
      plan->fs_.emplace(injected_fs_->first, options_.fs_options);
      plan->fs_->SetModel(injected_fs_->second);
    } else {
      match::ComparisonVector vector =
          match::ComparisonVector::UnionOfKeys(top, top_k);
      if (options_.relax_theta > 0) {
        vector = match::RelaxVectorForMatching(
            vector, ops_->Dl(options_.relax_theta));
      }
      MDMATCH_RETURN_NOT_OK(vector.CheckPatternWidth());
      plan->fs_.emplace(std::move(vector), options_.fs_options);
      ScopedTimer timer(&stats.train_seconds);
      MDMATCH_RETURN_NOT_OK(plan->fs_->Train(*training_, *ops_));
    }
  }

  // --- compile step 4: flatten the match basis into the compiled pair
  // evaluator (deduplicated atom table; selectivity seeded from the
  // training sample when one is available) ---
  {
    ScopedTimer timer(&stats.derive_seconds);
    if (options_.matcher == PlanOptions::Matcher::kRuleBased) {
      plan->evaluator_ =
          match::CompiledEvaluator::ForRules(plan->rules_, *ops_);
    } else {
      plan->evaluator_ = match::CompiledEvaluator::ForFs(
          plan->fs_->vector(), plan->fs_->model(), plan->fs_->Threshold(),
          *ops_);
    }
    if (training_ != nullptr) {
      plan->evaluator_.SeedSelectivity(*training_,
                                       /*max_pairs=*/2000,
                                       /*seed=*/options_.fs_options.seed);
    }
  }

  plan->quality_ = quality_;
  plan->stats_ = stats;
  return PlanPtr(std::move(plan));
}

}  // namespace mdmatch::api
