#ifndef MDMATCH_API_PLAN_H_
#define MDMATCH_API_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/md.h"
#include "core/quality.h"
#include "core/rck.h"
#include "match/comparison.h"
#include "match/compiled_eval.h"
#include "match/fellegi_sunter.h"
#include "match/key_function.h"
#include "schema/instance.h"
#include "schema/schema.h"
#include "sim/sim_op.h"
#include "util/status.h"

namespace mdmatch::api {

/// \brief Compile-time configuration of a MatchPlan.
///
/// The paper separates *reasoning about rules* (deducing RCKs from Σ,
/// deriving blocking/windowing keys and the comparison basis — Sections
/// 4-5) from *matching data*. PlanOptions parameterizes the reasoning
/// half; everything here is resolved once by PlanBuilder::Build and baked
/// into the immutable plan.
struct PlanOptions {
  enum class Matcher {
    kRuleBased,      ///< RCKs as equational-theory rules (SN style)
    kFellegiSunter,  ///< FS over the RCK-union comparison vector
  };
  enum class Candidates {
    kWindowing,  ///< multi-pass sorted window over RCK-derived sort keys
    kBlocking,   ///< blocks keyed by the top-RCK attributes
  };

  Matcher matcher = Matcher::kRuleBased;
  Candidates candidates = Candidates::kWindowing;
  size_t window_size = 10;
  size_t num_rcks = 10;  ///< m for findRCKs
  size_t top_k = 5;      ///< RCKs used for rules / comparison vector
  size_t key_attrs = 3;  ///< attributes per derived blocking/sort key
  /// Apply the θ-DL similarity test to "=" comparisons at match time
  /// (the Section 6.2 protocol); 0 disables relaxation.
  double relax_theta = 0.8;
  /// Close the match result transitively into entity clusters.
  bool transitive_closure = false;
  /// Left-schema domains to Soundex-encode inside derived keys.
  std::vector<std::string> soundex_domains = {"fname", "mname", "lname",
                                              "name"};
  match::FsOptions fs_options;
};

/// What plan compilation cost — all times from the monotonic clock
/// (util/stopwatch.h).
struct CompileStats {
  double deduce_seconds = 0;  ///< findRCKs (zero when RCKs were injected)
  double derive_seconds = 0;  ///< key / rule / comparison-basis derivation
  double train_seconds = 0;   ///< Fellegi-Sunter EM (zero for rule plans)
  size_t closure_calls = 0;   ///< MDClosure invocations during deduction
  /// True when the RCKs were deduced by this Build (false when injected
  /// via WithPrecompiledRcks / plan deserialization).
  bool deduced = false;
};

/// \brief An immutable compiled matching plan: the output of all
/// compile-time reasoning, ready to be executed over any number of
/// Instance batches.
///
/// A MatchPlan holds the deduced RCK set Γ, the candidate-generation keys
/// and the match basis (relaxed rules or a trained Fellegi-Sunter model)
/// with every similarity operator resolved against the registry. It is
/// deeply const after Build: one plan may be shared freely across threads
/// and Executors (the registry passed to PlanBuilder must outlive the plan
/// and must not be mutated while executions run).
///
/// Construction goes through PlanBuilder (or plan_io deserialization).
class MatchPlan {
 public:
  const SchemaPair& pair() const { return pair_; }
  const ComparableLists& target() const { return target_; }
  const MdSet& sigma() const { return sigma_; }
  const PlanOptions& options() const { return options_; }
  const sim::SimOpRegistry& ops() const { return *ops_; }
  /// The quality model state after deduction (diversity counters filled).
  const QualityModel& quality() const { return quality_; }

  /// The deduced RCK set Γ, best-first under the quality cost.
  const std::vector<RelativeKey>& rcks() const { return rcks_; }

  /// Match rules (top-k RCKs, "=" relaxed per relax_theta); empty for
  /// Fellegi-Sunter plans.
  const std::vector<match::MatchRule>& rules() const { return rules_; }

  /// Windowing passes (one derived sort key per top RCK); empty for
  /// blocking plans.
  const std::vector<match::KeyFunction>& sort_keys() const {
    return sort_keys_;
  }

  /// The derived blocking key; empty for windowing plans.
  const match::KeyFunction& block_key() const { return block_key_; }

  /// The trained Fellegi-Sunter matcher, or nullptr for rule-based plans.
  const match::FellegiSunter* fs() const {
    return fs_ ? &*fs_ : nullptr;
  }

  const CompileStats& compile_stats() const { return stats_; }

  /// The compiled per-pair decision kernel: the plan's rules (or FS
  /// comparison vector) flattened into a deduplicated atom table at Build
  /// time, with per-atom selectivity seeded from the training sample when
  /// one was supplied. MatchesPair runs through it; callers that can
  /// amortize per-record derived values (Executor batches, MatchSession
  /// records) use it directly via ProfileRecord.
  const match::CompiledEvaluator& evaluator() const { return evaluator_; }

  /// Applies the plan's match basis (relaxed rules or the trained FS
  /// model) to one tuple pair. Deterministic and thread-safe; the single
  /// per-pair decision the Executor's match stage and the MatchSession's
  /// incremental flush both consult. Decision-equivalent to evaluating the
  /// rules / FS model naively — the compiled path changes cost only.
  bool MatchesPair(const Tuple& left, const Tuple& right) const;

  /// MatchesPair over precomputed record profiles (either may be null).
  bool MatchesPair(const Tuple& left, const Tuple& right,
                   const match::RecordProfile* left_profile,
                   const match::RecordProfile* right_profile) const;

  /// Human-readable multi-line summary (RCKs, derived keys, matcher).
  std::string Describe() const;

 private:
  friend class PlanBuilder;
  MatchPlan() = default;

  SchemaPair pair_;
  ComparableLists target_;
  MdSet sigma_;
  PlanOptions options_;
  const sim::SimOpRegistry* ops_ = nullptr;
  QualityModel quality_;

  std::vector<RelativeKey> rcks_;
  std::vector<match::MatchRule> rules_;
  std::vector<match::KeyFunction> sort_keys_;
  match::KeyFunction block_key_;
  std::optional<match::FellegiSunter> fs_;
  match::CompiledEvaluator evaluator_;
  CompileStats stats_;
};

/// Plans are shared: Executors, sessions and their worker threads all
/// hold references to one compiled artifact.
using PlanPtr = std::shared_ptr<const MatchPlan>;

/// \brief Fluent compiler for MatchPlans.
///
///   auto plan = api::PlanBuilder(pair, target, &ops)
///                   .WithSigma(sigma)
///                   .WithOptions(options)
///                   .WithTrainingInstance(&sample)
///                   .Build();
///
/// Build runs the full compile-time half of the paper's workflow: validate
/// Σ, deduce Γ with findRCKs, derive sort/blocking keys from the top RCKs,
/// resolve the relaxation operator, and (for FS plans) assemble and train
/// the comparison basis. The expensive steps run exactly once per Build;
/// executing the resulting plan never re-deduces.
class PlanBuilder {
 public:
  /// `ops` must be non-null and outlive the built plan; Build may register
  /// the relaxation operator (Dl(relax_theta)) in it.
  PlanBuilder(SchemaPair pair, ComparableLists target,
              sim::SimOpRegistry* ops);

  /// The MD set Σ reasoning starts from.
  PlanBuilder& WithSigma(MdSet sigma);

  PlanBuilder& WithOptions(PlanOptions options);

  /// Seeds the quality model (weights, lengths, accuracies). Defaults to
  /// QualityModel() when not called.
  PlanBuilder& WithQuality(QualityModel quality);

  /// Uses (and mutates) the caller's quality model during compilation
  /// instead of the internal copy — findRCKs fills its diversity counters,
  /// so the caller can inspect them afterwards. The pointer is only used
  /// during Build.
  PlanBuilder& UpdateQuality(QualityModel* external);

  /// Data used at compile time: estimates attribute lengths for the
  /// quality model (when `estimate_lengths`) and trains the
  /// Fellegi-Sunter model for FS plans. The pointer is only used during
  /// Build. FS plans fail to Build without a training instance (unless a
  /// model is injected via WithFsBasis).
  PlanBuilder& WithTrainingInstance(const Instance* instance,
                                    bool estimate_lengths = true);

  /// Injects an already-deduced RCK set and skips findRCKs (plan
  /// deserialization, or sharing one deduction across plan variants).
  PlanBuilder& WithPrecompiledRcks(std::vector<RelativeKey> rcks);

  /// Overrides the derived match rules (rule-based plans). The rules are
  /// used as-is — no top-k selection or relaxation is applied.
  PlanBuilder& WithRules(std::vector<match::MatchRule> rules);

  /// Overrides the derived windowing sort keys.
  PlanBuilder& WithSortKeys(std::vector<match::KeyFunction> keys);

  /// Overrides the derived blocking key.
  PlanBuilder& WithBlockKey(match::KeyFunction key);

  /// Injects a comparison vector and trained model for FS plans, skipping
  /// EM training (plan deserialization).
  PlanBuilder& WithFsBasis(match::ComparisonVector vector,
                           match::FsModel model);

  /// Compiles the plan. Fails when Σ is invalid for the schema pair, the
  /// target is empty, no RCK can be deduced, or an FS plan has neither a
  /// training instance nor an injected model.
  Result<PlanPtr> Build();

 private:
  SchemaPair pair_;
  ComparableLists target_;
  sim::SimOpRegistry* ops_;
  MdSet sigma_;
  PlanOptions options_;
  QualityModel quality_;
  QualityModel* external_quality_ = nullptr;
  const Instance* training_ = nullptr;
  bool estimate_lengths_ = true;

  std::optional<std::vector<RelativeKey>> injected_rcks_;
  std::optional<std::vector<match::MatchRule>> injected_rules_;
  std::optional<std::vector<match::KeyFunction>> injected_sort_keys_;
  std::optional<match::KeyFunction> injected_block_key_;
  std::optional<std::pair<match::ComparisonVector, match::FsModel>>
      injected_fs_;
};

}  // namespace mdmatch::api

#endif  // MDMATCH_API_PLAN_H_
