#ifndef MDMATCH_BENCH_BENCH_COMMON_H_
#define MDMATCH_BENCH_BENCH_COMMON_H_

// Shared helpers for the figure benches. Each bench binary regenerates one
// figure (or figure group) of the paper's Section 6 as an aligned table.
//
// Set MDMATCH_BENCH_FULL=1 to run the paper's full parameter ranges
// (K up to 80k tuples, card(Σ) up to 2000); the default ranges finish in a
// few minutes on one core.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "api/executor.h"
#include "api/plan.h"
#include "core/find_rcks.h"
#include "core/quality.h"
#include "datagen/credit_billing.h"
#include "match/comparison.h"
#include "match/hs_rules.h"
#include "util/stopwatch.h"
#include "util/table_writer.h"

namespace mdmatch::bench {

inline bool FullRun() {
  const char* env = std::getenv("MDMATCH_BENCH_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// The paper's K axis (number of base tuples per relation): 10k..80k in the
/// full run, 10k..40k by default.
inline std::vector<size_t> KRange() {
  if (FullRun()) {
    return {10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000};
  }
  return {10000, 20000, 30000, 40000};
}

/// The Fig. 8 card(Σ) axis: 200..2000 step 200 (full), half that range by
/// default.
inline std::vector<size_t> SigmaRange() {
  std::vector<size_t> out;
  size_t hi = FullRun() ? 2000 : 1000;
  for (size_t n = 200; n <= hi; n += 200) out.push_back(n);
  return out;
}

/// |Y1| = |Y2| axis of Fig. 8.
inline std::vector<size_t> YLengths() { return {6, 8, 10, 12}; }

/// RCK deduction output: the keys plus the quality model used (needed by
/// the blocking benches to pick reliable key attributes).
struct RckDeduction {
  std::vector<RelativeKey> rcks;
  QualityModel quality{1.0, 0.05, 3.0};
};

/// Deduces the RCK set for a generated credit/billing dataset. The quality
/// model estimates lt from the data and installs the default accuracy
/// profile (Section 5's "confidence placed by the user in the attributes");
/// weights de-emphasize raw length so that reliability drives the cost.
inline RckDeduction DeduceRcks(const datagen::CreditBillingData& data,
                               sim::SimOpRegistry* ops, size_t m = 10) {
  RckDeduction out;
  out.quality.EstimateLengthsFromData(data.instance, data.mds, data.target);
  datagen::ApplyDefaultAccuracies(data.pair, data.target, &out.quality);
  FindRcksOptions options;
  options.m = m;
  out.rcks =
      FindRcks(data.pair, *ops, data.mds, data.target, options, &out.quality)
          .rcks;
  return out;
}

/// The FSrck / SNrck rule basis: union of the top five RCKs under the
/// θ = 0.8 similarity test (Section 6.2 protocol). Conjuncts are ordered
/// cheapest-first under the quality model so non-matching pairs fail out
/// of a rule on a short attribute ("RCKs reduce the cost of inspecting a
/// single pair", Section 1).
/// With relax=false the RCKs are returned unrelaxed: their `=` conjuncts
/// stay exact, but conjuncts inherited from Σ's MDs keep their own
/// similarity operators (dl@0.80 on the generated corpus), so the rules
/// are not all-equality.
inline std::vector<match::MatchRule> TopRckRules(
    const std::vector<RelativeKey>& rcks, sim::SimOpRegistry* ops,
    const QualityModel& quality, size_t top_k = 5, bool relax = true) {
  std::vector<match::MatchRule> rules;
  for (size_t i = 0; i < rcks.size() && i < top_k; ++i) {
    std::vector<Conjunct> elems = rcks[i].elements();
    std::stable_sort(elems.begin(), elems.end(),
                     [&](const Conjunct& a, const Conjunct& b) {
                       return quality.Cost(a.attrs) < quality.Cost(b.attrs);
                     });
    rules.push_back(RelativeKey(std::move(elems)));
  }
  if (!relax) return rules;
  return match::RelaxRulesForMatching(rules, ops->Dl(0.8));
}

/// Wall time of one call, on the monotonic clock (util/stopwatch.h) — the
/// single timing helper the figure benches share.
inline double TimedSeconds(const std::function<void()>& body) {
  double seconds = 0;
  {
    ScopedTimer timer(&seconds);
    body();
  }
  return seconds;
}

/// The part every Exp-2/3 plan shares: Σ, the RCKs and quality model of
/// `deduction` (injected, so Build deduces nothing), the *shared* standard
/// windowing keys ("the same set of windowing keys were used in these
/// experiments to make the evaluation fair") and the training instance.
/// Each arm adds its options and match basis.
inline api::PlanBuilder ExperimentPlanBuilder(
    const datagen::CreditBillingData& data, sim::SimOpRegistry* ops,
    const RckDeduction& deduction) {
  api::PlanBuilder builder(data.pair, data.target, ops);
  builder.WithSigma(data.mds)
      .WithPrecompiledRcks(deduction.rcks)
      .WithQuality(deduction.quality)
      .WithSortKeys(match::StandardWindowKeys(data.pair))
      .WithTrainingInstance(&data.instance, /*estimate_lengths=*/false);
  return builder;
}

/// Compiles the FSrck / SNrck experiment plan of Exp-2/3 over an
/// ExperimentPlanBuilder: for rule plans the basis is the cheapest-first
/// relaxed top-k rules of TopRckRules; FS plans train EM at Build over
/// the RCK-union vector.
inline Result<api::PlanPtr> CompileExperimentPlan(
    const datagen::CreditBillingData& data, sim::SimOpRegistry* ops,
    const RckDeduction& deduction, api::PlanOptions options,
    bool relax_rules = true) {
  api::PlanBuilder builder = ExperimentPlanBuilder(data, ops, deduction);
  if (options.matcher == api::PlanOptions::Matcher::kRuleBased) {
    builder.WithRules(TopRckRules(deduction.rcks, ops, deduction.quality,
                                  options.top_k, relax_rules));
  }
  builder.WithOptions(std::move(options));
  return builder.Build();
}

/// As above, with the RCKs deduced here via DeduceRcks (options.num_rcks
/// is the m of findRCKs). The deduction runs once; executing the returned
/// plan re-deduces nothing.
inline Result<api::PlanPtr> CompileExperimentPlan(
    const datagen::CreditBillingData& data, sim::SimOpRegistry* ops,
    api::PlanOptions options, bool relax_rules = true) {
  const RckDeduction deduction = DeduceRcks(data, ops, options.num_rcks);
  return CompileExperimentPlan(data, ops, deduction, std::move(options),
                               relax_rules);
}

/// Executes a compiled experiment plan over `instance`: the figure
/// benches' one path from a plan to its matches. Exits on a failed Build
/// or Run.
inline api::ExecutionReport RunPlanOrExit(const Result<api::PlanPtr>& plan,
                                          const Instance& instance) {
  if (!plan.ok()) {
    std::fprintf(stderr, "plan failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  auto run = api::Executor(*plan).Run(instance);
  if (!run.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 run.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*run);
}

}  // namespace mdmatch::bench

#endif  // MDMATCH_BENCH_BENCH_COMMON_H_
