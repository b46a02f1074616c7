#include <algorithm>

#include "api/executor.h"
#include "core/find_rcks.h"
#include "core/quality.h"
#include "match/comparison.h"
#include "match/hs_rules.h"
#include "perfbench.h"

namespace perfbench {
namespace {

/// The view's standing raw matches addressed by record ids, sorted.
std::vector<stream::IdPair> IdPairs(const api::SessionView& view) {
  const Instance corpus = view.Corpus();
  const match::MatchResult matches = view.Matches();
  std::vector<stream::IdPair> out;
  for (const auto& [l, r] : matches.pairs()) {
    out.push_back({corpus.left().tuple(l).id(), corpus.right().tuple(r).id()});
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void OpSpans::AddFlush(const api::IngestReport& report) {
  merge += report.merge_seconds;
  scan += report.scan_seconds;
  rerank += report.rerank_seconds;
  publish += report.publish_seconds;
  candidate += report.merge_seconds + report.scan_seconds;
  eval += report.eval_seconds;
  // cluster_seconds nests the drift re-rank and the publish step; the
  // publish step is counted under deliver instead.
  cluster += report.cluster_seconds - report.publish_seconds;
  deliver += report.publish_seconds;
  pairs_evaluated += report.pairs_evaluated;
  matches_added += report.matches_added;
  publish_bytes += report.publish_bytes_copied;
}

Result<Dataset> MakeDataset(size_t num_base, uint64_t seed,
                            api::PlanOptions options) {
  Dataset out;
  out.ops = std::make_unique<sim::SimOpRegistry>();
  datagen::CreditBillingOptions gen;
  gen.num_base = num_base;
  gen.seed = seed;
  out.data = datagen::GenerateCreditBilling(gen, out.ops.get());
  const datagen::CreditBillingData& data = out.data;

  // The quality model of the paper's Section 5: attribute lengths
  // estimated from the data, accuracies from the generator's error
  // profile, and weights that let reliability drive the RCK cost.
  QualityModel quality(1.0, 0.05, 3.0);
  quality.EstimateLengthsFromData(data.instance, data.mds, data.target);
  datagen::ApplyDefaultAccuracies(data.pair, data.target, &quality);
  FindRcksOptions find;
  find.m = options.num_rcks;
  std::vector<RelativeKey> rcks =
      FindRcks(data.pair, *out.ops, data.mds, data.target, find, &quality)
          .rcks;

  api::PlanBuilder builder(data.pair, data.target, out.ops.get());
  builder.WithSigma(data.mds)
      .WithPrecompiledRcks(rcks)
      .WithQuality(quality)
      .WithSortKeys(match::StandardWindowKeys(data.pair))
      .WithTrainingInstance(&data.instance, /*estimate_lengths=*/false);
  if (options.matcher == api::PlanOptions::Matcher::kRuleBased) {
    // The top-k RCKs as rules, conjuncts cheapest-first, with "=" relaxed
    // to the θ = 0.8 similarity test.
    std::vector<match::MatchRule> rules;
    for (size_t i = 0; i < rcks.size() && i < options.top_k; ++i) {
      std::vector<Conjunct> elems = rcks[i].elements();
      std::stable_sort(elems.begin(), elems.end(),
                       [&](const Conjunct& a, const Conjunct& b) {
                         return quality.Cost(a.attrs) < quality.Cost(b.attrs);
                       });
      rules.push_back(RelativeKey(std::move(elems)));
    }
    builder.WithRules(
        match::RelaxRulesForMatching(rules, out.ops->Dl(0.8)));
  }
  builder.WithOptions(std::move(options));
  auto plan = builder.Build();
  if (!plan.ok()) return plan.status();
  out.plan = *plan;
  return out;
}

void CheckAgainstOneShot(const api::PlanPtr& plan,
                         const api::SessionView& view, Outcome* outcome) {
  const Instance corpus = view.Corpus();
  api::ExecutorOptions options;
  options.evaluate_quality = false;
  auto run = api::Executor(plan, options).Run(corpus);
  if (!run.ok()) {
    outcome->Fail("one-shot reference run failed: " +
                  run.status().ToString());
    return;
  }
  auto session_pairs = view.Matches().pairs();
  auto oneshot_pairs = run->matches.pairs();
  std::sort(session_pairs.begin(), session_pairs.end());
  std::sort(oneshot_pairs.begin(), oneshot_pairs.end());
  if (session_pairs != oneshot_pairs) {
    outcome->Fail("session holds " + std::to_string(session_pairs.size()) +
                  " matches, one-shot Executor::Run over its corpus " +
                  std::to_string(oneshot_pairs.size()));
  }
}

void CheckSameMatches(const api::SessionView& expected,
                      const api::SessionView& got, const std::string& name,
                      Outcome* outcome) {
  if (IdPairs(got) != IdPairs(expected)) {
    outcome->Fail(name + " holds other matches than the session");
  }
}

void CheckReplica(const stream::DeltaReplica& replica,
                  const api::SessionView& view, const std::string& name,
                  Outcome* outcome) {
  const std::vector<stream::IdPair> expected = IdPairs(view);
  if (replica.generation() != view.generation()) {
    outcome->Fail(name + ": replica stopped at generation " +
                  std::to_string(replica.generation()) + ", session is at " +
                  std::to_string(view.generation()));
  }
  if (!std::equal(expected.begin(), expected.end(), replica.pairs().begin(),
                  replica.pairs().end())) {
    outcome->Fail(name + ": replica holds " +
                  std::to_string(replica.pairs().size()) +
                  " pairs, session " + std::to_string(expected.size()));
  }
}

}  // namespace perfbench
