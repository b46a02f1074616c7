// Blocking and windowing with RCK-derived keys (the paper's Exp-4 use
// case, at example scale): generate a dirty credit/billing dataset,
// compile one plan per candidate-generation strategy — sharing a single
// RCK deduction — execute them, and compare pairs completeness /
// reduction ratio against manually chosen keys.

#include <cstdio>

#include "api/executor.h"
#include "api/plan.h"
#include "candidate/windowing.h"
#include "datagen/credit_billing.h"
#include "match/blocking.h"
#include "match/evaluation.h"
#include "match/hs_rules.h"

using namespace mdmatch;
using namespace mdmatch::match;

int main() {
  sim::SimOpRegistry ops;
  datagen::CreditBillingOptions gen;
  gen.num_base = 2000;
  gen.seed = 5;
  datagen::CreditBillingData data = datagen::GenerateCreditBilling(gen, &ops);
  std::printf("dataset: %zu credit tuples, %zu billing tuples, %zu true "
              "match pairs\n",
              data.instance.left().size(), data.instance.right().size(),
              CountTruePairs(data.instance));

  // Compile the blocking plan: this Build runs the one findRCKs deduction
  // of the example.
  api::PlanOptions block_opt;
  block_opt.candidates = api::PlanOptions::Candidates::kBlocking;
  block_opt.soundex_domains = {"fname", "mname", "lname"};
  auto block_plan = api::PlanBuilder(data.pair, data.target, &ops)
                        .WithSigma(data.mds)
                        .WithOptions(block_opt)
                        .WithTrainingInstance(&data.instance)
                        .Build();
  if (!block_plan.ok()) {
    std::printf("plan error: %s\n", block_plan.status().ToString().c_str());
    return 1;
  }

  std::printf("\n== deduced RCKs (deduced once, shared by both plans) ==\n");
  for (const auto& key : (*block_plan)->rcks()) {
    std::printf("  %s\n", key.ToString(data.pair, ops).c_str());
  }

  // The windowing plan reuses the deduction — WithPrecompiledRcks skips
  // findRCKs entirely (compile_stats().deduced stays false).
  api::PlanOptions window_opt = block_opt;
  window_opt.candidates = api::PlanOptions::Candidates::kWindowing;
  auto window_plan = api::PlanBuilder(data.pair, data.target, &ops)
                         .WithSigma(data.mds)
                         .WithOptions(window_opt)
                         .WithPrecompiledRcks((*block_plan)->rcks())
                         .WithQuality((*block_plan)->quality())
                         .Build();
  if (!window_plan.ok()) {
    std::printf("plan error: %s\n", window_plan.status().ToString().c_str());
    return 1;
  }

  auto report = [&](const char* title, const CandidateQuality& q,
                    const BlockingStats* stats) {
    std::printf("  %-12s PC = %5.1f%%   RR = %7.3f%%   candidates = %zu",
                title, 100 * q.pairs_completeness, 100 * q.reduction_ratio,
                q.candidates);
    if (stats != nullptr) std::printf("   blocks = %zu", stats->num_blocks);
    std::printf("\n");
  };

  KeyFunction manual_key = ManualBlockingKey(data.pair);

  // --- blocking: executor-run plan vs the manual key ---
  std::printf("\n== blocking ==\n");
  api::Executor block_exec(*block_plan);
  auto block_run = block_exec.Run(data.instance);
  if (!block_run.ok()) {
    std::printf("run error: %s\n", block_run.status().ToString().c_str());
    return 1;
  }
  auto man_blocks = BlockCandidates(data.instance, manual_key);
  BlockingStats rck_stats =
      AnalyzeBlocks(data.instance, (*block_plan)->block_key());
  BlockingStats man_stats = AnalyzeBlocks(data.instance, manual_key);
  report("rck key:", block_run->candidate_quality, &rck_stats);
  report("manual key:", EvaluateCandidates(man_blocks, data.instance),
         &man_stats);

  // --- windowing ---
  std::printf("\n== windowing (window = %zu) ==\n", window_opt.window_size);
  api::Executor window_exec(*window_plan);
  auto window_run = window_exec.Run(data.instance);
  if (!window_run.ok()) {
    std::printf("run error: %s\n", window_run.status().ToString().c_str());
    return 1;
  }
  auto manual_keys = StandardWindowKeys(data.pair);
  report("rck keys:", window_run->candidate_quality, nullptr);
  report("manual keys:",
         EvaluateCandidates(
             candidate::WindowCandidatesMultiPass(data.instance, manual_keys,
                                                  window_opt.window_size),
             data.instance),
         nullptr);

  std::printf(
      "\nThe RCK-derived keys block/sort on the attributes the dependency "
      "analysis proves discriminating, so more true matches end up in the "
      "same block or window at a comparable reduction ratio.\n");
  return 0;
}
