// Ablation: EM training budget of the Fellegi-Sunter matcher (the paper
// trains on "a sample of at most 30k"). Sweeps the pair-sample size and
// toggles the restart heuristic; reports FSrck match quality. Each cell
// is an FS plan trained at Build over the RCK-union vector and run by the
// Executor; the RCKs are deduced once.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "match/evaluation.h"
#include "match/fellegi_sunter.h"

using namespace mdmatch;
using namespace mdmatch::match;

int main() {
  sim::SimOpRegistry ops;
  datagen::CreditBillingOptions gen;
  gen.num_base = bench::FullRun() ? 20000 : 10000;
  gen.seed = 6300;
  datagen::CreditBillingData data = datagen::GenerateCreditBilling(gen, &ops);

  const bench::RckDeduction deduction = bench::DeduceRcks(data, &ops);

  std::printf("== Ablation: EM sample size and restarts (K = %zu) ==\n",
              gen.num_base);
  TableWriter table({"sample", "restarts", "precision", "recall",
                     "EM iters", "p-hat"});
  for (size_t sample : {1000, 5000, 30000}) {
    for (size_t restarts : {size_t{1}, size_t{3}}) {
      api::PlanOptions options;
      options.matcher = api::PlanOptions::Matcher::kFellegiSunter;
      options.fs_options.max_training_pairs = sample;
      options.fs_options.em_restarts = restarts;
      auto plan = bench::CompileExperimentPlan(data, &ops, deduction, options);
      const MatchQuality q =
          bench::RunPlanOrExit(plan, data.instance).match_quality;
      const FsModel& model = (*plan)->fs()->model();
      table.AddRow({std::to_string(sample), std::to_string(restarts),
                    TableWriter::Num(100 * q.precision, 1),
                    TableWriter::Num(100 * q.recall, 1),
                    std::to_string(model.iterations_run),
                    TableWriter::Num(model.p, 3)});
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected: quality saturates well below the 30k budget on this "
      "workload; restarts guard the small-sample regime against local "
      "optima.\n");
  return 0;
}
