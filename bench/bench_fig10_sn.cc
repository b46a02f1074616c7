// Figures 10(a), 10(b), 10(c): the sorted-neighborhood method with the 25
// hand-written equational-theory rules (SN) versus the union of the top
// five deduced RCKs (SNrck). Shared windowing keys, window size 10
// (paper Exp-3).
//
// Both arms are compiled plans run by the Executor: one plan per arm and
// dataset, differing only in the rule basis. Each arm's reported time is
// the executor's candidate + match stages.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "match/evaluation.h"
#include "match/hs_rules.h"

using namespace mdmatch;
using namespace mdmatch::match;

int main() {
  std::printf("== Figure 10(a,b,c): Sorted Neighborhood with vs without "
              "RCKs ==\n");
  TableWriter table({"K", "SNrck prec", "SN prec", "SNrck recall",
                     "SN recall", "SNrck time(s)", "SN time(s)"});
  for (size_t k : bench::KRange()) {
    sim::SimOpRegistry ops;
    datagen::CreditBillingOptions gen;
    gen.num_base = k;
    gen.seed = 2000 + k;
    datagen::CreditBillingData data =
        datagen::GenerateCreditBilling(gen, &ops);

    auto hs_rules = HernandezStolfoRules(data.pair, &ops);
    const bench::RckDeduction deduction = bench::DeduceRcks(data, &ops);

    // SNrck: the top-5 relaxed RCK rules.
    const api::ExecutionReport rck = bench::RunPlanOrExit(
        bench::CompileExperimentPlan(data, &ops, deduction,
                                     api::PlanOptions{}),
        data.instance);
    // SN: the hand-written rules over the same keys and window.
    const api::ExecutionReport sn = bench::RunPlanOrExit(
        bench::ExperimentPlanBuilder(data, &ops, deduction)
            .WithRules(std::move(hs_rules))
            .Build(),
        data.instance);

    table.AddRow(
        {std::to_string(k / 1000) + "k",
         TableWriter::Num(100 * rck.match_quality.precision, 1),
         TableWriter::Num(100 * sn.match_quality.precision, 1),
         TableWriter::Num(100 * rck.match_quality.recall, 1),
         TableWriter::Num(100 * sn.match_quality.recall, 1),
         TableWriter::Num(
             rck.timings.candidate_seconds + rck.timings.match_seconds, 2),
         TableWriter::Num(
             sn.timings.candidate_seconds + sn.timings.match_seconds, 2)});
  }
  table.Print(std::cout);
  std::printf(
      "\nPaper shape: SNrck outperforms SN in precision and recall (around "
      "20%%) and runs faster (fewer rules, fewer attributes compared).\n");
  return 0;
}
