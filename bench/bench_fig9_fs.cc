// Figures 9(a), 9(b), 9(c): the Fellegi-Sunter method with and without
// RCKs. FSrck compares the union of the top five RCKs (θ = 0.8 similarity
// test); FS compares an EM-picked attribute vector of the same size.
// Both classify the same windowing candidates (window size 10, shared
// keys), as in the paper's Exp-2.
//
// Both arms are compiled plans run by the Executor. FSrck trains EM inside
// Build; FS selects its vector and trains EM first, then injects them
// into its plan. Each arm's reported time is EM training (for FS with the
// vector selection) plus the executor's match stage.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "match/evaluation.h"
#include "match/fellegi_sunter.h"
#include "match/hs_rules.h"

using namespace mdmatch;
using namespace mdmatch::match;

int main() {
  std::printf(
      "== Figure 9(a,b,c): Fellegi-Sunter with vs without RCKs ==\n");
  TableWriter table({"K", "FSrck prec", "FS prec", "FSrck recall",
                     "FS recall", "FSrck time(s)", "FS time(s)"});
  for (size_t k : bench::KRange()) {
    sim::SimOpRegistry ops;
    datagen::CreditBillingOptions gen;
    gen.num_base = k;
    gen.seed = 1000 + k;
    datagen::CreditBillingData data =
        datagen::GenerateCreditBilling(gen, &ops);
    const bench::RckDeduction deduction = bench::DeduceRcks(data, &ops);

    // FSrck: the RCK-union comparison vector, EM trained inside Build.
    api::PlanOptions options;
    options.matcher = api::PlanOptions::Matcher::kFellegiSunter;
    auto rck_plan =
        bench::CompileExperimentPlan(data, &ops, deduction, options);
    const api::ExecutionReport rck =
        bench::RunPlanOrExit(rck_plan, data.instance);
    const double t_rck = (*rck_plan)->compile_stats().train_seconds +
                         rck.timings.match_seconds;

    // FS baseline: an EM-picked vector of the same size, trained here
    // and injected, so the timed span (vector selection + train) plus
    // the match stage mirrors t_rck.
    ComparisonVector em_vector;
    FsModel em_model;
    const double t_train = bench::TimedSeconds([&] {
      em_vector = SelectVectorByEm(data.instance, ops, data.target,
                                   ops.Dl(0.8),
                                   (*rck_plan)->fs()->vector().size());
      FellegiSunter fs(em_vector);
      if (auto st = fs.Train(data.instance, ops); !st.ok()) {
        std::fprintf(stderr, "train failed: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      em_model = fs.model();
    });
    const api::ExecutionReport em = bench::RunPlanOrExit(
        bench::ExperimentPlanBuilder(data, &ops, deduction)
            .WithOptions(options)
            .WithFsBasis(std::move(em_vector), std::move(em_model))
            .Build(),
        data.instance);
    const double t_fs = t_train + em.timings.match_seconds;

    table.AddRow({std::to_string(k / 1000) + "k",
                  TableWriter::Num(100 * rck.match_quality.precision, 1),
                  TableWriter::Num(100 * em.match_quality.precision, 1),
                  TableWriter::Num(100 * rck.match_quality.recall, 1),
                  TableWriter::Num(100 * em.match_quality.recall, 1),
                  TableWriter::Num(t_rck, 2), TableWriter::Num(t_fs, 2)});
  }
  table.Print(std::cout);
  std::printf(
      "\nPaper shape: FSrck beats FS on precision (up to 20%% at 80k) with "
      "comparable recall and runtime; FSrck is less sensitive to K.\n");
  return 0;
}
