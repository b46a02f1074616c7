// Pair-evaluation throughput: naive vs compiled vs batch.
//
// Rule evaluation is the dominant stage of every batch and session flush
// (BENCH_session), so this bench isolates exactly the per-pair decision:
// the same candidate pairs are classified three ways —
//   naive:    the pre-compiled-engine path (AnyRuleMatches /
//             FsModel::IsMatch re-dispatching every conjunct through the
//             SimOpRegistry),
//   compiled: MatchPlan::MatchesPair through match::CompiledEvaluator
//             (deduplicated atom table, selectivity-ordered lazy atoms,
//             bit-parallel bounded edit distance, per-record profiles),
//   batch:    CompiledEvaluator::MatchesBatch over SoA pair strips, with
//             and without a reused arena
// — on three workloads: the default rule-based credit/billing corpus,
// the fig9 Fellegi-Sunter configuration (RCK-union comparison vector)
// and strict key-equality rules.
//
// Emits an aligned table and machine-readable BENCH_pairs.json (perf
// trajectory point for this bench across PRs). MDMATCH_BENCH_FULL=1 runs
// the larger corpus; MDMATCH_BENCH_TINY=1 shrinks everything for CI smoke
// runs (validity of the JSON and agreement of the three strategies, not
// stable numbers).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "api/executor.h"
#include "api/plan.h"
#include "bench_common.h"
#include "candidate/windowing.h"
#include "match/windowing.h"
#include "sim/edit_distance.h"
#include "util/arena.h"
#include "util/string_util.h"
#include "util/table_writer.h"

using namespace mdmatch;

namespace {

// ----------------------------------------------------------------------
// The pre-PR baseline, kept verbatim from the seed tree so the "naive"
// column keeps measuring the same thing as the engine improves: a banded
// row-DP Levenshtein filter (no bit-parallel kernel) falling back to the
// full allocating Damerau-Levenshtein matrix, dispatched per conjunct
// through a type-erased registry predicate.

size_t SeedLevenshteinBounded(std::string_view a, std::string_view b,
                              size_t max_dist) {
  if (a.size() < b.size()) std::swap(a, b);
  if (a.size() - b.size() > max_dist) return max_dist + 1;
  if (b.empty()) return a.size();
  const size_t kInf = std::numeric_limits<size_t>::max() / 2;
  std::vector<size_t> row(b.size() + 1, kInf);
  for (size_t j = 0; j <= std::min(b.size(), max_dist); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t lo = (i > max_dist) ? i - max_dist : 1;
    size_t hi = std::min(b.size(), i + max_dist);
    size_t diag = (lo > 1) ? row[lo - 1] : row[0];
    if (lo == 1) row[0] = i <= max_dist ? i : kInf;
    size_t row_min = kInf;
    for (size_t j = lo; j <= hi; ++j) {
      size_t up = row[j];
      size_t left = (j == lo && lo > 1) ? kInf : row[j - 1];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({up + 1, left + 1, diag + cost});
      diag = up;
      row_min = std::min(row_min, row[j]);
    }
    if (hi < b.size()) row[hi + 1] = kInf;
    if (row_min > max_dist) return max_dist + 1;
  }
  return std::min(row[b.size()], max_dist + 1);
}

bool SeedDlSimilar(std::string_view a, std::string_view b, double theta) {
  if (a == b) return true;
  double longest = static_cast<double>(std::max(a.size(), b.size()));
  double allowed = (1.0 - theta) * longest + 1e-9;
  size_t budget = static_cast<size_t>(allowed);
  size_t gap = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  if (static_cast<double>(gap) > allowed) return false;
  size_t lev = SeedLevenshteinBounded(a, b, 2 * budget + 1);
  if (static_cast<double>(lev) <= allowed) return true;
  if (lev > 2 * budget + 1) return false;
  size_t dist = sim::DamerauLevenshteinDistance(a, b);
  return static_cast<double>(dist) <= allowed;
}

/// A registry with the same operator ids as `ops` but with every DL
/// operator bound to the seed implementation — evaluating the plan's
/// rules/vector against it reproduces the pre-PR per-pair cost. Only the
/// DL family is seed-bound (the only non-equality family these workloads
/// use); RunWorkload warns if a plan ever references another one, since
/// its "naive" column would then partly ride the post-PR kernels.
sim::SimOpRegistry SeedReferenceRegistry(const sim::SimOpRegistry& ops) {
  sim::SimOpRegistry ref;  // id 0 ("=") is already installed
  for (sim::SimOpId id = 1; static_cast<size_t>(id) < ops.size(); ++id) {
    const sim::SimOpInfo& info = ops.Info(id);
    sim::SimOpRegistry::Predicate pred;
    if (info.kind == sim::SimOpKind::kDl) {
      const double theta = info.threshold;
      pred = [theta](std::string_view a, std::string_view b) {
        return SeedDlSimilar(a, b, theta);
      };
    } else {
      pred = [&ops, id](std::string_view a, std::string_view b) {
        return ops.Eval(id, a, b);
      };
    }
    auto registered = ref.Register(ops.Name(id), std::move(pred));
    if (!registered.ok() || *registered != id) {
      std::fprintf(stderr, "reference registry id mismatch\n");
      std::exit(1);
    }
  }
  return ref;
}

struct WorkloadResult {
  std::string name;
  size_t pairs = 0;
  size_t matches = 0;
  double naive_pps = 0;
  double compiled_pps = 0;
  /// SoA strips through MatchesBatch with the per-pass transients in a
  /// Reset-reused arena (the executor/session steady state) vs a fresh
  /// arena built and torn down every pass (the arena-off toggle: same
  /// kernels, cold allocation each time).
  double batch_pps = 0;
  double batch_noarena_pps = 0;
};

bool TinyRun() {
  const char* env = std::getenv("MDMATCH_BENCH_TINY");
  return env != nullptr && std::string(env) == "1";
}

/// Times `eval` over every pair, repeated until ~0.3s of work (at least
/// one pass), and returns pairs/sec. `matches` gets the per-pass match
/// count (sanity-checked identical across evaluation strategies).
template <typename Eval>
double Throughput(const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                  size_t* matches, const Eval& eval) {
  const double min_seconds = TinyRun() ? 0.02 : 0.3;
  double total_seconds = 0;
  size_t passes = 0;
  while (passes < 1 || (total_seconds < min_seconds && passes < 50)) {
    size_t hits = 0;
    total_seconds += bench::TimedSeconds([&] {
      for (const auto& [l, r] : pairs) {
        if (eval(l, r)) ++hits;
      }
    });
    *matches = hits;
    ++passes;
  }
  return static_cast<double>(pairs.size()) * static_cast<double>(passes) /
         std::max(1e-9, total_seconds);
}

WorkloadResult RunWorkload(const std::string& name,
                           const datagen::CreditBillingData& data,
                           sim::SimOpRegistry* ops,
                           api::PlanOptions options,
                           bool relax_rules = true) {
  WorkloadResult result;
  result.name = name;

  auto plan = bench::CompileExperimentPlan(data, ops, options, relax_rules);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan failed for %s: %s\n", name.c_str(),
                 plan.status().ToString().c_str());
    return result;
  }
  const api::MatchPlan& p = **plan;

  // The candidate pairs the plan itself would classify (shared standard
  // windowing keys, as in Exp-2/3).
  match::CandidateSet candidates = match::WindowCandidatesMultiPass(
      data.instance, p.sort_keys(), p.options().window_size);
  const auto& pairs = candidates.pairs();
  result.pairs = pairs.size();
  const Relation& left = data.instance.left();
  const Relation& right = data.instance.right();

  // Per-pair decisions of one strategy, element-aligned with `pairs` —
  // the divergence gate compares these element-wise (aggregate counts
  // could mask compensating flips).
  auto decisions_of = [&](const auto& eval) {
    std::vector<uint8_t> out(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      out[i] = eval(pairs[i].first, pairs[i].second) ? 1 : 0;
    }
    return out;
  };
  auto check_agrees = [&](const std::vector<uint8_t>& naive,
                          const std::vector<uint8_t>& other,
                          const char* label) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (naive[i] != other[i]) {
        std::fprintf(stderr,
                     "BUG: %s decision diverges from naive on %s pair "
                     "(%u, %u): naive %d, %s %d\n",
                     label, name.c_str(), pairs[i].first, pairs[i].second,
                     naive[i], label, other[i]);
        std::exit(1);
      }
    }
  };

  // Naive: exactly what MatchesPair computed before the compiled engine —
  // per-rule registry dispatch over the seed similarity implementations.
  sim::SimOpRegistry seed_ops = SeedReferenceRegistry(*ops);
  std::vector<Conjunct> basis_conjuncts;
  for (const auto& rule : p.rules()) {
    for (const Conjunct& c : rule.elements()) basis_conjuncts.push_back(c);
  }
  if (p.fs() != nullptr) {
    const auto& elems = p.fs()->vector().elements();
    basis_conjuncts.insert(basis_conjuncts.end(), elems.begin(), elems.end());
  }
  for (const Conjunct& c : basis_conjuncts) {
    const sim::SimOpKind kind = ops->Info(c.op).kind;
    if (kind != sim::SimOpKind::kEquality && kind != sim::SimOpKind::kDl) {
      std::fprintf(stderr,
                   "warning: %s uses op '%s', which has no seed-bound "
                   "reference — the naive column partly measures post-PR "
                   "kernels\n",
                   name.c_str(), ops->Name(c.op).c_str());
    }
  }
  auto naive_eval = [&](uint32_t l, uint32_t r) {
    if (options.matcher == api::PlanOptions::Matcher::kRuleBased) {
      return match::AnyRuleMatches(p.rules(), seed_ops, left.tuple(l),
                                   right.tuple(r));
    }
    return p.fs()->IsMatch(seed_ops, left.tuple(l), right.tuple(r));
  };
  size_t naive_matches = 0;
  result.naive_pps = Throughput(pairs, &naive_matches, naive_eval);
  result.matches = naive_matches;
  const std::vector<uint8_t> naive_decisions = decisions_of(naive_eval);

  // Compiled: the engine path, per-record profiles included.
  std::vector<match::RecordProfile> profiles[2];
  const match::CompiledEvaluator& evaluator = p.evaluator();
  if (evaluator.needs_profiles()) {
    for (int side = 0; side < 2; ++side) {
      const Relation& rel = side == 0 ? left : right;
      for (size_t i = 0; i < rel.size(); ++i) {
        profiles[side].push_back(evaluator.ProfileRecord(rel.tuple(i), side));
      }
    }
  }
  auto compiled_eval = [&](uint32_t l, uint32_t r) {
    return p.MatchesPair(left.tuple(l), right.tuple(r),
                         profiles[0].empty() ? nullptr : &profiles[0][l],
                         profiles[1].empty() ? nullptr : &profiles[1][r]);
  };
  size_t compiled_matches = 0;
  result.compiled_pps = Throughput(pairs, &compiled_matches, compiled_eval);
  check_agrees(naive_decisions, decisions_of(compiled_eval), "compiled");

  // Batch: the same decisions through the SoA strip path — columns and
  // interner built once (like the compiled arm's profiles), strips, lane
  // buffers and evaluation timed per pass.
  if (evaluator.SupportsBatch()) {
    util::Arena cols_arena;
    match::ValueInterner interner;
    match::BatchColumns bcols[2];
    for (int side = 0; side < 2; ++side) {
      const Relation& rel = side == 0 ? left : right;
      bcols[side] =
          evaluator.MakeBatchColumns(side, rel.size(), &cols_arena);
      for (size_t i = 0; i < rel.size(); ++i) {
        evaluator.FillBatchRow(
            &bcols[side], static_cast<uint32_t>(i), rel.tuple(i),
            profiles[side].empty() ? nullptr : &profiles[side][i],
            &interner);
      }
    }
    std::vector<uint8_t> batch_decisions(pairs.size());
    auto time_batch = [&](bool reuse_arena) {
      util::Arena reused;
      const double min_seconds = TinyRun() ? 0.02 : 0.3;
      double total_seconds = 0;
      size_t passes = 0;
      while (passes < 1 || (total_seconds < min_seconds && passes < 50)) {
        total_seconds += bench::TimedSeconds([&] {
          util::Arena fresh;
          util::Arena& arena = reuse_arena ? reused : fresh;
          if (reuse_arena) arena.Reset();
          const candidate::PairStrips strips =
              candidate::BuildStrips(pairs, &arena);
          uint8_t* lane_dec = arena.AllocateArrayOf<uint8_t>(strips.lanes);
          for (size_t b = 0; b < strips.num_batches; ++b) {
            const uint32_t first = strips.batch_first_lane[b];
            evaluator.MatchesBatch(bcols[0], bcols[1], strips.batches[b],
                                   lane_dec + first, nullptr);
          }
          for (size_t lane = 0; lane < strips.lanes; ++lane) {
            batch_decisions[strips.lane_pair[lane]] = lane_dec[lane];
          }
        });
        ++passes;
      }
      return static_cast<double>(pairs.size()) *
             static_cast<double>(passes) / std::max(1e-9, total_seconds);
    };
    result.batch_pps = time_batch(/*reuse_arena=*/true);
    check_agrees(naive_decisions, batch_decisions, "batch");
    result.batch_noarena_pps = time_batch(/*reuse_arena=*/false);
    check_agrees(naive_decisions, batch_decisions, "batch-noarena");
  }

  return result;
}

}  // namespace

int main() {
  const size_t num_base =
      TinyRun() ? 400 : (bench::FullRun() ? 20000 : 4000);

  std::printf("== Pair-evaluation throughput: naive vs compiled vs batch "
              "(K = %zu) ==\n",
              num_base);
  TableWriter table({"workload", "pairs", "matches", "naive p/s",
                     "compiled p/s", "batch p/s", "compiled x",
                     "batch/compiled x"});

  std::vector<WorkloadResult> results;
  {
    // Workload 1: the default rule-based corpus (relaxed top-RCK rules).
    sim::SimOpRegistry ops;
    datagen::CreditBillingOptions gen;
    gen.num_base = num_base;
    gen.seed = 7300;
    datagen::CreditBillingData data =
        datagen::GenerateCreditBilling(gen, &ops);
    results.push_back(
        RunWorkload("rule_default", data, &ops, api::PlanOptions{}));
  }
  {
    // Workload 2: the fig9 FS configuration (RCK-union vector, EM-trained
    // at Build, MAP threshold).
    sim::SimOpRegistry ops;
    datagen::CreditBillingOptions gen;
    gen.num_base = num_base;
    gen.seed = 1000 + num_base;  // the fig9 bench's dataset seeding
    datagen::CreditBillingData data =
        datagen::GenerateCreditBilling(gen, &ops);
    api::PlanOptions options;
    options.matcher = api::PlanOptions::Matcher::kFellegiSunter;
    results.push_back(RunWorkload("fig9_fs", data, &ops, options));
  }
  {
    // Workload 3: strict key-equality matching — the top-RCK rules before
    // the θ = 0.8 relaxation (the paper's eq(cc) ∧ eq(phn) shape). Every
    // atom is an equality, so the whole evaluation runs on interned value
    // ids — the workload the SIMD batch path targets.
    sim::SimOpRegistry ops;
    datagen::CreditBillingOptions gen;
    gen.num_base = num_base;
    gen.seed = 7300;
    datagen::CreditBillingData data =
        datagen::GenerateCreditBilling(gen, &ops);
    results.push_back(RunWorkload("rule_eq_keys", data, &ops,
                                  api::PlanOptions{}, /*relax_rules=*/false));
  }

  std::vector<std::string> json_rows;
  for (const WorkloadResult& r : results) {
    const double cx = r.compiled_pps / std::max(1e-9, r.naive_pps);
    const double bx = r.batch_pps / std::max(1e-9, r.compiled_pps);
    table.AddRow({r.name, std::to_string(r.pairs), std::to_string(r.matches),
                  TableWriter::Num(r.naive_pps, 0),
                  TableWriter::Num(r.compiled_pps, 0),
                  TableWriter::Num(r.batch_pps, 0), TableWriter::Num(cx, 2),
                  TableWriter::Num(bx, 2)});
    json_rows.push_back(StringPrintf(
        "    {\"workload\": \"%s\", \"pairs\": %zu, \"matches\": %zu, "
        "\"naive_pps\": %.0f, \"compiled_pps\": %.0f, "
        "\"batch_pps\": %.0f, \"batch_noarena_pps\": %.0f, "
        "\"speedup_compiled_vs_naive\": %.2f, "
        "\"speedup_batch_vs_compiled\": %.2f}",
        r.name.c_str(), r.pairs, r.matches, r.naive_pps, r.compiled_pps,
        r.batch_pps, r.batch_noarena_pps, cx, bx));
  }
  table.Print(std::cout);

  std::ofstream json("BENCH_pairs.json");
  json << "{\n  \"bench\": \"pair_throughput\",\n  \"num_base\": " << num_base
       << ",\n  \"workloads\": [\n";
  for (size_t i = 0; i < json_rows.size(); ++i) {
    json << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::printf("\nwrote BENCH_pairs.json\n");
  return 0;
}
