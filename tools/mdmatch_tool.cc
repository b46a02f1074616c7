// mdmatch_tool — command-line front end for the library, organized as
// subcommands around the compile-once / execute-many API (api::PlanBuilder,
// api::Executor, api::plan_io):
//
//   gen    generate a credit/billing dataset + Σ
//   keys   deduce RCKs from Σ and save them
//   plan   compile a MatchPlan from Σ and save it (the compile step)
//   match  execute a (saved or freshly compiled) plan over the dataset
//   stream incremental matching: tuple deltas from stdin into a standing
//          MatchSession (upsert / remove / flush lines)
//   eval   score a matches.csv against the ground truth
//
// Run `mdmatch_tool --help` or `mdmatch_tool <command> --help` for usage.
// The tool only drives public library APIs; see README.md.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/executor.h"
#include "api/plan.h"
#include "api/plan_io.h"
#include "api/session.h"
#include "core/find_rcks.h"
#include "core/rule_io.h"
#include "datagen/credit_billing.h"
#include "match/evaluation.h"
#include "stream/ingest_driver.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

using namespace mdmatch;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintUsage(FILE* out) {
  std::fprintf(
      out,
      "mdmatch_tool — record matching with reasoned rules (MDs -> RCKs)\n"
      "\n"
      "usage: mdmatch_tool <command> [args] [flags]\n"
      "\n"
      "commands:\n"
      "  gen   <dir> --k N [--seed S]     generate credit.csv, billing.csv,\n"
      "                                   truth.csv and sigma.mds in <dir>\n"
      "  keys  <dir> [--m N]              deduce up to N RCKs (default 10)\n"
      "                                   from <dir>/sigma.mds; write\n"
      "                                   <dir>/keys.mds\n"
      "  plan  <dir> [flags]              compile a MatchPlan from\n"
      "                                   <dir>/sigma.mds and save it to\n"
      "                                   <dir>/plan.mdp (the compile-once\n"
      "                                   step; `match` reuses it)\n"
      "  match <dir> [flags]              execute the plan over the dataset;\n"
      "                                   write <dir>/matches.csv\n"
      "  stream <dir> [flags]             incremental matching: read tuple\n"
      "                                   deltas from stdin into a standing\n"
      "                                   session; write <dir>/matches.csv\n"
      "                                   at EOF\n"
      "  eval  <dir>                      precision/recall of\n"
      "                                   <dir>/matches.csv vs truth.csv\n"
      "\n"
      "plan flags:\n"
      "  --matcher rule|fs                match basis (default rule)\n"
      "  --candidates windowing|blocking  candidate generation (default\n"
      "                                   windowing)\n"
      "  --m N                            RCKs to deduce (default 10)\n"
      "  --top-k N                        RCKs used for rules (default 5)\n"
      "  --window N                       window size (default 10)\n"
      "  --theta F                        match-time similarity threshold\n"
      "                                   (default 0.8; 0 = no relaxation:\n"
      "                                   `=` stays exact, and similarity\n"
      "                                   conjuncts from sigma stay)\n"
      "  --closure                        close matches transitively\n"
      "  --out FILE                       plan file (default <dir>/plan.mdp)\n"
      "\n"
      "match flags:\n"
      "  --plan FILE                      load a compiled plan instead of\n"
      "                                   compiling one on the fly\n"
      "  --threads N                      executor worker threads (default 1)\n"
      "  --out FILE                       matches file (default\n"
      "                                   <dir>/matches.csv)\n"
      "  plus every plan flag (used when no --plan file is given)\n"
      "\n"
      "stream flags:\n"
      "  --plan FILE                      load a compiled plan instead of\n"
      "                                   compiling one on the fly\n"
      "  --load                           preload <dir>/{credit,billing}.csv\n"
      "                                   as the initial standing corpus\n"
      "  --threads N                      session worker threads for pair\n"
      "                                   evaluation (default 1)\n"
      "  --stats                          print per-flush phase timings\n"
      "                                   (index merge, candidate scan,\n"
      "                                   pair eval, drift re-rank,\n"
      "                                   publish), index rank queries,\n"
      "                                   staging queue depth and\n"
      "                                   coalesced deltas\n"
      "  --async                          ingest through a background\n"
      "                                   stream::IngestDriver: ops stage\n"
      "                                   into a bounded queue, a flusher\n"
      "                                   thread coalesces and flushes;\n"
      "                                   `flush` lines become Drain()\n"
      "                                   barriers\n"
      "  --queue N                        staging-queue bound for --async\n"
      "                                   (default 4096; producers block\n"
      "                                   when full)\n"
      "  --follow                         (with --async) subscribe to the\n"
      "                                   match-delta stream and print one\n"
      "                                   'delta gen A -> B' line per\n"
      "                                   published generation\n"
      "  --readers N                      spawn N concurrent query threads\n"
      "                                   (flush-independent cluster and\n"
      "                                   membership reads) for the whole\n"
      "                                   run; their query count is\n"
      "                                   reported at EOF\n"
      "  --out FILE                       matches file written at EOF\n"
      "                                   (default <dir>/matches.csv)\n"
      "  stdin protocol, one CSV row per line ('#' comments skipped):\n"
      "    upsert,credit,<id>,<v1>,...    insert or update a record\n"
      "    remove,billing,<id>            remove a record\n"
      "    flush                          apply the staged delta\n"
      "  (matches.csv rows are positions into the session corpus; they\n"
      "  line up with eval only when streaming never removes records)\n"
      "\n"
      "eval flags:\n"
      "  --matches FILE                   matches file (default\n"
      "                                   <dir>/matches.csv)\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

/// Minimal flag scanner: positional args in order, `--flag value` and
/// boolean `--flag` by name. Flags outside `allowed` are rejected up
/// front (a typo'd flag silently falling back to its default would give
/// wrong-but-plausible runs).
class Args {
 public:
  Args(int argc, char** argv, int first,
       std::vector<std::string> allowed = {}) {
    for (int i = first; i < argc; ++i) args_.push_back(argv[i]);
    if (allowed.empty()) return;
    allowed.push_back("--help");
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!StartsWithDash(args_[i])) continue;
      if (std::find(allowed.begin(), allowed.end(), args_[i]) ==
          allowed.end()) {
        std::fprintf(stderr, "error: unknown flag '%s'\n", args_[i].c_str());
        std::exit(2);
      }
      if (!IsBooleanFlag(args_[i])) ++i;  // skip the flag's value
    }
  }

  bool HasFlag(const std::string& name) const {
    for (const auto& a : args_) {
      if (a == name) return true;
    }
    return false;
  }

  std::string Flag(const std::string& name, std::string fallback) const {
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) return args_[i + 1];
    }
    return fallback;
  }

  size_t FlagNum(const std::string& name, size_t fallback) const {
    std::string v = Flag(name, "");
    if (v.empty()) return fallback;
    // std::stoull alone would wrap a leading '-' to a huge value.
    if (!IsDigits(v)) BadValue(name, v);
    try {
      return static_cast<size_t>(std::stoull(v));
    } catch (...) {
      BadValue(name, v);
    }
  }

  double FlagDouble(const std::string& name, double fallback) const {
    std::string v = Flag(name, "");
    if (v.empty()) return fallback;
    try {
      return std::stod(v);
    } catch (...) {
      BadValue(name, v);
    }
  }

  /// The i-th non-flag argument ("" when absent). A flag's value does not
  /// count as positional.
  std::string Positional(size_t index) const {
    size_t seen = 0;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (StartsWithDash(args_[i])) {
        if (!IsBooleanFlag(args_[i]) && i + 1 < args_.size()) ++i;
        continue;
      }
      if (seen == index) return args_[i];
      ++seen;
    }
    return "";
  }

 private:
  [[noreturn]] static void BadValue(const std::string& name,
                                    const std::string& value) {
    std::fprintf(stderr, "error: %s expects a number, got '%s'\n",
                 name.c_str(), value.c_str());
    std::exit(2);
  }
  static bool StartsWithDash(const std::string& s) {
    return !s.empty() && s[0] == '-';
  }
  static bool IsBooleanFlag(const std::string& s) {
    return s == "--closure" || s == "--load" || s == "--stats" ||
           s == "--async" || s == "--follow" || s == "--help";
  }
  std::vector<std::string> args_;
};

Status WriteTruth(const std::string& path, const Instance& instance) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"relation", "row", "entity"});
  for (size_t i = 0; i < instance.left().size(); ++i) {
    rows.push_back({"credit", std::to_string(i),
                    std::to_string(instance.left().tuple(i).entity())});
  }
  for (size_t i = 0; i < instance.right().size(); ++i) {
    rows.push_back({"billing", std::to_string(i),
                    std::to_string(instance.right().tuple(i).entity())});
  }
  return Csv::WriteFile(path, rows);
}

Status LoadTruth(const std::string& path, Instance* instance) {
  auto rows = Csv::ReadFile(path);
  if (!rows.ok()) return rows.status();
  for (size_t r = 1; r < rows->size(); ++r) {
    const auto& row = (*rows)[r];
    if (row.size() != 3) return Status::ParseError("bad truth row");
    size_t index = 0;
    EntityId entity = 0;
    try {
      index = static_cast<size_t>(std::stoull(row[1]));
      entity = static_cast<EntityId>(std::stoll(row[2]));
    } catch (...) {
      return Status::ParseError("bad truth row '" + row[1] + "," + row[2] +
                                "'");
    }
    Relation& rel = row[0] == "credit" ? instance->left() : instance->right();
    if (index >= rel.size()) return Status::ParseError("truth row range");
    rel.tuple(index).set_entity(entity);
  }
  return Status::OK();
}

Result<Instance> LoadInstance(const std::string& dir,
                              const SchemaPair& pair) {
  auto credit_rows = Csv::ReadFile(dir + "/credit.csv");
  if (!credit_rows.ok()) return credit_rows.status();
  auto billing_rows = Csv::ReadFile(dir + "/billing.csv");
  if (!billing_rows.ok()) return billing_rows.status();
  auto credit = Relation::FromCsvRows(pair.left(), *credit_rows);
  if (!credit.ok()) return credit.status();
  auto billing = Relation::FromCsvRows(pair.right(), *billing_rows);
  if (!billing.ok()) return billing.status();
  return Instance(std::move(*credit), std::move(*billing));
}

api::PlanOptions PlanOptionsFromFlags(const Args& args) {
  api::PlanOptions options;
  if (args.Flag("--matcher", "rule") == "fs") {
    options.matcher = api::PlanOptions::Matcher::kFellegiSunter;
  }
  if (args.Flag("--candidates", "windowing") == "blocking") {
    options.candidates = api::PlanOptions::Candidates::kBlocking;
  }
  options.num_rcks = args.FlagNum("--m", options.num_rcks);
  options.top_k = args.FlagNum("--top-k", options.top_k);
  options.window_size = args.FlagNum("--window", options.window_size);
  options.relax_theta = args.FlagDouble("--theta", options.relax_theta);
  options.transitive_closure = args.HasFlag("--closure");
  return options;
}

/// Compiles a plan for the credit/billing dataset in `dir` (shared by the
/// `plan` and `match` commands). `training` is the already-loaded
/// instance.
Result<api::PlanPtr> CompilePlan(const std::string& dir, const Args& args,
                                 const Instance& training,
                                 sim::SimOpRegistry* ops) {
  SchemaPair pair = training.schema_pair();
  ComparableLists target = datagen::MakeCreditBillingTarget(pair);
  auto sigma = LoadMdSetFromFile(dir + "/sigma.mds", pair, *ops);
  if (!sigma.ok()) return sigma.status();

  QualityModel quality(1.0, 0.05, 3.0);
  datagen::ApplyDefaultAccuracies(pair, target, &quality);

  api::PlanBuilder builder(pair, target, ops);
  builder.WithSigma(std::move(*sigma))
      .WithOptions(PlanOptionsFromFlags(args))
      .WithQuality(std::move(quality))
      .WithTrainingInstance(&training);
  // Honor keys precomputed by the `keys` subcommand: deduction is the
  // expensive compile step, so reuse it when the file is present.
  if (auto keys = LoadRcksFromFile(dir + "/keys.mds", target, pair, *ops);
      keys.ok()) {
    builder.WithPrecompiledRcks(std::move(*keys));
  }
  return builder.Build();
}

int CmdGen(const Args& args) {
  std::string dir = args.Positional(0);
  size_t k = args.FlagNum("--k", 0);
  if (dir.empty() || k == 0) return Usage();

  sim::SimOpRegistry ops;
  datagen::CreditBillingOptions options;
  options.num_base = k;
  options.seed = args.FlagNum("--seed", options.seed);
  datagen::CreditBillingData data =
      datagen::GenerateCreditBilling(options, &ops);

  for (const Status& st :
       {Csv::WriteFile(dir + "/credit.csv", data.instance.left().ToCsvRows()),
        Csv::WriteFile(dir + "/billing.csv",
                       data.instance.right().ToCsvRows()),
        WriteTruth(dir + "/truth.csv", data.instance),
        SaveMdSetToFile(dir + "/sigma.mds", data.mds, data.pair, ops)}) {
    if (!st.ok()) return Fail(st);
  }
  std::printf("wrote %s/{credit,billing,truth}.csv and sigma.mds (%zu + %zu "
              "tuples)\n",
              dir.c_str(), data.instance.left().size(),
              data.instance.right().size());
  return 0;
}

int CmdKeys(const Args& args) {
  std::string dir = args.Positional(0);
  if (dir.empty()) return Usage();
  size_t m = args.FlagNum("--m", 10);

  sim::SimOpRegistry ops = sim::SimOpRegistry::Default();
  SchemaPair pair = datagen::MakeCreditBillingSchemas();
  ComparableLists target = datagen::MakeCreditBillingTarget(pair);
  auto sigma = LoadMdSetFromFile(dir + "/sigma.mds", pair, ops);
  if (!sigma.ok()) return Fail(sigma.status());

  QualityModel quality(1.0, 0.05, 3.0);
  auto instance = LoadInstance(dir, pair);
  if (instance.ok()) {
    quality.EstimateLengthsFromData(*instance, *sigma, target);
  }
  datagen::ApplyDefaultAccuracies(pair, target, &quality);

  FindRcksOptions options;
  options.m = m;
  FindRcksResult result =
      FindRcks(pair, ops, *sigma, target, options, &quality);
  for (const auto& key : result.rcks) {
    std::printf("%s\n", key.ToString(pair, ops).c_str());
  }
  auto st = SaveRcksToFile(dir + "/keys.mds", result.rcks, target, pair, ops);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu keys to %s/keys.mds\n", result.rcks.size(),
              dir.c_str());
  return 0;
}

int CmdPlan(const Args& args) {
  std::string dir = args.Positional(0);
  if (dir.empty()) return Usage();
  std::string out = args.Flag("--out", dir + "/plan.mdp");

  sim::SimOpRegistry ops = sim::SimOpRegistry::Default();
  SchemaPair pair = datagen::MakeCreditBillingSchemas();
  auto instance = LoadInstance(dir, pair);
  if (!instance.ok()) return Fail(instance.status());
  auto plan = CompilePlan(dir, args, *instance, &ops);
  if (!plan.ok()) return Fail(plan.status());

  std::printf("%s", (*plan)->Describe().c_str());
  if (auto st = api::SavePlanToFile(out, **plan); !st.ok()) return Fail(st);
  std::printf("wrote compiled plan to %s\n", out.c_str());
  return 0;
}

int CmdMatch(const Args& args) {
  std::string dir = args.Positional(0);
  if (dir.empty()) return Usage();
  std::string out = args.Flag("--out", dir + "/matches.csv");
  std::string plan_file = args.Flag("--plan", "");

  sim::SimOpRegistry ops = sim::SimOpRegistry::Default();
  SchemaPair pair = datagen::MakeCreditBillingSchemas();
  ComparableLists target = datagen::MakeCreditBillingTarget(pair);

  auto instance = LoadInstance(dir, pair);
  if (!instance.ok()) return Fail(instance.status());

  // Compile (or load) once ...
  Result<api::PlanPtr> plan = plan_file.empty()
                                  ? CompilePlan(dir, args, *instance, &ops)
                                  : api::LoadPlanFromFile(plan_file, pair,
                                                          target, &ops);
  if (!plan.ok()) return Fail(plan.status());

  (void)LoadTruth(dir + "/truth.csv", &*instance);  // optional

  // ... execute over the batch.
  api::ExecutorOptions exec_options;
  exec_options.num_threads = args.FlagNum("--threads", 1);
  api::Executor executor(*plan, exec_options);
  auto report = executor.Run(*instance);
  if (!report.ok()) return Fail(report.status());

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"credit_row", "billing_row"});
  for (const auto& [l, r] : report->matches.pairs()) {
    rows.push_back({std::to_string(l), std::to_string(r)});
  }
  if (auto st = Csv::WriteFile(out, rows); !st.ok()) return Fail(st);

  std::printf("%zu matches written to %s\n", report->matches.size(),
              out.c_str());
  std::printf("stages: candidates %.2fs (%zu pairs), match %.2fs",
              report->timings.candidate_seconds, report->pairs_compared,
              report->timings.match_seconds);
  if (report->timings.closure_seconds > 0) {
    std::printf(", closure %.2fs", report->timings.closure_seconds);
  }
  std::printf("\n");
  if (report->match_quality.truth > 0) {
    std::printf("precision %.1f%%  recall %.1f%%\n",
                100 * report->match_quality.precision,
                100 * report->match_quality.recall);
  }
  return 0;
}

int CmdStream(const Args& args) {
  std::string dir = args.Positional(0);
  if (dir.empty()) return Usage();
  std::string out = args.Flag("--out", dir + "/matches.csv");
  std::string plan_file = args.Flag("--plan", "");

  sim::SimOpRegistry ops = sim::SimOpRegistry::Default();
  SchemaPair pair = datagen::MakeCreditBillingSchemas();
  ComparableLists target = datagen::MakeCreditBillingTarget(pair);

  // The dataset CSVs are only needed to compile a plan on the fly or to
  // preload the corpus; with --plan and no --load the session starts
  // empty and everything arrives over stdin.
  std::optional<Instance> instance;
  if (plan_file.empty() || args.HasFlag("--load")) {
    auto loaded = LoadInstance(dir, pair);
    if (!loaded.ok()) return Fail(loaded.status());
    instance = std::move(*loaded);
  }
  Result<api::PlanPtr> plan = plan_file.empty()
                                  ? CompilePlan(dir, args, *instance, &ops)
                                  : api::LoadPlanFromFile(plan_file, pair,
                                                          target, &ops);
  if (!plan.ok()) return Fail(plan.status());

  api::SessionOptions session_options;
  session_options.num_threads = args.FlagNum("--threads", 1);

  // Two ingest shapes over the same query surface: synchronous (a
  // MatchSession flushed inline, `flush` lines run Flush) or --async (a
  // stream::IngestDriver staging ops into a bounded queue for its flusher
  // thread, `flush` lines run the Drain barrier).
  const bool async = args.HasFlag("--async");
  const bool follow = args.HasFlag("--follow");
  if (follow && !async) {
    std::fprintf(stderr, "error: --follow requires --async\n");
    return 2;
  }
  std::optional<api::MatchSession> sync_session;
  std::optional<stream::IngestDriver> driver;
  if (async) {
    stream::IngestDriverOptions driver_options;
    driver_options.queue_capacity = args.FlagNum("--queue", 4096);
    driver.emplace(*plan, session_options, driver_options);
  } else {
    sync_session.emplace(*plan, session_options);
  }
  const api::MatchSession& session =
      async ? driver->session() : *sync_session;

  // --follow: print every published generation's delta as it is
  // delivered (from the subscription's delivery thread).
  struct PrintSink : stream::MatchDeltaSink {
    void OnDelta(const stream::MatchDelta& delta) override {
      std::printf("delta gen %llu -> %llu: +%zu -%zu pairs, %zu merges%s\n",
                  static_cast<unsigned long long>(delta.from_generation),
                  static_cast<unsigned long long>(delta.to_generation),
                  delta.added.size(), delta.retired.size(),
                  delta.merges.size(), delta.resync ? " (resync)" : "");
    }
  } follow_sink;
  if (follow) driver->Subscribe(&follow_sink);

  // Optional concurrent readers: query threads hammering the lock-free
  // cluster/membership path for the whole run, exercising generation
  // publishing under real ingest (also the CI concurrency smoke test).
  // They sample ids the driver loop has staged so far.
  const size_t num_readers = args.FlagNum("--readers", 0);
  std::atomic<bool> readers_stop{false};
  util::Mutex ids_mu;  // guards known_ids (locals can't be GUARDED_BY)
  std::vector<std::pair<int, TupleId>> known_ids;
  auto note_id = [&](int side, TupleId id) {
    util::MutexLock lock(ids_mu);
    known_ids.emplace_back(side, id);
  };
  std::vector<std::thread> readers;
  std::vector<size_t> reader_queries(num_readers, 0);
  for (size_t t = 0; t < num_readers; ++t) {
    readers.emplace_back([&, t] {
      uint64_t rng = t * 2654435769u + 12345;
      size_t count = 0;
      uint64_t last_generation = 0;
      while (!readers_stop.load(std::memory_order_relaxed)) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        std::pair<int, TupleId> pick{-1, 0};
        {
          util::MutexLock lock(ids_mu);
          if (!known_ids.empty()) pick = known_ids[rng % known_ids.size()];
        }
        if (pick.first < 0) {
          (void)session.left_size();
        } else {
          (void)session.ClusterOf(pick.first, pick.second);
        }
        const uint64_t generation = session.generation();
        if (generation < last_generation) {
          std::fprintf(stderr, "reader %zu: generation went backwards\n", t);
          std::exit(1);
        }
        last_generation = generation;
        ++count;
      }
      reader_queries[t] = count;
    });
  }
  // Joins on every exit path: an error `return Fail(...)` below must not
  // destroy joinable threads (std::terminate) or leave them querying a
  // dying session. Declared after `session`, so it runs first.
  struct ReaderJoiner {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~ReaderJoiner() {
      stop.store(true, std::memory_order_relaxed);
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } reader_joiner{readers_stop, readers};
  auto finish_readers = [&] {
    readers_stop.store(true, std::memory_order_relaxed);
    size_t total = 0;
    for (auto& reader : readers) reader.join();
    for (size_t n : reader_queries) total += n;
    if (num_readers > 0) {
      std::printf("readers: %zu threads issued %zu queries concurrently "
                  "with ingest (final generation %llu)\n",
                  num_readers, total,
                  static_cast<unsigned long long>(session.generation()));
    }
    readers.clear();
  };

  const bool stats = args.HasFlag("--stats");
  // Milliseconds with three decimals: a one-record flush on a large
  // corpus takes a fraction of one.
  auto print_flush = [stats](const api::IngestReport& report) {
    std::printf("flush: +%zu -%zu matches (%zu upserts, %zu removes, %zu "
                "pairs, %.3fms) -> %zu standing over %zu + %zu (gen %llu)\n",
                report.matches_added, report.matches_dropped, report.upserted,
                report.removed, report.pairs_evaluated,
                1e3 * (report.index_seconds + report.match_seconds +
                       report.cluster_seconds),
                report.total_matches, report.corpus_left,
                report.corpus_right,
                static_cast<unsigned long long>(report.generation));
    if (!stats) return;
    std::printf("  phases: merge %.3fms, scan %.3fms, eval %.3fms, rerank "
                "%.3fms, %zu rank queries (index %.3fms, match %.3fms, "
                "cluster %.3fms)\n",
                1e3 * report.merge_seconds, 1e3 * report.scan_seconds,
                1e3 * report.eval_seconds, 1e3 * report.rerank_seconds,
                report.rank_queries, 1e3 * report.index_seconds,
                1e3 * report.match_seconds, 1e3 * report.cluster_seconds);
    std::printf("  publish: %.3fms%s, %zu bytes copied\n",
                1e3 * report.publish_seconds,
                report.match_reused ? " (match state reused)" : "",
                report.publish_bytes_copied);
    std::printf("  staging: %zu deltas coalesced, queue depth %zu\n",
                report.coalesced_deltas, report.queue_depth);
  };

  auto do_upsert = [&](int side, Tuple tuple) {
    return async ? driver->Upsert(side, std::move(tuple))
                 : sync_session->Upsert(side, std::move(tuple));
  };
  auto do_remove = [&](int side, TupleId id) {
    return async ? driver->Remove(side, id) : sync_session->Remove(side, id);
  };
  auto do_flush = [&]() -> Result<api::IngestReport> {
    return async ? driver->Drain() : sync_session->Flush();
  };

  if (args.HasFlag("--load")) {
    for (const auto& t : instance->left().tuples()) {
      if (auto st = do_upsert(0, t); !st.ok()) return Fail(st);
      note_id(0, t.id());
    }
    for (const auto& t : instance->right().tuples()) {
      if (auto st = do_upsert(1, t); !st.ok()) return Fail(st);
      note_id(1, t.id());
    }
    auto report = do_flush();
    if (!report.ok()) return Fail(report.status());
    std::printf("loaded %s: ", dir.c_str());
    print_flush(*report);
  }

  std::string line;
  size_t line_no = 0;
  while (std::getline(std::cin, line)) {
    ++line_no;
    std::string trimmed(Trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto parse_fail = [&](const std::string& why) {
      return Fail(Status::ParseError("stdin line " + std::to_string(line_no) +
                                     ": " + why));
    };
    auto rows = Csv::Parse(trimmed);
    if (!rows.ok() || rows->empty()) return parse_fail("bad CSV row");
    const std::vector<std::string>& row = (*rows)[0];

    if (row[0] == "flush") {
      auto report = do_flush();
      if (!report.ok()) return Fail(report.status());
      print_flush(*report);
      continue;
    }
    if (row[0] != "upsert" && row[0] != "remove") {
      return parse_fail("unknown op '" + row[0] +
                        "' (want upsert/remove/flush)");
    }
    if (row.size() < 3) return parse_fail("missing side or id");
    int side = -1;
    if (row[1] == "credit" || row[1] == "left" || row[1] == "0") side = 0;
    if (row[1] == "billing" || row[1] == "right" || row[1] == "1") side = 1;
    if (side < 0) return parse_fail("unknown side '" + row[1] + "'");
    TupleId id = 0;
    try {
      id = static_cast<TupleId>(std::stoll(row[2]));
    } catch (...) {
      return parse_fail("bad tuple id '" + row[2] + "'");
    }
    Status st = row[0] == "remove"
                    ? do_remove(side, id)
                    : do_upsert(side,
                                Tuple(id, {row.begin() + 3, row.end()}));
    if (!st.ok()) return Fail(st);
    if (row[0] == "upsert") note_id(side, id);
  }

  if (async) {
    // Final flush of anything still staged, clean shutdown of the
    // flusher and every subscription's delivery thread.
    driver->Stop();
    const stream::IngestStats s = driver->stats();
    std::printf("async: %zu ops in %zu flushes (%zu coalesced, %zu "
                "rejected, %zu ignored), %zu deltas delivered, %zu "
                "resyncs\n",
                s.ops_enqueued, s.flushes, s.coalesced_deltas,
                s.ops_rejected, s.ops_ignored, s.deltas_delivered,
                s.resyncs);
  } else if (sync_session->pending_ops() > 0) {
    auto report = sync_session->Flush();
    if (!report.ok()) return Fail(report.status());
    std::printf("final ");
    print_flush(*report);
  }
  finish_readers();

  const match::MatchResult matches = session.Matches();
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"credit_row", "billing_row"});
  for (const auto& [l, r] : matches.pairs()) {
    rows.push_back({std::to_string(l), std::to_string(r)});
  }
  if (auto st = Csv::WriteFile(out, rows); !st.ok()) return Fail(st);
  std::printf("%zu matches written to %s\n", rows.size() - 1, out.c_str());
  return 0;
}

int CmdEval(const Args& args) {
  std::string dir = args.Positional(0);
  if (dir.empty()) return Usage();
  std::string matches_file = args.Flag("--matches", dir + "/matches.csv");

  SchemaPair pair = datagen::MakeCreditBillingSchemas();
  auto instance = LoadInstance(dir, pair);
  if (!instance.ok()) return Fail(instance.status());
  if (auto st = LoadTruth(dir + "/truth.csv", &*instance); !st.ok()) {
    return Fail(st);
  }

  auto rows = Csv::ReadFile(matches_file);
  if (!rows.ok()) return Fail(rows.status());
  match::MatchResult matches;
  for (size_t r = 1; r < rows->size(); ++r) {
    const auto& row = (*rows)[r];
    if (row.size() != 2) return Fail(Status::ParseError("bad matches row"));
    try {
      const uint32_t l = static_cast<uint32_t>(std::stoul(row[0]));
      const uint32_t b = static_cast<uint32_t>(std::stoul(row[1]));
      if (l >= instance->left().size() || b >= instance->right().size()) {
        return Fail(Status::OutOfRange("matches row (" + row[0] + "," +
                                       row[1] +
                                       ") is outside the dataset"));
      }
      matches.Add(l, b);
    } catch (...) {
      return Fail(Status::ParseError("bad matches row '" + row[0] + "," +
                                     row[1] + "'"));
    }
  }

  match::MatchQuality q = match::Evaluate(matches, *instance);
  std::printf("%s: %zu matches, %zu true pairs\n", matches_file.c_str(),
              matches.size(), q.truth);
  std::printf("precision %.2f%%  recall %.2f%%  f1 %.2f%%\n",
              100 * q.precision, 100 * q.recall, 100 * q.f1);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    PrintUsage(stdout);
    return 0;
  }

  const std::vector<std::string> plan_flags = {
      "--matcher", "--candidates", "--m",       "--top-k",
      "--window",  "--theta",      "--closure", "--out"};
  std::vector<std::string> allowed;
  if (cmd == "gen") {
    allowed = {"--k", "--seed"};
  } else if (cmd == "keys") {
    allowed = {"--m"};
  } else if (cmd == "plan") {
    allowed = plan_flags;
  } else if (cmd == "match") {
    allowed = plan_flags;
    allowed.push_back("--plan");
    allowed.push_back("--threads");
  } else if (cmd == "stream") {
    allowed = plan_flags;
    allowed.push_back("--plan");
    allowed.push_back("--threads");
    allowed.push_back("--load");
    allowed.push_back("--stats");
    allowed.push_back("--readers");
    allowed.push_back("--async");
    allowed.push_back("--queue");
    allowed.push_back("--follow");
  } else if (cmd == "eval") {
    allowed = {"--matches"};
  } else {
    std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
    return Usage();
  }

  Args args(argc, argv, 2, std::move(allowed));
  if (args.HasFlag("--help")) {
    PrintUsage(stdout);
    return 0;
  }
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "keys") return CmdKeys(args);
  if (cmd == "plan") return CmdPlan(args);
  if (cmd == "match") return CmdMatch(args);
  if (cmd == "stream") return CmdStream(args);
  return CmdEval(args);
}
