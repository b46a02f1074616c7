// Concurrent query throughput against a standing MatchSession: N reader
// threads issue membership / cluster queries (ClusterOf, SameCluster)
// while a flusher thread churns the corpus with update waves. This is the
// read-dominated production shape the session's query path is built for —
// the numbers show what serializing queries on the session mutex costs
// versus publishing immutable generations readers can use lock-free.
//
// A second section profiles catalog-shared *blocking* flushes at several
// standing-corpus sizes: with the index snapshot pinned by the catalog
// memo, each advance must preserve the frozen version, so the per-flush
// merge cost shows directly whether the block index clones O(corpus) or
// shares per-block in O(delta · log n).
//
// Emits an aligned table and machine-readable BENCH_queries.json
// (before/after evidence is committed as BENCH_queries.before.json vs
// BENCH_queries.json).
//
// MDMATCH_BENCH_FULL=1 runs the large corpus (>= 50k standing records);
// MDMATCH_BENCH_TINY=1 shrinks everything for CI smoke runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/executor.h"
#include "api/session.h"
#include "bench_common.h"
#include "util/string_util.h"
#include "util/table_writer.h"

using namespace mdmatch;

namespace {

bool TinyRun() {
  const char* env = std::getenv("MDMATCH_BENCH_TINY");
  return env != nullptr && std::string(env) == "1";
}

/// Cheap per-thread RNG (xorshift64*) — queries must cost less than the
/// lock they are probing, so no std::mt19937 in the hot loop.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 2654435769u + 1) {}
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }
};

struct ArmResult {
  size_t readers = 0;
  size_t wave = 0;  ///< update-wave size per flush; 0 = no churn
  double seconds = 0;
  size_t queries = 0;
  size_t flushes = 0;
  double qps = 0;
};

/// One measured configuration: `readers` query threads for ~`duration`
/// seconds, optionally against a continuous update-wave flusher.
ArmResult RunArm(api::MatchSession& session,
                 const std::vector<TupleId> (&ids)[2],
                 const std::vector<Tuple> (&wave_tuples)[2], size_t readers,
                 double duration, size_t wave) {
  const bool churn = wave > 0;
  ArmResult result;
  result.readers = readers;
  result.wave = wave;

  std::atomic<bool> stop{false};
  std::vector<size_t> ops(readers, 0);
  std::atomic<uint64_t> sink{0};  // keeps query results observable

  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 99);
      uint64_t local_sink = 0;
      size_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int side = static_cast<int>(rng.Next() & 1);
        const TupleId id = ids[side][rng.Next() % ids[side].size()];
        if ((n & 3) == 0) {
          const TupleId other = ids[1 - side][rng.Next() % ids[1 - side].size()];
          auto same = session.SameCluster(side, id, 1 - side, other);
          if (same.ok()) local_sink += *same ? 1 : 0;
        } else {
          auto cluster = session.ClusterOf(side, id);
          if (cluster.ok()) local_sink += *cluster;
        }
        ++n;
      }
      ops[t] = n;
      sink.fetch_add(local_sink, std::memory_order_relaxed);
    });
  }

  std::atomic<size_t> flushes{0};
  std::thread flusher;
  if (churn) {
    flusher = std::thread([&] {
      size_t cursor = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t i = 0; i < wave; ++i) {
          const size_t at = (cursor + i) % wave_tuples[0].size();
          (void)session.Upsert(0, wave_tuples[0][at]);
          (void)session.Upsert(1, wave_tuples[1][at % wave_tuples[1].size()]);
        }
        cursor += wave;
        if (session.Flush().ok()) {
          flushes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  double elapsed = 0;
  {
    ScopedTimer timer(&elapsed);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(duration * 1000)));
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : threads) t.join();
  }
  if (flusher.joinable()) flusher.join();

  for (size_t n : ops) result.queries += n;
  result.seconds = elapsed;
  result.flushes = flushes.load();
  result.qps = static_cast<double>(result.queries) / std::max(1e-9, elapsed);
  return result;
}

}  // namespace

int main() {
  sim::SimOpRegistry ops;
  datagen::CreditBillingOptions gen;
  // K = 20000 base tuples + 80% duplicates, 80% preloaded: the ~57.6k
  // standing corpus of perfbench's session workloads.
  gen.num_base = TinyRun() ? 300 : (bench::FullRun() ? 20000 : 4000);
  gen.seed = 7300;
  datagen::CreditBillingData data = datagen::GenerateCreditBilling(gen, &ops);

  api::PlanOptions options;
  auto plan = bench::CompileExperimentPlan(data, &ops, options);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }

  const size_t nl = data.instance.left().size();
  const size_t nr = data.instance.right().size();
  const size_t base_l = nl * 8 / 10;
  const size_t base_r = nr * 8 / 10;

  api::MatchSession session(*plan, {});
  std::vector<TupleId> ids[2];
  for (size_t i = 0; i < base_l; ++i) {
    const Tuple& t = data.instance.left().tuple(i);
    ids[0].push_back(t.id());
    (void)session.Upsert(0, t);
  }
  for (size_t i = 0; i < base_r; ++i) {
    const Tuple& t = data.instance.right().tuple(i);
    ids[1].push_back(t.id());
    (void)session.Upsert(1, t);
  }
  double bulk_seconds = bench::TimedSeconds([&] { (void)session.Flush(); });

  // The churn waves re-upsert standing records with unchanged values:
  // every flush pays the full retire/re-index/re-evaluate path, but the
  // corpus and its matches stay in a steady state the readers can be
  // checked against.
  std::vector<Tuple> wave_tuples[2];
  const size_t wave_pool = std::min<size_t>(base_l, 4096);
  for (size_t i = 0; i < wave_pool; ++i) {
    wave_tuples[0].push_back(data.instance.left().tuple(i));
  }
  for (size_t i = 0; i < std::min<size_t>(base_r, 4096); ++i) {
    wave_tuples[1].push_back(data.instance.right().tuple(i));
  }

  const double duration = TinyRun() ? 0.25 : 2.0;
  // Two churn pressures: light waves flush often and briefly, heavy waves
  // hold the flush path long — under a query mutex the latter starves
  // readers for the whole flush.
  const std::vector<size_t> waves =
      TinyRun() ? std::vector<size_t>{0, 32, 128}
                : std::vector<size_t>{0, 256, 2048};

  std::printf("== Concurrent query throughput (%zu + %zu standing, %u "
              "hardware threads) ==\n",
              base_l, base_r, std::thread::hardware_concurrency());
  TableWriter table(
      {"readers", "churn wave", "queries", "seconds", "qps", "flushes"});
  std::vector<ArmResult> arms;
  for (size_t wave : waves) {
    for (size_t readers : {1u, 2u, 4u, 8u}) {
      ArmResult arm =
          RunArm(session, ids, wave_tuples, readers, duration, wave);
      table.AddRow({std::to_string(arm.readers),
                    arm.wave == 0 ? "none" : std::to_string(arm.wave),
                    std::to_string(arm.queries),
                    TableWriter::Num(arm.seconds, 3),
                    TableWriter::Num(arm.qps, 0),
                    std::to_string(arm.flushes)});
      arms.push_back(arm);
    }
  }
  table.Print(std::cout);

  // Sanity: the update churn must leave the match state exactly where a
  // one-shot run over the corpus lands it.
  {
    api::ExecutorOptions exec;
    exec.evaluate_quality = false;
    api::Executor full(*plan, exec);
    auto run = full.Run(session.Corpus());
    auto session_pairs = session.Matches().pairs();
    std::sort(session_pairs.begin(), session_pairs.end());
    if (!run.ok()) {
      std::fprintf(stderr, "full rerun failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    auto full_pairs = run->matches.pairs();
    std::sort(full_pairs.begin(), full_pairs.end());
    if (session_pairs != full_pairs) {
      std::fprintf(stderr,
                   "BUG: session matches diverged from one-shot run after "
                   "churn\n");
      return 1;
    }
  }

  // --- catalog-shared blocking flushes vs standing-corpus size ---
  // The catalog memo pins every published snapshot, so each advance
  // path-copies: the per-flush merge cost is the honest price of
  // preserving a frozen block index. It should track the delta, not the
  // corpus.
  api::PlanOptions block_options;
  block_options.candidates = api::PlanOptions::Candidates::kBlocking;
  auto block_plan = bench::CompileExperimentPlan(data, &ops, block_options);
  if (!block_plan.ok()) {
    std::fprintf(stderr, "blocking plan failed: %s\n",
                 block_plan.status().ToString().c_str());
    return 1;
  }
  struct BlockPoint {
    size_t standing = 0;
    size_t delta = 0;
    double avg_merge_seconds = 0;
    double avg_flush_seconds = 0;
  };
  std::vector<BlockPoint> block_points;
  const size_t block_wave = TinyRun() ? 16 : 128;
  const size_t block_flushes = 5;
  std::printf("\n== Catalog-shared blocking flush cost vs corpus size "
              "(delta = %zu updates) ==\n",
              2 * block_wave);
  TableWriter block_table(
      {"standing", "delta", "avg merge (s)", "avg flush (s)"});
  for (size_t denom : {4u, 2u, 1u}) {
    auto catalog = std::make_shared<candidate::IndexCatalog>();
    api::SessionOptions so;
    so.catalog = catalog;
    so.corpus_id = "bench-blocking-" + std::to_string(denom);
    api::MatchSession bs(*block_plan, so);
    const size_t sl = base_l / denom;
    const size_t sr = base_r / denom;
    for (size_t i = 0; i < sl; ++i) {
      (void)bs.Upsert(0, data.instance.left().tuple(i));
    }
    for (size_t i = 0; i < sr; ++i) {
      (void)bs.Upsert(1, data.instance.right().tuple(i));
    }
    if (!bs.Flush().ok()) return 1;

    BlockPoint point;
    point.standing = sl + sr;
    point.delta = 2 * block_wave;
    for (size_t f = 0; f < block_flushes; ++f) {
      for (size_t i = 0; i < block_wave; ++i) {
        const size_t at = (f * block_wave + i) % sl;
        (void)bs.Upsert(0, data.instance.left().tuple(at));
        (void)bs.Upsert(1, data.instance.right().tuple(at % sr));
      }
      auto report = bs.Flush();
      if (!report.ok()) return 1;
      point.avg_merge_seconds += report->merge_seconds;
      point.avg_flush_seconds += report->index_seconds +
                                 report->match_seconds +
                                 report->cluster_seconds;
    }
    point.avg_merge_seconds /= static_cast<double>(block_flushes);
    point.avg_flush_seconds /= static_cast<double>(block_flushes);
    block_table.AddRow({std::to_string(point.standing),
                        std::to_string(point.delta),
                        TableWriter::Num(point.avg_merge_seconds, 6),
                        TableWriter::Num(point.avg_flush_seconds, 6)});
    block_points.push_back(point);
  }
  block_table.Print(std::cout);

  std::ofstream json("BENCH_queries.json");
  json << "{\n  \"bench\": \"query_throughput\",\n";
  json << StringPrintf("  \"hardware_threads\": %u,\n",
                       std::thread::hardware_concurrency());
  json << StringPrintf(
      "  \"k\": %zu,\n  \"standing_left\": %zu,\n  \"standing_right\": "
      "%zu,\n  \"bulk_load_seconds\": %.6f,\n",
      gen.num_base, base_l, base_r, bulk_seconds);
  json << "  \"query_arms\": [\n";
  for (size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    json << StringPrintf(
        "    {\"readers\": %zu, \"churn_wave\": %zu, \"queries\": %zu, "
        "\"seconds\": %.6f, \"qps\": %.1f, \"flushes\": %zu}%s\n",
        a.readers, a.wave, a.queries, a.seconds, a.qps, a.flushes,
        i + 1 < arms.size() ? "," : "");
  }
  json << "  ],\n";
  json << "  \"blocking_advance\": [\n";
  for (size_t i = 0; i < block_points.size(); ++i) {
    const BlockPoint& p = block_points[i];
    json << StringPrintf(
        "    {\"standing\": %zu, \"delta\": %zu, \"avg_merge_seconds\": "
        "%.6f, \"avg_flush_seconds\": %.6f}%s\n",
        p.standing, p.delta, p.avg_merge_seconds, p.avg_flush_seconds,
        i + 1 < block_points.size() ? "," : "");
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_queries.json\n");
  return 0;
}
