// Tests for generation-published session state: queries are lock-free
// reads of an immutable SessionGeneration, so every observed view must be
// internally consistent — matches, clusters and corpus all from the same
// published version, never a torn mix — even while a flusher thread
// churns the corpus. The consistency oracle is the session's own
// equivalence contract: a view's Matches() must be exactly what one-shot
// Executor::Run produces over that same view's Corpus(). Publishing is
// O(delta): a one-record flush copies a sliver of what a load copies.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "api/session.h"
#include "datagen/credit_billing.h"
#include "match/clustering.h"

namespace mdmatch::api {
namespace {

std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(
    const match::PairSet& set) {
  auto pairs = set.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

class ApiGenerationTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 120;
    gen.seed = 515;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
  }

  Result<PlanPtr> BuildPlan(PlanOptions options = {}) {
    return PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .Build();
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

TEST_F(ApiGenerationTest, GenerationNumbersAdvanceOnlyOnNonEmptyFlushes) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  MatchSession session(*plan);
  EXPECT_EQ(session.generation(), 0u);

  // Empty flush: nothing published.
  auto empty = session.Flush();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->generation, 0u);
  EXPECT_EQ(session.generation(), 0u);

  ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(0)).ok());
  auto first = session.Flush();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->generation, 1u);
  EXPECT_EQ(session.generation(), 1u);
  EXPECT_EQ(session.View().generation(), 1u);

  ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(0)).ok());
  auto second = session.Flush();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->generation, 2u);

  // Another empty flush reports the standing generation.
  auto still = session.Flush();
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->generation, 2u);
}

TEST_F(ApiGenerationTest, ViewPinsOneGenerationAcrossLaterFlushes) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  MatchSession session(*plan);
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(session.Flush().ok());

  SessionView pinned = session.View();
  const auto pinned_matches = SortedPairs(pinned.Matches());
  const Instance pinned_corpus = pinned.Corpus();

  // The session moves on: more inserts, an update wave, removals.
  for (size_t i = 40; i < 80; ++i) {
    ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(session.Flush().ok());
  for (size_t i = 0; i < 10; ++i) {
    Tuple t = data_.instance.left().tuple(i);
    t.set_value(0, t.value(0) + "x");
    ASSERT_TRUE(session.Upsert(0, std::move(t)).ok());
    ASSERT_TRUE(
        session.Remove(1, data_.instance.right().tuple(i).id()).ok());
  }
  ASSERT_TRUE(session.Flush().ok());

  // The pinned view is bit-identical to what it was.
  EXPECT_EQ(pinned.left_size(), 40u);
  EXPECT_EQ(pinned.right_size(), 40u);
  EXPECT_EQ(SortedPairs(pinned.Matches()), pinned_matches);
  EXPECT_EQ(pinned.Corpus().left().size(), pinned_corpus.left().size());
  // And the session's own view moved on.
  EXPECT_EQ(session.right_size(), 70u);
  EXPECT_GT(session.generation(), pinned.generation());
}

/// The reader-threads-vs-flusher property: while one thread streams
/// deltas (inserts, updates, removals) through Flush, reader threads
/// continuously acquire views and check that each one is internally
/// consistent — its matches are exactly a one-shot Executor::Run over its
/// corpus, its cluster handles agree with its Clusters(), and generation
/// numbers never go backwards.
void RunReadersVsFlusher(const PlanPtr& plan,
                         const datagen::CreditBillingData& data) {
  MatchSession session(plan);
  ExecutorOptions oracle_options;
  oracle_options.evaluate_quality = false;
  Executor oracle(plan, oracle_options);

  constexpr size_t kReaders = 4;
  std::atomic<bool> done{false};
  std::vector<std::string> failures(kReaders);
  std::array<std::atomic<size_t>, kReaders> generations_seen{};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_generation = 0;
      uint64_t last_checked = UINT64_MAX;
      while (!done.load(std::memory_order_acquire)) {
        SessionView view = session.View();
        if (view.generation() < last_generation) {
          failures[t] = "generation went backwards";
          return;
        }
        last_generation = view.generation();
        if (view.generation() == last_checked) continue;
        last_checked = view.generation();
        generations_seen[t].fetch_add(1, std::memory_order_relaxed);

        // Consistency oracle: matches <=> corpus from one version.
        Instance corpus = view.Corpus();
        auto run = oracle.Run(corpus);
        if (!run.ok()) {
          failures[t] = "oracle run failed: " + run.status().ToString();
          return;
        }
        auto view_pairs = view.Matches().pairs();
        std::sort(view_pairs.begin(), view_pairs.end());
        auto oracle_pairs = run->matches.pairs();
        std::sort(oracle_pairs.begin(), oracle_pairs.end());
        if (view_pairs != oracle_pairs) {
          failures[t] = "torn view at generation " +
                        std::to_string(view.generation()) + ": matches != " +
                        "one-shot run over the same view's corpus";
          return;
        }

        // Clusters <=> cluster handles from the same version.
        match::Clustering clusters = view.Clusters();
        for (size_t i = 1; i < corpus.left().size(); ++i) {
          const TupleId a = corpus.left().tuple(i - 1).id();
          const TupleId b = corpus.left().tuple(i).id();
          auto same = view.SameCluster(0, a, 0, b);
          if (!same.ok()) {
            failures[t] = "SameCluster failed for live ids";
            return;
          }
          const bool expected =
              clusters.ClusterOf({0, static_cast<uint32_t>(i - 1)}) ==
              clusters.ClusterOf({0, static_cast<uint32_t>(i)});
          if (*same != expected) {
            failures[t] = "cluster handles disagree with Clusters() at "
                          "generation " +
                          std::to_string(view.generation());
            return;
          }
        }
      }
    });
  }

  // The flusher: insert waves, then an update + removal wave, repeated.
  const size_t n = data.instance.left().size();
  size_t cursor = 0;
  for (int round = 0; round < 12; ++round) {
    const size_t hi = std::min(n, cursor + 15);
    for (size_t i = cursor; i < hi; ++i) {
      ASSERT_TRUE(session.Upsert(0, data.instance.left().tuple(i)).ok());
      ASSERT_TRUE(session.Upsert(1, data.instance.right().tuple(i)).ok());
    }
    cursor = hi;
    ASSERT_TRUE(session.Flush().ok());
    if (round % 3 == 2 && cursor > 8) {
      for (size_t i = 0; i < 5; ++i) {
        Tuple t = data.instance.left().tuple(i + round);
        t.set_value(1, t.value(1) + "q");
        ASSERT_TRUE(session.Upsert(0, std::move(t)).ok());
      }
      ASSERT_TRUE(
          session.Remove(1, data.instance.right().tuple(round).id()).ok());
      ASSERT_TRUE(session.Flush().ok());
    }
  }
  // On a small machine the flusher can finish before a reader was ever
  // scheduled: hold the session steady until every reader verified at
  // least one generation, so the test always checks what it claims to.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    bool all_seen = true;
    for (size_t t = 0; t < kReaders; ++t) {
      all_seen = all_seen &&
                 generations_seen[t].load(std::memory_order_relaxed) > 0;
    }
    if (all_seen) break;
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  for (size_t t = 0; t < kReaders; ++t) {
    EXPECT_EQ(failures[t], "") << "reader " << t;
    // Every reader observed and verified at least one generation.
    EXPECT_GT(generations_seen[t].load(), 0u) << "reader " << t;
  }

  // Final state sanity after all concurrency: still the equivalence
  // contract.
  auto final_run = oracle.Run(session.Corpus());
  ASSERT_TRUE(final_run.ok());
  EXPECT_EQ(SortedPairs(session.Matches()),
            SortedPairs(final_run->matches));
}

TEST_F(ApiGenerationTest, ReadersSeeConsistentGenerationsWindowing) {
  PlanOptions options;
  options.candidates = PlanOptions::Candidates::kWindowing;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok());
  RunReadersVsFlusher(*plan, data_);
}

TEST_F(ApiGenerationTest, ReadersSeeConsistentGenerationsBlocking) {
  PlanOptions options;
  options.candidates = PlanOptions::Candidates::kBlocking;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok());
  RunReadersVsFlusher(*plan, data_);
}

/// publish_bytes_copied of a whole-corpus load and of three one-record
/// flushes after it (an insert, an update and a removal).
struct PublishCopies {
  size_t load = 0;
  std::array<size_t, 3> one_record{};
};

void MeasurePublish(size_t k, PlanOptions::Candidates candidates,
                    PublishCopies* out) {
  sim::SimOpRegistry ops;
  datagen::CreditBillingOptions gen;
  gen.num_base = k;
  gen.seed = 7;
  const datagen::CreditBillingData data =
      datagen::GenerateCreditBilling(gen, &ops);
  PlanOptions options;
  options.candidates = candidates;
  auto plan = PlanBuilder(data.pair, data.target, &ops)
                  .WithSigma(data.mds)
                  .WithOptions(options)
                  .WithTrainingInstance(&data.instance)
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Everything but the last left record, in one flush.
  const Relation& left = data.instance.left();
  const Relation& right = data.instance.right();
  MatchSession session(*plan);
  for (size_t i = 0; i + 1 < left.size(); ++i) {
    ASSERT_TRUE(session.Upsert(0, left.tuple(i)).ok());
  }
  ASSERT_TRUE(session.Upsert(1, right.tuples()).ok());
  auto load = session.Flush();
  ASSERT_TRUE(load.ok());
  out->load = load->publish_bytes_copied;

  Tuple updated = left.tuple(0);
  updated.set_value(0, updated.value(0) + "~");
  const std::function<Status()> stage[3] = {
      [&] { return session.Upsert(0, left.tuple(left.size() - 1)); },
      [&] { return session.Upsert(0, updated); },
      [&] { return session.Remove(1, right.tuple(0).id()); },
  };
  for (size_t step = 0; step < 3; ++step) {
    ASSERT_TRUE(stage[step]().ok());
    auto flushed = session.Flush();
    ASSERT_TRUE(flushed.ok());
    ASSERT_EQ(flushed->upserted + flushed->removed, 1u);
    out->one_record[step] = flushed->publish_bytes_copied;
  }
}

// The O(delta) publish: a one-record flush path-copies the few trie nodes
// its record and pairs touch and shares the rest with the previous
// generation, so what it copies is a sliver of a load and grows with the
// tries' depth, not with the corpus.
TEST_F(ApiGenerationTest, PublishCopiesOnlyTheDelta) {
  const char* const kFlushes[] = {"insert", "update", "remove"};
  for (const auto candidates : {PlanOptions::Candidates::kWindowing,
                                PlanOptions::Candidates::kBlocking}) {
    PublishCopies small;
    PublishCopies large;
    ASSERT_NO_FATAL_FAILURE(MeasurePublish(300, candidates, &small));
    ASSERT_NO_FATAL_FAILURE(MeasurePublish(1200, candidates, &large));
    // A load copies the whole corpus: about 4x at 4x the records.
    EXPECT_GT(large.load, 3 * small.load);
    for (size_t step = 0; step < 3; ++step) {
      SCOPED_TRACE(kFlushes[step]);
      EXPECT_GT(small.one_record[step], 0u);
      EXPECT_GT(large.one_record[step], 0u);
      // At most 2% of the load, and at most 2x from K = 300 to 1200.
      EXPECT_LE(large.one_record[step] * 50, large.load);
      EXPECT_LE(large.one_record[step], 2 * small.one_record[step]);
    }
  }
}

TEST_F(ApiGenerationTest, QueriesAnswerFromPublishedStateNotStaged) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  MatchSession session(*plan);
  ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(0)).ok());
  // Staged but unflushed: queries see the (empty) published generation.
  EXPECT_EQ(session.left_size(), 0u);
  EXPECT_EQ(session.pending_ops(), 1u);
  EXPECT_FALSE(session.ClusterOf(0, data_.instance.left().tuple(0).id()).ok());
  ASSERT_TRUE(session.Flush().ok());
  EXPECT_EQ(session.left_size(), 1u);
  EXPECT_TRUE(session.ClusterOf(0, data_.instance.left().tuple(0).id()).ok());
}

}  // namespace
}  // namespace mdmatch::api
