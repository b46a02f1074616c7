// Tests for the incremental session API (api/session): a MatchSession fed
// any sequence of Upsert / Remove / Flush deltas must produce exactly the
// match pairs and clusters of a one-shot Executor::Run over the equivalent
// single batch (session.Corpus()), for every thread count — including the
// windowing subtleties
// (removals pulling old pairs into a window, insertions pushing standing
// matches out of every window).

#include <algorithm>
#include <cstdint>
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

/// Order-independent form of a clustering: sorted clusters of sorted
/// (side, position) members.
std::vector<std::vector<std::pair<int, uint32_t>>> CanonicalClusters(
    const match::Clustering& clustering) {
  std::vector<std::vector<std::pair<int, uint32_t>>> out;
  for (const auto& cluster : clustering.clusters()) {
    std::vector<std::pair<int, uint32_t>> members;
    for (const auto& r : cluster) members.emplace_back(r.side, r.index);
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ApiSessionTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 200;
    gen.seed = 55;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
  }

  Result<PlanPtr> BuildPlan(PlanOptions options = {}) {
    return PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .Build();
  }

  /// Upserts rows [begin, end) of both relations into the session.
  void UpsertRange(MatchSession* session, size_t begin, size_t end) {
    const Relation& left = data_.instance.left();
    const Relation& right = data_.instance.right();
    for (size_t i = begin; i < end && i < left.size(); ++i) {
      ASSERT_TRUE(session->Upsert(0, left.tuple(i)).ok());
    }
    for (size_t i = begin; i < end && i < right.size(); ++i) {
      ASSERT_TRUE(session->Upsert(1, right.tuple(i)).ok());
    }
  }

  /// One-shot ground truth over the session's standing corpus.
  void ExpectSessionEqualsOneShot(const PlanPtr& plan,
                                  const MatchSession& session) {
    Instance corpus = session.Corpus();
    auto oneshot = Executor(plan).Run(corpus);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status();
    EXPECT_EQ(SortedPairs(session.Matches()), SortedPairs(oneshot->matches));
    EXPECT_EQ(CanonicalClusters(session.Clusters()),
              CanonicalClusters(match::ClusterMatches(oneshot->matches,
                                                      corpus)));
  }

  /// The full incremental scenario of the acceptance criteria: several
  /// Upsert deltas, removals, and in-place updates, flushed separately.
  void RunIncrementalScenario(const PlanPtr& plan, size_t num_threads) {
    SessionOptions options;
    options.num_threads = num_threads;
    options.min_pairs_per_thread = 1;
    MatchSession session(plan, options);

    // Delta 1 + delta 2: two thirds of the data in two flushes.
    const size_t third = data_.instance.left().size() / 3;
    UpsertRange(&session, 0, third);
    ASSERT_TRUE(session.Flush().ok());
    UpsertRange(&session, third, 2 * third);
    auto second = session.Flush();
    ASSERT_TRUE(second.ok());
    EXPECT_GT(second->matches_added, 0u);
    ExpectSessionEqualsOneShot(plan, session);

    // Removals from the standing corpus (both sides).
    size_t removed = 0;
    for (size_t i = 0; i < 2 * third; i += 9, ++removed) {
      ASSERT_TRUE(
          session.Remove(0, data_.instance.left().tuple(i).id()).ok());
      ASSERT_TRUE(
          session.Remove(1, data_.instance.right().tuple(i).id()).ok());
    }
    auto after_remove = session.Flush();
    ASSERT_TRUE(after_remove.ok());
    EXPECT_EQ(after_remove->removed, 2 * removed);
    ExpectSessionEqualsOneShot(plan, session);

    // Delta 3 plus in-place updates: corrupt one attribute of a few
    // surviving records (their standing matches must be re-decided
    // against the new values).
    UpsertRange(&session, 2 * third, data_.instance.left().size());
    for (size_t i = 1; i < third; i += 11) {
      Tuple updated = data_.instance.left().tuple(i);
      updated.set_value(0, "zzz-updated-" + std::to_string(i));
      ASSERT_TRUE(session.Upsert(0, std::move(updated)).ok());
    }
    ASSERT_TRUE(session.Flush().ok());
    ExpectSessionEqualsOneShot(plan, session);
    EXPECT_GT(session.Matches().size(), 0u);
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

TEST_F(ApiSessionTest, IncrementalWindowingMatchesOneShotSingleThread) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 1);
}

TEST_F(ApiSessionTest, IncrementalWindowingMatchesOneShotFourThreads) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 4);
}

TEST_F(ApiSessionTest, IncrementalBlockingMatchesOneShot) {
  PlanOptions options;
  options.candidates = PlanOptions::Candidates::kBlocking;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 1);
  RunIncrementalScenario(*plan, 4);
}

TEST_F(ApiSessionTest, IncrementalFellegiSunterMatchesOneShot) {
  PlanOptions options;
  options.matcher = PlanOptions::Matcher::kFellegiSunter;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 4);
}

TEST_F(ApiSessionTest, ClosurePlanReportsImpliedPairs) {
  PlanOptions options;
  options.transitive_closure = true;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 1);
}

// One oversized batch at 4 threads: the whole dataset in a single flush,
// its evaluation chunked over 4 workers, must reproduce the one-shot (and
// the single-threaded session) exactly — for windowing and blocking.
TEST_F(ApiSessionTest, ShardedBulkLoadMatchesOneShot) {
  for (bool blocking : {false, true}) {
    PlanOptions plan_options;
    if (blocking) {
      plan_options.candidates = PlanOptions::Candidates::kBlocking;
    }
    auto plan = BuildPlan(plan_options);
    ASSERT_TRUE(plan.ok()) << plan.status();

    SessionOptions threaded;
    threaded.num_threads = 4;
    threaded.min_pairs_per_thread = 1;  // every worker gets pairs
    MatchSession session(*plan, threaded);
    UpsertRange(&session, 0, data_.instance.left().size());
    auto report = session.Flush();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GT(report->pairs_evaluated, 4u);
    ExpectSessionEqualsOneShot(*plan, session);

    MatchSession single(*plan);  // 1 thread
    UpsertRange(&single, 0, data_.instance.left().size());
    ASSERT_TRUE(single.Flush().ok());
    EXPECT_EQ(SortedPairs(session.Matches()), SortedPairs(single.Matches()));
  }
}

// A 4-thread flush against an already-indexed standing corpus (not just a
// cold bulk load), with removals in the same delta, must also be exact.
TEST_F(ApiSessionTest, ShardedIncrementalDeltaMatchesOneShot) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  SessionOptions options;
  options.num_threads = 4;
  options.min_pairs_per_thread = 1;
  MatchSession session(*plan, options);
  const size_t half = data_.instance.left().size() / 2;
  UpsertRange(&session, 0, half);
  ASSERT_TRUE(session.Flush().ok());
  for (size_t i = 0; i < half; i += 13) {
    ASSERT_TRUE(session.Remove(0, data_.instance.left().tuple(i).id()).ok());
  }
  UpsertRange(&session, half, data_.instance.left().size());
  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->removed, 0u);
  ExpectSessionEqualsOneShot(*plan, session);
}

TEST_F(ApiSessionTest, MatchesAreQueryableBetweenIngests) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);

  EXPECT_EQ(session.Matches().size(), 0u);
  UpsertRange(&session, 0, data_.instance.left().size());
  EXPECT_GT(session.pending_ops(), 0u);
  EXPECT_EQ(session.left_size(), 0u) << "staged records are not live";
  EXPECT_EQ(session.Matches().size(), 0u);

  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(session.pending_ops(), 0u);
  EXPECT_EQ(session.left_size(), data_.instance.left().size());
  EXPECT_GT(session.Matches().size(), 0u);
  EXPECT_EQ(session.Matches().size(), report->total_matches);
}

TEST_F(ApiSessionTest, ClusterMembershipQueries) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  UpsertRange(&session, 0, data_.instance.left().size());
  ASSERT_TRUE(session.Flush().ok());

  match::MatchResult matches = session.Matches();
  ASSERT_GT(matches.size(), 0u);
  Instance corpus = session.Corpus();
  const auto& [l, r] = matches.pairs().front();
  const TupleId left_id = corpus.left().tuple(l).id();
  const TupleId right_id = corpus.right().tuple(r).id();

  auto same = session.SameCluster(0, left_id, 1, right_id);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_TRUE(*same) << "matched records must share a cluster";

  // Find a left record matched to nothing: different cluster.
  for (uint32_t i = 0; i < corpus.left().size(); ++i) {
    bool in_any = false;
    for (const auto& [ml, mr] : matches.pairs()) {
      (void)mr;
      if (ml == i) in_any = true;
    }
    if (!in_any) {
      auto diff = session.SameCluster(0, corpus.left().tuple(i).id(), 1,
                                      right_id);
      ASSERT_TRUE(diff.ok());
      EXPECT_FALSE(*diff);
      break;
    }
  }

  EXPECT_FALSE(session.ClusterOf(0, 999999).ok());
  EXPECT_FALSE(session.ClusterOf(7, left_id).ok());
}

// Removing the only billing record bridging a cluster must split it (the
// stale union-find is rebuilt from the surviving pairs).
TEST_F(ApiSessionTest, RemovalSplitsClusters) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  UpsertRange(&session, 0, data_.instance.left().size());
  ASSERT_TRUE(session.Flush().ok());

  // Find two left records matched to one shared billing record.
  match::MatchResult matches = session.Matches();
  Instance corpus = session.Corpus();
  for (const auto& [l1, r1] : matches.pairs()) {
    for (const auto& [l2, r2] : matches.pairs()) {
      if (r1 != r2 || l1 == l2) continue;
      const TupleId a = corpus.left().tuple(l1).id();
      const TupleId b = corpus.left().tuple(l2).id();
      auto joined = session.SameCluster(0, a, 0, b);
      ASSERT_TRUE(joined.ok());
      ASSERT_TRUE(*joined);
      ASSERT_TRUE(session.Remove(1, corpus.right().tuple(r1).id()).ok());
      auto report = session.Flush();
      ASSERT_TRUE(report.ok());
      EXPECT_GE(report->matches_dropped, 2u);
      ExpectSessionEqualsOneShot(*plan, session);
      auto split = session.SameCluster(0, a, 0, b);
      ASSERT_TRUE(split.ok());
      // They may still be joined through another bridge; the one-shot
      // equivalence above is the real check. Just exercise the query.
      (void)*split;
      return;
    }
  }
  GTEST_SKIP() << "no shared billing match in this dataset";
}

TEST_F(ApiSessionTest, ValidatesArgs) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);

  EXPECT_EQ(session.Upsert(2, data_.instance.left().tuple(0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Upsert(1, data_.instance.left().tuple(0)).code(),
            StatusCode::kInvalidArgument)
      << "credit tuple arity must not fit the billing schema";
  EXPECT_EQ(session.Remove(0, 12345).code(), StatusCode::kNotFound);

  // Remove of a staged-but-unflushed record is legal and nets to a no-op.
  ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(0)).ok());
  ASSERT_TRUE(session.Remove(0, data_.instance.left().tuple(0).id()).ok());
  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(session.left_size(), 0u);
}

TEST_F(ApiSessionTest, EmptyFlushIsANoOp) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->upserted, 0u);
  EXPECT_EQ(report->pairs_evaluated, 0u);
  EXPECT_EQ(report->total_matches, 0u);
}

}  // namespace
}  // namespace mdmatch::api
